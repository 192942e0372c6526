#include "unites/resource.hpp"

#include "os/host.hpp"
#include "tko/transport.hpp"
#include "unites/json_writer.hpp"

namespace adaptive::unites {

void ResourceSnapshot::capture_host(const os::Host& host,
                                    const tko::AdaptiveTransport* transport) {
  HostPoolResource hp;
  hp.host = host.node_id();
  hp.pool = host.buffers().stats();
  hosts.push_back(hp);
  if (transport == nullptr) return;
  transport->for_each_session([this, &host](const tko::TransportSession& s) {
    SessionResource sr;
    sr.host = host.node_id();
    sr.session = s.id();
    sr.live_bytes = s.live_bytes();
    sr.high_water_bytes = s.stats().live_bytes_high_water;
    sessions.push_back(sr);
  });
}

std::uint64_t ResourceSnapshot::total_copies() const {
  std::uint64_t n = 0;
  for (const auto& h : hosts) n += h.pool.copies;
  return n;
}

std::uint64_t ResourceSnapshot::total_copied_bytes() const {
  std::uint64_t n = 0;
  for (const auto& h : hosts) n += h.pool.copied_bytes;
  return n;
}

std::uint64_t ResourceSnapshot::total_allocations() const {
  std::uint64_t n = 0;
  for (const auto& h : hosts) n += h.pool.allocations;
  return n;
}

std::uint64_t ResourceSnapshot::total_allocated_bytes() const {
  std::uint64_t n = 0;
  for (const auto& h : hosts) n += h.pool.allocated_bytes;
  return n;
}

std::uint64_t ResourceSnapshot::pool_high_water_bytes() const {
  std::uint64_t n = 0;
  for (const auto& h : hosts) n += h.pool.high_water_bytes;
  return n;
}

std::uint64_t ResourceSnapshot::session_live_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.live_bytes;
  return n;
}

std::uint64_t ResourceSnapshot::session_high_water_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions) n += s.high_water_bytes;
  return n;
}

void ResourceSnapshot::record_into(MetricRepository& repo) const {
  const auto rec = [&](net::NodeId host, std::uint32_t conn, const char* name,
                       std::uint64_t v) {
    repo.record(MetricKey{host, conn, name}, when, static_cast<double>(v),
                MetricClass::kResource);
  };
  for (const auto& h : hosts) {
    rec(h.host, 0, metrics::kPoolAllocations, h.pool.allocations);
    rec(h.host, 0, metrics::kPoolAllocatedBytes, h.pool.allocated_bytes);
    rec(h.host, 0, metrics::kPoolFrees, h.pool.frees);
    rec(h.host, 0, metrics::kPoolLiveBytes, h.pool.live_bytes);
    rec(h.host, 0, metrics::kPoolHighWaterBytes, h.pool.high_water_bytes);
    rec(h.host, 0, metrics::kPoolCopiedBytes, h.pool.copied_bytes);
    rec(h.host, 0, metrics::kPoolWastedBytes, h.pool.wasted_bytes);
    rec(h.host, 0, metrics::kCopies, h.pool.copies);
  }
  for (const auto& s : sessions) {
    rec(s.host, s.session, metrics::kSessionLiveBytes, s.live_bytes);
    rec(s.host, s.session, metrics::kSessionHighWaterBytes, s.high_water_bytes);
  }
}

std::string ResourceSnapshot::to_json() const {
  std::string out;
  detail::JsonWriter w(out);
  w.raw("{\"when_ns\":").num(when.ns()).raw(",\"hosts\":[");
  bool first = true;
  for (const auto& h : hosts) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"host\":").num(h.host).raw(",\"allocations\":").num(h.pool.allocations);
    w.raw(",\"allocated_bytes\":").num(h.pool.allocated_bytes);
    w.raw(",\"frees\":").num(h.pool.frees).raw(",\"freed_bytes\":").num(h.pool.freed_bytes);
    w.raw(",\"live_bytes\":").num(h.pool.live_bytes);
    w.raw(",\"high_water_bytes\":").num(h.pool.high_water_bytes);
    w.raw(",\"copies\":").num(h.pool.copies).raw(",\"copied_bytes\":").num(h.pool.copied_bytes);
    w.raw(",\"wasted_bytes\":").num(h.pool.wasted_bytes).raw('}');
  }
  w.raw("],\"sessions\":[");
  first = true;
  for (const auto& s : sessions) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"host\":").num(s.host).raw(",\"session\":").num(s.session);
    w.raw(",\"live_bytes\":").num(s.live_bytes);
    w.raw(",\"high_water_bytes\":").num(s.high_water_bytes).raw('}');
  }
  w.raw("]}");
  w.flush();
  return out;
}

}  // namespace adaptive::unites
