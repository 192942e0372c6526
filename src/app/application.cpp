#include "app/application.hpp"

#include "unites/profiler.hpp"

#include <algorithm>
#include <cmath>

namespace adaptive::app {

std::vector<std::uint8_t> UnitHeader::encode(std::size_t total_bytes) const {
  std::vector<std::uint8_t> out(std::max(total_bytes, kBytes), 0xA5);
  out[0] = static_cast<std::uint8_t>(kMagic >> 8);
  out[1] = static_cast<std::uint8_t>(kMagic);
  out[2] = 0;
  out[3] = 0;
  out[4] = static_cast<std::uint8_t>(id >> 24);
  out[5] = static_cast<std::uint8_t>(id >> 16);
  out[6] = static_cast<std::uint8_t>(id >> 8);
  out[7] = static_cast<std::uint8_t>(id);
  const auto ts = static_cast<std::uint64_t>(sent_at_ns);
  for (int i = 0; i < 8; ++i) {
    out[8 + i] = static_cast<std::uint8_t>(ts >> (56 - 8 * i));
  }
  return out;
}

bool UnitHeader::decode(std::span<const std::uint8_t> bytes, UnitHeader& out) {
  if (bytes.size() < kBytes) return false;
  if ((static_cast<std::uint16_t>(bytes[0]) << 8 | bytes[1]) != kMagic) return false;
  out.id = (static_cast<std::uint32_t>(bytes[4]) << 24) |
           (static_cast<std::uint32_t>(bytes[5]) << 16) |
           (static_cast<std::uint32_t>(bytes[6]) << 8) | bytes[7];
  std::uint64_t ts = 0;
  for (int i = 0; i < 8; ++i) ts = (ts << 8) | bytes[8 + i];
  out.sent_at_ns = static_cast<std::int64_t>(ts);
  return true;
}

SourceApp::SourceApp(tko::Session& session, std::unique_ptr<TrafficModel> model,
                     os::TimerFacility& timers, sim::SimTime duration)
    : session_(session), model_(std::move(model)), timers_(timers), duration_(duration) {
  timer_ = std::make_unique<tko::Event>(timers_, [this] { emit_next(); });
}

SourceApp::~SourceApp() { disarm_writable(); }

void SourceApp::start() {
  if (running_) return;
  running_ = true;
  started_at_ = timers_.now();
  emit_next();
}

void SourceApp::stop() {
  running_ = false;
  finished_ = true;
  timer_->cancel();
  disarm_writable();
}

void SourceApp::disarm_writable() {
  if (!awaiting_writable_) return;
  awaiting_writable_ = false;
  session_.set_on_writable(nullptr);
}

void SourceApp::emit_next() {
  if (!running_) return;
  if (!duration_.is_infinite() && timers_.now() - started_at_ >= duration_) {
    stop();
    return;
  }
  auto unit = model_->next();
  if (!unit.has_value()) {
    stop();
    return;
  }
  auto send_unit = [this](std::size_t bytes) {
    UNITES_PROF("app.source.emit");
    UnitHeader h;
    h.id = next_id_++;
    h.sent_at_ns = timers_.now().ns();
    auto payload = h.encode(bytes);
    const std::size_t payload_bytes = payload.size();
    tko::Message msg = tko::Message::from_bytes(payload, session_.buffer_pool());
    // Lifecycle id = unit id + 1 (0 means untracked): the hook whitebox
    // span assembly correlates sender-side milestones with.
    msg.set_lifecycle(static_cast<std::uint64_t>(h.id) + 1);
    if (session_.send(std::move(msg))) {
      ++stats_.units_sent;
      stats_.bytes_sent += payload_bytes;
      session_.trace_ring().instant(unites::TraceCategory::kApp, "app.submit", timers_.now(), 0,
                                    h.id, static_cast<double>(payload_bytes));
      if (on_send_) on_send_(timers_.now(), h.id, payload_bytes);
    } else {
      ++stats_.send_rejected;
    }
  };
  if (unit->gap <= sim::SimTime::zero()) {
    send_unit(unit->bytes);
    // Back-to-back units go as fast as the session accepts them: chain via
    // a zero-delay event (no unbounded same-instant recursion) while it is
    // writable, else wait for its writable upcall to re-arm that event.
    // The session then queues at most one window plus this unit.
    if (session_.writable()) {
      timer_->schedule(sim::SimTime::zero());
      return;
    }
    awaiting_writable_ = true;
    session_.set_on_writable([this] {
      awaiting_writable_ = false;
      timer_->schedule(sim::SimTime::zero());
    });
    return;
  }
  timer_->schedule(unit->gap);
  send_unit(unit->bytes);
}

double SinkStats::mean_latency_sec() const {
  if (latencies_sec.empty()) return 0.0;
  double s = 0.0;
  for (const double v : latencies_sec) s += v;
  return s / static_cast<double>(latencies_sec.size());
}

double SinkStats::jitter_sec() const {
  if (latencies_sec.size() < 2) return 0.0;
  const double mean = mean_latency_sec();
  double sq = 0.0;
  for (const double v : latencies_sec) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(latencies_sec.size()));
}

double SinkStats::throughput_bps() const {
  const auto span = last_arrival - first_arrival;
  if (span <= sim::SimTime::zero()) return 0.0;
  return static_cast<double>(bytes_received) * 8.0 / span.sec();
}

void SinkApp::attach(tko::Session& session) {
  trace_ = &session.trace_ring();
  session.set_deliver([this](tko::Message&& m) { on_message(std::move(m)); });
}

void SinkApp::on_message(tko::Message&& m) {
  UNITES_PROF("app.sink.deliver");
  const auto now = timers_.now();
  if (stats_.units_received == 0 && stats_.continuation_bytes == 0) {
    stats_.first_arrival = now;
  }
  stats_.last_arrival = now;
  // The common case borrows the reassembled record in place (one segment
  // after consume-based header strips); a fragmented record costs a single
  // recorded gather.
  const std::span<const std::uint8_t> bytes = m.flat();
  stats_.bytes_received += bytes.size();

  UnitHeader h;
  if (!UnitHeader::decode(bytes, h)) {
    // Continuation fragment of a segmented unit: counts toward throughput
    // only.
    stats_.continuation_bytes += bytes.size();
    return;
  }
  auto& page = seen_[h.id / kSeenPageIds];
  if (page.test(h.id % kSeenPageIds)) {
    ++stats_.duplicates;
    if (on_delivery_) {
      DeliveryEvent ev;
      ev.unit = h.id;
      ev.latency_ns = (now - sim::SimTime(h.sent_at_ns)).ns();
      ev.bytes = bytes.size();
      ev.duplicate = true;
      on_delivery_(now, ev);
    }
    return;
  }
  page.set(h.id % kSeenPageIds);
  ++stats_.units_received;
  stats_.highest_id = std::max(stats_.highest_id, h.id);
  const bool misordered = h.id < last_id_;
  if (misordered) ++stats_.misordered;
  last_id_ = h.id;
  const sim::SimTime latency = now - sim::SimTime(h.sent_at_ns);
  stats_.latencies_sec.push_back(latency.sec());
  if (trace_ != nullptr) {
    trace_->instant(unites::TraceCategory::kApp, "app.deliver", now, 0, h.id,
                    static_cast<double>(latency.ns()));
  }
  if (on_latency_) on_latency_(now, static_cast<double>(latency.ns()));
  if (on_delivery_) {
    DeliveryEvent ev;
    ev.unit = h.id;
    ev.latency_ns = latency.ns();
    ev.bytes = bytes.size();
    ev.misordered = misordered;
    on_delivery_(now, ev);
  }
}

}  // namespace adaptive::app
