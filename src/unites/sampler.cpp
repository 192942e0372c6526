#include "unites/sampler.hpp"

#include "unites/json_writer.hpp"

namespace adaptive::unites {

Sampler::Sampler(os::TimerFacility& timers, Config cfg, CaptureFn capture)
    : cfg_(cfg), capture_(std::move(capture)) {
  timer_ = std::make_unique<tko::Event>(timers, [this] { sample(); });
  if (cfg_.period > sim::SimTime::zero()) timer_->schedule_periodic(cfg_.period);
}

Sampler::~Sampler() { cancel(); }

void Sampler::cancel() { timer_->cancel(); }

void Sampler::sample_now() { sample(); }

void Sampler::sample() {
  if (!capture_) return;
  const ResourceSnapshot snap = capture_();
  ++samples_;
  const auto point = [&](net::NodeId host, std::uint32_t conn, const char* name,
                         std::uint64_t v) {
    TimelinePoint p;
    p.when = snap.when;
    p.host = host;
    p.connection = conn;
    p.name = name;
    p.value = static_cast<double>(v);
    timeline_.push_back(std::move(p));
  };
  for (const auto& h : snap.hosts) {
    point(h.host, 0, metrics::kPoolLiveBytes, h.pool.live_bytes);
    point(h.host, 0, metrics::kPoolHighWaterBytes, h.pool.high_water_bytes);
    point(h.host, 0, metrics::kPoolAllocatedBytes, h.pool.allocated_bytes);
    point(h.host, 0, metrics::kPoolCopiedBytes, h.pool.copied_bytes);
    point(h.host, 0, metrics::kCopies, h.pool.copies);
  }
  if (cfg_.per_session) {
    for (const auto& s : snap.sessions) {
      point(s.host, s.session, metrics::kSessionLiveBytes, s.live_bytes);
    }
  }
  if (gauges_) gauges_(snap.when, timeline_);
}

void write_timeline_jsonl(std::ostream& out, const Timeline& tl) {
  detail::JsonWriter w(out);
  for (const auto& p : tl) {
    w.raw("{\"t\":").num(p.when.ns()).raw(",\"seed\":").num(p.seed);
    w.raw(",\"host\":").num(p.host).raw(",\"connection\":").num(p.connection);
    w.raw(",\"name\":\"").str(p.name).raw("\",\"value\":").num(p.value).raw("}\n");
  }
  w.flush();
}

void write_timeline_chrome(std::ostream& out, const Timeline& tl) {
  detail::JsonWriter w(out);
  w.raw("{\"traceEvents\":[");
  bool first = true;
  for (const auto& p : tl) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"name\":\"").str(p.name).raw("\",\"cat\":\"resource\",\"ph\":\"C\",\"pid\":");
    w.num(p.host).raw(",\"tid\":").num(p.connection);
    w.raw(",\"ts\":").num(static_cast<double>(p.when.ns()) / 1e3);
    w.raw(",\"args\":{\"value\":").num(p.value).raw("}}");
  }
  w.raw("]}\n");
  w.flush();
}

}  // namespace adaptive::unites
