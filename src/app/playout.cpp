#include "app/playout.hpp"

#include "unites/profiler.hpp"

#include <cmath>

namespace adaptive::app {

double PlayoutStats::playout_jitter_sec() const {
  if (play_error_sec.size() < 2) return 0.0;
  double mean = 0.0;
  for (const double v : play_error_sec) mean += v;
  mean /= static_cast<double>(play_error_sec.size());
  double sq = 0.0;
  for (const double v : play_error_sec) sq += (v - mean) * (v - mean);
  return std::sqrt(sq / static_cast<double>(play_error_sec.size()));
}

PlayoutSink::PlayoutSink(os::TimerFacility& timers, sim::SimTime playout_delay, PlayFn on_play)
    : timers_(timers), delay_(playout_delay), on_play_(std::move(on_play)) {}

void PlayoutSink::attach(tko::Session& session) {
  trace_ = &session.trace_ring();
  session.set_deliver([this](tko::Message&& m) { on_message(std::move(m)); });
}

void PlayoutSink::on_message(tko::Message&& m) {
  UNITES_PROF("app.playout.buffer");
  const auto bytes = m.peek(std::min<std::size_t>(m.size(), UnitHeader::kBytes));
  UnitHeader h;
  if (!UnitHeader::decode(bytes, h)) return;  // continuation fragment: media framing only

  if (h.id < seen_.size() && seen_[h.id]) {
    ++stats_.duplicates;
    return;
  }
  if (h.id >= seen_.size()) seen_.resize(std::max<std::size_t>(h.id + 1, seen_.size() * 2 + 1));
  seen_[h.id] = true;

  const sim::SimTime deadline = sim::SimTime(h.sent_at_ns) + delay_;
  const sim::SimTime now = timers_.now();
  if (now > deadline) {
    // Too late to be part of the isochronous stream.
    ++stats_.late_drops;
    if (on_late_) on_late_(now, h.id);
    return;
  }
  Pending p;
  p.payload = std::move(m);
  p.ideal = deadline;
  p.arrived = now;
  const std::uint32_t id = h.id;
  p.timer = std::make_unique<tko::Event>(timers_, [this, id] { play(id); });
  p.timer->schedule(deadline - now);
  buffer_.emplace(id, std::move(p));
  stats_.buffered_peak = std::max(stats_.buffered_peak, buffer_.size());
}

void PlayoutSink::play(std::uint32_t id) {
  auto it = buffer_.find(id);
  if (it == buffer_.end()) return;
  UNITES_PROF("app.playout.play");
  ++stats_.played;
  const sim::SimTime now = timers_.now();
  stats_.play_error_sec.push_back(std::abs((now - it->second.ideal).sec()));
  // Whitebox span terminus: session field carries the unit id (matching
  // app.deliver); value is the hold time the buffer absorbed.
  if (trace_ != nullptr) {
    trace_->instant(unites::TraceCategory::kApp, "app.playout", now, 0, id,
                    static_cast<double>((now - it->second.arrived).ns()));
  }
  if (on_play_) on_play_(id, std::move(it->second.payload));
  buffer_.erase(it);
}

}  // namespace adaptive::app
