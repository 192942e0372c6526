// Isochronous playout service.
//
// Section 2.2(C): "most existing transport systems do not export
// multimedia services like isochronous and synchronous delivery
// guarantees from the underlying network to the application." This sink
// exports that guarantee: each media unit is scheduled to *play* at
// (source timestamp + playout_delay), absorbing network jitter in a
// buffer. Units arriving after their deadline are late drops — the
// quantity a voice/video ACD's loss tolerance actually budgets for.
#pragma once

#include "app/application.hpp"

#include <map>

namespace adaptive::app {

struct PlayoutStats {
  std::uint64_t played = 0;
  std::uint64_t late_drops = 0;      ///< arrived after their play deadline
  std::uint64_t duplicates = 0;
  std::size_t buffered_peak = 0;     ///< max units queued awaiting play time
  std::vector<double> play_error_sec;  ///< |actual - ideal| play instants

  /// Residual jitter at the application after playout buffering: the
  /// standard deviation of the play-instant error (ideally ~0).
  [[nodiscard]] double playout_jitter_sec() const;
  [[nodiscard]] double loss_fraction(std::uint64_t units_sent) const {
    if (units_sent == 0) return 0.0;
    const std::uint64_t got = played;
    return got >= units_sent ? 0.0
                             : static_cast<double>(units_sent - got) /
                                   static_cast<double>(units_sent);
  }
};

class PlayoutSink {
public:
  /// Units play `playout_delay` after their source timestamp. `on_play`
  /// (optional) observes each unit at its play instant.
  using PlayFn = std::function<void(std::uint32_t id, tko::Message&&)>;
  PlayoutSink(os::TimerFacility& timers, sim::SimTime playout_delay, PlayFn on_play = nullptr);

  /// Attach to a session's delivery upcall (UnitHeader framing, as
  /// produced by SourceApp); app.playout trace events go to the session's
  /// ring. A sink fed through on_message without attach traces nothing.
  void attach(tko::Session& session);
  void on_message(tko::Message&& m);

  [[nodiscard]] const PlayoutStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  /// Conformance tap: one call per late drop — the unit arrived but missed
  /// its isochronous deadline, which the QoE proxy weights as half a loss.
  using LateFn = std::function<void(sim::SimTime now, std::uint32_t unit)>;
  void set_late_observer(LateFn fn) { on_late_ = std::move(fn); }

private:
  void play(std::uint32_t id);

  os::TimerFacility& timers_;
  unites::TraceRecorder* trace_ = nullptr;  ///< the attached session's ring
  sim::SimTime delay_;
  PlayFn on_play_;
  LateFn on_late_;
  PlayoutStats stats_;
  struct Pending {
    tko::Message payload;
    sim::SimTime ideal;
    sim::SimTime arrived;  ///< delivery instant: playout hold = play - arrived
    std::unique_ptr<tko::Event> timer;
  };
  std::map<std::uint32_t, Pending> buffer_;
  std::vector<bool> seen_;
};

}  // namespace adaptive::app
