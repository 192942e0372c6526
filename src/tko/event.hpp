// TKO_Event: protocol timer objects (Section 4.2.1).
//
// One-shot or periodic; schedule / cancel / expire mirror the paper's
// interface. An Event is the TKO face of one sim::Timer on the host's
// scheduler, embedded here, so arming and cancelling allocate nothing.
// Its expiry action is a small trivially copyable callable, such as
// `[this]` or `[this, id]` (see sim::Timer).
#pragma once

#include "os/timer_facility.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/time.hpp"

namespace adaptive::tko {

class Event {
public:
  template <class F>
  Event(os::TimerFacility& timers, F on_expire) : timer_(timers.scheduler(), on_expire) {}

  /// Arm to expire once after `delay`. Rearming replaces the pending timer.
  void schedule(sim::SimTime delay) { timer_.arm_after(delay); }

  /// Arm to expire every `period` until cancelled.
  void schedule_periodic(sim::SimTime period) { timer_.arm_every(period); }

  /// Disarm; a cancelled event never fires.
  void cancel() { timer_.cancel(); }

  [[nodiscard]] bool pending() const { return timer_.pending(); }

  /// Replace the expiry action (used when a mechanism segue re-owns a
  /// live timer).
  template <class F>
  void set_callback(F on_expire) {
    timer_.set_callback(on_expire);
  }

private:
  sim::Timer timer_;
};

}  // namespace adaptive::tko
