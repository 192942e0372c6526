// Per-host timer facility — the OS service behind TKO_Event.
//
// Protocol code reaches the clock and the host's scheduler only through
// this interface, insulating TKO from the simulation kernel exactly as
// the TKO protocol architecture insulates it from a real OS (Section
// 4.2.1). A tko::Event is one sim::Timer armed on this scheduler.
#pragma once

#include "sim/event_scheduler.hpp"
#include "sim/time.hpp"

namespace adaptive::os {

class TimerFacility {
public:
  explicit TimerFacility(sim::EventScheduler& sched) : sched_(sched) {}

  [[nodiscard]] sim::SimTime now() const { return sched_.now(); }
  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }

private:
  sim::EventScheduler& sched_;
};

}  // namespace adaptive::os
