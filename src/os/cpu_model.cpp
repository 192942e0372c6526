#include "os/cpu_model.hpp"

#include <algorithm>

namespace adaptive::os {

sim::SimTime CpuModel::book(std::uint64_t instr) {
  stats_.instructions += instr;
  const sim::SimTime cost = instr_time(instr);
  const sim::SimTime start = std::max(sched_.now(), busy_until_);
  busy_until_ = start + cost;
  stats_.busy += cost;
  return busy_until_;
}

double CpuModel::utilization_since(sim::SimTime since) const {
  const auto elapsed = sched_.now() - since;
  if (elapsed <= sim::SimTime::zero()) return 0.0;
  return std::min(1.0, stats_.busy.sec() / elapsed.sec());
}

}  // namespace adaptive::os
