// Serial CPU resource model.
//
// Section 2.2(A): transport overhead — interrupts, context switches,
// per-PDU protocol processing, byte copies — does not shrink as channel
// speed grows, so it eventually bounds delivered throughput. The model
// charges each activity an instruction budget, executes work serially
// (one CPU), and accumulates busy time, making the throughput-preservation
// problem directly measurable in virtual time.
#pragma once

#include "sim/event_scheduler.hpp"
#include "sim/time.hpp"

#include <cstdint>
#include <type_traits>
#include <utility>

namespace adaptive::os {

struct CpuConfig {
  /// Millions of instructions per second. 1992-era RISC workstation ~25.
  double mips = 25.0;
  std::uint64_t interrupt_instr = 2'500;       ///< per packet tx/rx interrupt
  std::uint64_t context_switch_instr = 4'000;  ///< per user/kernel crossing
  double copy_instr_per_byte = 0.25;           ///< memcpy cost
};

struct CpuStats {
  std::uint64_t interrupts = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t instructions = 0;
  sim::SimTime busy = sim::SimTime::zero();
};

class CpuModel {
public:
  CpuModel(sim::EventScheduler& sched, const CpuConfig& cfg) : sched_(sched), cfg_(cfg) {}

  [[nodiscard]] const CpuConfig& config() const { return cfg_; }
  [[nodiscard]] const CpuStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Time to execute `instr` instructions on an idle CPU.
  [[nodiscard]] sim::SimTime instr_time(std::uint64_t instr) const {
    return sim::SimTime(static_cast<std::int64_t>(
        static_cast<double>(instr) / (cfg_.mips * 1e6) * 1e9));
  }

  /// Queue `instr` instructions of work; `done` runs when the (serial)
  /// CPU finishes it, posted straight into the scheduler's node (a
  /// `nullptr` completion posts nothing). Returns the completion time.
  template <class Done>
  sim::SimTime run(std::uint64_t instr, Done&& done) {
    const sim::SimTime finish = book(instr);
    if constexpr (!std::is_null_pointer_v<std::remove_cvref_t<Done>>) {
      sched_.post_at(finish, std::forward<Done>(done));
    }
    return finish;
  }

  /// Convenience wrappers that also bump the relevant counter.
  template <class Done>
  sim::SimTime run_interrupt(Done&& done) {
    ++stats_.interrupts;
    return run(cfg_.interrupt_instr, std::forward<Done>(done));
  }
  template <class Done>
  sim::SimTime run_context_switch(Done&& done) {
    ++stats_.context_switches;
    return run(cfg_.context_switch_instr, std::forward<Done>(done));
  }
  template <class Done>
  sim::SimTime run_copy(std::size_t bytes, Done&& done) {
    return run(static_cast<std::uint64_t>(cfg_.copy_instr_per_byte * static_cast<double>(bytes)),
               std::forward<Done>(done));
  }

  /// Fraction of time the CPU has been busy since `since`.
  [[nodiscard]] double utilization_since(sim::SimTime since) const;

private:
  /// Book `instr` instructions behind the work already queued; returns
  /// the completion time.
  sim::SimTime book(std::uint64_t instr);

  sim::EventScheduler& sched_;
  CpuConfig cfg_;
  CpuStats stats_;
  sim::SimTime busy_until_ = sim::SimTime::zero();
};

}  // namespace adaptive::os
