// Fault injector: replays a sim::FaultPlan against a live Network.
//
// The injector resolves each spec's scenario-relative target (scenario-
// link index, host index) against a concrete topology once, when the
// plan is armed, and schedules the impairment and restoration events.
// Each begin and end is a `net.fault.begin`/`net.fault.end` trace
// instant and a Stats count: ground truth for experiment harnesses,
// while the MANTTS-NMI sees faults the way a deployment would, through
// their symptoms.
//
// Overlapping episodes compose. The first impairment on a link captures
// that link's pre-fault baseline config; every begin/end recomputes the
// effective config as baseline + all still-active episodes folded in
// begin order (latency spikes add, bandwidth drops multiply, burst/mutate
// parameters overwrite/max). When the last episode ends the baseline is
// restored exactly. Outages (down/flap/partition) keep no link state
// here: each window holds its pairs down through Network::hold_pair_down
// and releases them at its end, so a pair carries traffic again only
// when no window still covers it and it is set up — whatever the
// mobility controller or a script set it to in between. (The pre-chaos
// injector saved configs per episode and let the first restore win —
// overlapping windows could leave links degraded or resurrect them
// early; see the overlap regression tests.)
#pragma once

#include "net/network.hpp"
#include "sim/fault_plan.hpp"

#include <deque>
#include <map>
#include <vector>

namespace adaptive::net {

class FaultInjector {
public:
  /// `scenario_links` are forward ids of bidirectional pairs (the
  /// topology's scenario_links); `hosts` maps host index -> NodeId.
  FaultInjector(Network& net, std::vector<LinkId> scenario_links, std::vector<NodeId> hosts);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every fault in `plan` (relative to the current sim time).
  /// A spec whose target does not resolve is counted once and scheduled
  /// never; it is not fatal.
  void arm(const sim::FaultPlan& plan);

  struct Stats {
    std::uint64_t episodes_started = 0;    ///< impairments applied
    std::uint64_t episodes_ended = 0;      ///< restorations applied
    std::uint64_t unresolved_targets = 0;  ///< specs, not episodes
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  /// One armed episode: its begin and end timers point back at it, and
  /// die (cancelling whatever has not fired) with the injector.
  struct Scheduled {
    Scheduled(FaultInjector& injector, const sim::FaultSpec& spec, std::vector<LinkId> pairs,
              std::uint64_t episode);
    sim::FaultSpec spec;
    std::vector<LinkId> pairs;
    std::uint64_t episode;
    sim::Timer begin;
    sim::Timer end;
  };

  /// One active config-mutating episode on one link.
  struct ActiveEpisode {
    std::uint64_t id = 0;
    sim::FaultSpec spec;
  };

  /// Forward ids of the link pairs the spec targets: every pair touching
  /// the host for a partition, the scenario link's pair otherwise. Empty
  /// when the target does not resolve.
  [[nodiscard]] std::vector<LinkId> resolve(const sim::FaultSpec& spec);
  void begin_episode(const Scheduled& e);
  void end_episode(const Scheduled& e);
  /// Recompute a link's config: baseline + active episodes in begin order.
  void reapply(Link& l);
  /// Fold one episode's impairment into `cfg`.
  static void apply_spec(LinkConfig& cfg, const sim::FaultSpec& spec);
  /// A kNet trace instant in the network's ring, stamped with now.
  void trace(const sim::FaultSpec& spec, const char* name);

  Network& net_;
  std::vector<LinkId> scenario_links_;
  std::vector<NodeId> hosts_;
  std::map<LinkId, LinkConfig> baseline_;  ///< pre-fault configs by link id
  std::map<LinkId, std::vector<ActiveEpisode>> active_;
  std::deque<Scheduled> scheduled_;  ///< every armed episode, fired or not
  std::uint64_t next_episode_ = 0;
  Stats stats_;
};

}  // namespace adaptive::net
