// Fault injector: replays a sim::FaultPlan against a live Network.
//
// The injector resolves the plan's scenario-relative targets (scenario-link
// index, host index) against a concrete topology, schedules the impairment
// and restoration events, and records each application in the network
// monitor as a kFault event — the same observation surface the MANTTS-NMI
// samples, so recovery machinery sees faults the way a deployment would:
// through their symptoms, with the kFault history available to experiment
// harnesses for ground truth.
//
// Overlapping episodes compose. The first impairment on a link captures
// that link's pre-fault baseline config; every begin/end recomputes the
// effective config as baseline + all still-active episodes folded in
// begin order (latency spikes add, bandwidth drops multiply, burst/mutate
// parameters overwrite/max). When the last episode ends the baseline is
// restored exactly. Outages (down/flap/partition) are reference-counted
// per link pair, so a link only comes back up when no outage window still
// covers it, and only if it was up when the first window began. (The
// pre-chaos injector saved configs per episode and let the first restore
// win — overlapping windows could leave links degraded or resurrect them
// early; see the overlap regression tests.)
#pragma once

#include "net/network.hpp"
#include "sim/fault_plan.hpp"

#include <map>
#include <vector>

namespace adaptive::net {

class FaultInjector {
public:
  /// `scenario_links` are forward ids of bidirectional pairs (the
  /// topology's scenario_links); `hosts` maps host index -> NodeId.
  FaultInjector(Network& net, std::vector<LinkId> scenario_links, std::vector<NodeId> hosts);

  /// Cancels every not-yet-fired episode event (scheduled callbacks
  /// capture this injector; it must not be outlived by them).
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every fault in `plan` (relative to the current sim time).
  /// Specs whose targets do not resolve are counted, not fatal.
  void arm(const sim::FaultPlan& plan);

  struct Stats {
    std::uint64_t episodes_started = 0;  ///< impairments applied
    std::uint64_t episodes_ended = 0;    ///< restorations applied
    std::uint64_t unresolved_targets = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  /// One active config-mutating episode on one link.
  struct ActiveEpisode {
    std::uint64_t id = 0;
    sim::FaultSpec spec;
  };

  void schedule(const sim::FaultSpec& spec);
  void begin_episode(const sim::FaultSpec& spec, std::uint64_t episode);
  void end_episode(const sim::FaultSpec& spec, std::uint64_t episode);
  /// Recompute a link's config: baseline + active episodes in begin order.
  void reapply(Link& l);
  /// Fold one episode's impairment into `cfg`.
  static void apply_spec(LinkConfig& cfg, const sim::FaultSpec& spec);
  /// Refcounted pair outage (keyed by forward link id).
  void take_pair_down(LinkId fwd);
  void release_pair(LinkId fwd);
  /// Both directions of the scenario link the spec targets (empty when
  /// the index does not resolve).
  [[nodiscard]] std::vector<Link*> target_links(const sim::FaultSpec& spec);
  /// Forward ids of every link pair touching the spec's host.
  [[nodiscard]] std::vector<LinkId> node_link_pairs(const sim::FaultSpec& spec);
  void record(const sim::FaultSpec& spec, const char* phase);

  Network& net_;
  std::vector<LinkId> scenario_links_;
  std::vector<NodeId> hosts_;
  std::map<LinkId, LinkConfig> baseline_;  ///< pre-fault configs by link id
  std::map<LinkId, std::vector<ActiveEpisode>> active_;
  /// A pair held down by outage windows, keyed by forward link id.
  struct Outage {
    std::uint32_t windows = 0;  ///< open down/flap/partition windows
    bool was_up = false;        ///< the pair's state when the first began
  };
  std::map<LinkId, Outage> outages_;
  std::vector<sim::EventHandle> scheduled_;
  std::uint64_t next_episode_ = 0;
  Stats stats_;
};

}  // namespace adaptive::net
