#include "net/fault_injector.hpp"

#include <algorithm>

namespace adaptive::net {

namespace {

bool is_outage_kind(sim::FaultKind k) {
  return k == sim::FaultKind::kLinkDown || k == sim::FaultKind::kLinkFlap ||
         k == sim::FaultKind::kPartition;
}

/// Mobility control events are executed by a net::MobilityController, not
/// the injector — a mixed plan arms cleanly against both.
bool is_mobility_kind(sim::FaultKind k) {
  return k == sim::FaultKind::kHandover || k == sim::FaultKind::kGroupJoin ||
         k == sim::FaultKind::kGroupLeave;
}

}  // namespace

FaultInjector::FaultInjector(Network& net, std::vector<LinkId> scenario_links,
                             std::vector<NodeId> hosts)
    : net_(net), scenario_links_(std::move(scenario_links)), hosts_(std::move(hosts)) {}

FaultInjector::Scheduled::Scheduled(FaultInjector& injector, const sim::FaultSpec& spec,
                                    std::vector<LinkId> pairs, std::uint64_t episode)
    : spec(spec),
      pairs(std::move(pairs)),
      episode(episode),
      begin(injector.net_.scheduler(), [&injector, this] { injector.begin_episode(*this); }),
      end(injector.net_.scheduler(), [&injector, this] { injector.end_episode(*this); }) {}

void FaultInjector::arm(const sim::FaultPlan& plan) {
  for (const auto& spec : plan.faults) {
    if (is_mobility_kind(spec.kind)) continue;
    const std::vector<LinkId> pairs = resolve(spec);
    if (pairs.empty()) {
      ++stats_.unresolved_targets;
      continue;
    }
    const std::uint32_t episodes = spec.kind == sim::FaultKind::kLinkFlap ? spec.count : 1;
    for (std::uint32_t i = 0; i < episodes; ++i) {
      const std::uint64_t episode = next_episode_++;
      const sim::SimTime start = spec.at + spec.period * static_cast<std::int64_t>(i);
      const sim::SimTime end = start + spec.duration;
      Scheduled& s = scheduled_.emplace_back(*this, spec, pairs, episode);
      s.begin.arm_after(start);
      s.end.arm_after(end);
    }
  }
}

std::vector<LinkId> FaultInjector::resolve(const sim::FaultSpec& spec) {
  if (spec.kind != sim::FaultKind::kPartition) {
    if (spec.link >= scenario_links_.size()) return {};
    return {scenario_links_[spec.link]};
  }
  std::vector<LinkId> pairs;
  if (spec.node >= hosts_.size()) return pairs;
  const NodeId node = hosts_[spec.node];
  // connect() creates pairs adjacently: forward even, reverse = fwd ^ 1.
  for (LinkId id = 0; id + 1 < net_.link_count(); id += 2) {
    const Link& l = net_.link(id);
    if (l.from() == node || l.to() == node) pairs.push_back(id);
  }
  return pairs;
}

void FaultInjector::trace(const sim::FaultSpec& spec, const char* name) {
  // TraceEvent::detail keeps the raw pointer for the life of the ring, so
  // it must be a static-lifetime string — passing a formatted spec's
  // c_str() here left dangling pointers in every fault trace, which made
  // sweep trace digests nondeterministic (caught by bench_chaos's jobs=1
  // vs jobs=N gate). The trace carries phase (via the event name) and kind
  // as literals; the full spec text is in the plan the run was given.
  net_.trace().instant(unites::TraceCategory::kNet, name, net_.scheduler().now(), 0, 0,
                       static_cast<double>(spec.link), sim::to_string(spec.kind));
}

void FaultInjector::apply_spec(LinkConfig& cfg, const sim::FaultSpec& spec) {
  switch (spec.kind) {
    case sim::FaultKind::kBurstLoss:
      // Parameter group overwrite: among overlapping bursts the
      // latest-begun wins while active; earlier values reapply at its end.
      cfg.p_good_to_bad = spec.p_good_to_bad;
      cfg.p_bad_to_good = spec.p_bad_to_good;
      cfg.burst_error_rate = spec.burst_error_rate;
      break;
    case sim::FaultKind::kLatencySpike:
      cfg.propagation_delay = cfg.propagation_delay + spec.extra_delay;  // additive
      break;
    case sim::FaultKind::kBandwidthDrop:
      cfg.bandwidth = sim::Rate::bps(cfg.bandwidth.bits_per_sec() * spec.bandwidth_factor);
      break;
    case sim::FaultKind::kWireMutate:
      cfg.corrupt_probability = std::max(cfg.corrupt_probability, spec.corrupt_p);
      cfg.duplicate_probability = std::max(cfg.duplicate_probability, spec.duplicate_p);
      cfg.reorder_probability = std::max(cfg.reorder_probability, spec.reorder_p);
      cfg.truncate_probability = std::max(cfg.truncate_probability, spec.truncate_p);
      break;
    default:
      break;  // outage kinds never reach the config fold
  }
}

void FaultInjector::reapply(Link& l) {
  LinkConfig cfg = baseline_.at(l.id());
  for (const auto& ep : active_[l.id()]) apply_spec(cfg, ep.spec);
  l.set_config(cfg);
}

void FaultInjector::begin_episode(const Scheduled& e) {
  if (is_outage_kind(e.spec.kind)) {
    const Network::RouteBatch batch(net_);  // one route computation for all pairs
    for (const LinkId fwd : e.pairs) net_.hold_pair_down(fwd);
  } else {
    for (const LinkId fwd : e.pairs) {
      for (Link* l : {&net_.link(fwd), &net_.link(fwd ^ 1u)}) {
        baseline_.try_emplace(l->id(), l->config());  // first fault keeps baseline
        active_[l->id()].push_back({e.episode, e.spec});
        reapply(*l);
      }
    }
  }
  ++stats_.episodes_started;
  trace(e.spec, "net.fault.begin");
}

void FaultInjector::end_episode(const Scheduled& e) {
  if (is_outage_kind(e.spec.kind)) {
    const Network::RouteBatch batch(net_);
    for (const LinkId fwd : e.pairs) net_.release_pair(fwd);
  } else {
    for (const LinkId fwd : e.pairs) {
      for (Link* l : {&net_.link(fwd), &net_.link(fwd ^ 1u)}) {
        const auto it = active_.find(l->id());
        std::erase_if(it->second, [&e](const ActiveEpisode& ep) { return ep.id == e.episode; });
        reapply(*l);
        if (it->second.empty()) {  // back to pristine: forget the baseline
          active_.erase(it);
          baseline_.erase(l->id());
        }
      }
    }
  }
  ++stats_.episodes_ended;
  trace(e.spec, "net.fault.end");
}

}  // namespace adaptive::net
