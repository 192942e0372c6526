#include "net/fault_injector.hpp"

#include "unites/trace.hpp"

#include <algorithm>

namespace adaptive::net {

namespace {

bool is_config_kind(sim::FaultKind k) {
  return k == sim::FaultKind::kBurstLoss || k == sim::FaultKind::kLatencySpike ||
         k == sim::FaultKind::kBandwidthDrop || k == sim::FaultKind::kWireMutate;
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

FaultInjector::~FaultInjector() {
  for (auto& h : scheduled_) h.cancel();
}

void FaultInjector::arm(const sim::FaultPlan& plan) {
  for (const auto& spec : plan.faults) {
    if (is_mobility_kind(spec.kind)) continue;
    schedule(spec);
  }
}

void FaultInjector::schedule(const sim::FaultSpec& spec) {
  auto& sched = net_.scheduler();
  const std::uint32_t episodes = spec.kind == sim::FaultKind::kLinkFlap ? spec.count : 1;
  for (std::uint32_t i = 0; i < episodes; ++i) {
    const std::uint64_t episode = next_episode_++;
    const sim::SimTime start = spec.at + spec.period * static_cast<std::int64_t>(i);
    scheduled_.push_back(
        sched.schedule_after(start, [this, spec, episode] { begin_episode(spec, episode); }));
    scheduled_.push_back(sched.schedule_after(
        start + spec.duration, [this, spec, episode] { end_episode(spec, episode); }));
  }
}

std::vector<Link*> FaultInjector::target_links(const sim::FaultSpec& spec) {
  if (spec.link >= scenario_links_.size()) {
    ++stats_.unresolved_targets;
    return {};
  }
  const LinkId fwd = scenario_links_[spec.link];
  // connect() creates pairs adjacently: forward even, reverse = fwd ^ 1.
  return {&net_.link(fwd), &net_.link(fwd ^ 1u)};
}

std::vector<LinkId> FaultInjector::node_link_pairs(const sim::FaultSpec& spec) {
  if (spec.node >= hosts_.size()) {
    ++stats_.unresolved_targets;
    return {};
  }
  const NodeId node = hosts_[spec.node];
  std::vector<LinkId> pairs;
  for (LinkId id = 0; id + 1 < net_.link_count(); id += 2) {
    const Link& l = net_.link(id);
    if (l.from() == node || l.to() == node) pairs.push_back(id);
  }
  return pairs;
}

void FaultInjector::record(const sim::FaultSpec& spec, const char* phase) {
  net_.monitor().record(NetEventKind::kFault);
  // TraceEvent::detail keeps the raw pointer for the life of the ring, so
  // it must be a static-lifetime string — passing a formatted spec's
  // c_str() here left dangling pointers in every fault trace, which made
  // sweep trace digests nondeterministic (caught by bench_chaos's jobs=1
  // vs jobs=N gate). The trace carries phase (via the event name) and kind
  // as literals; the full spec text is in the plan the run was given.
  const bool begin = phase[0] == 'b';
  unites::trace().instant(unites::TraceCategory::kNet,
                          begin ? "net.fault.begin" : "net.fault.end", net_.scheduler().now(), 0,
                          0, static_cast<double>(spec.link), sim::to_string(spec.kind));
}

void FaultInjector::take_pair_down(LinkId fwd) {
  if (down_count_[fwd]++ == 0) net_.set_link_pair_up(fwd, false);
}

void FaultInjector::release_pair(LinkId fwd) {
  const auto it = down_count_.find(fwd);
  if (it == down_count_.end()) return;
  if (--it->second == 0) {
    down_count_.erase(it);
    net_.set_link_pair_up(fwd, true);  // no outage window covers it any more
  }
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

void FaultInjector::begin_episode(const sim::FaultSpec& spec, std::uint64_t episode) {
  switch (spec.kind) {
    case sim::FaultKind::kLinkDown:
    case sim::FaultKind::kLinkFlap: {
      if (spec.link >= scenario_links_.size()) {
        ++stats_.unresolved_targets;
        return;
      }
      take_pair_down(scenario_links_[spec.link]);
      break;
    }
    case sim::FaultKind::kPartition: {
      const auto pairs = node_link_pairs(spec);
      if (pairs.empty()) return;
      for (const LinkId id : pairs) take_pair_down(id);
      break;
    }
    default: {  // config-mutating kinds
      const auto links = target_links(spec);
      if (links.empty()) return;
      for (Link* l : links) {
        baseline_.try_emplace(l->id(), l->config());  // first fault keeps baseline
        active_[l->id()].push_back({episode, spec});
        reapply(*l);
      }
      break;
    }
  }
  ++stats_.episodes_started;
  record(spec, "begin");
}

void FaultInjector::end_episode(const sim::FaultSpec& spec, std::uint64_t episode) {
  switch (spec.kind) {
    case sim::FaultKind::kLinkDown:
    case sim::FaultKind::kLinkFlap: {
      if (spec.link >= scenario_links_.size()) return;
      release_pair(scenario_links_[spec.link]);
      break;
    }
    case sim::FaultKind::kPartition: {
      const auto pairs = node_link_pairs(spec);
      if (pairs.empty()) return;
      for (const LinkId id : pairs) release_pair(id);
      break;
    }
    default: {
      if (!is_config_kind(spec.kind)) break;
      const auto links = target_links(spec);
      for (Link* l : links) {
        auto it = active_.find(l->id());
        if (it == active_.end()) continue;
        std::erase_if(it->second, [episode](const ActiveEpisode& ep) { return ep.id == episode; });
        reapply(*l);
        if (it->second.empty()) {  // back to pristine: forget the baseline
          active_.erase(it);
          baseline_.erase(l->id());
        }
      }
      break;
    }
  }
  ++stats_.episodes_ended;
  record(spec, "end");
}

}  // namespace adaptive::net
