#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>

namespace adaptive::sim {

namespace {

/// Clamp a window so it closes by `limit` seconds: slide the start back
/// (never below 0.05s) rather than shrinking the impairment.
void fit_window(FaultSpec& spec, double total_sec, double limit) {
  if (spec.at.sec() + total_sec > limit) {
    spec.at = SimTime::seconds(std::max(0.05, limit - total_sec));
  }
}

}  // namespace

FaultPlan ChaosPlanGenerator::generate(std::uint64_t seed) const {
  // Pure derivation: the plan depends only on (profile, seed), never on
  // who else forked what first — see kChaosStream and Rng::fork(stream).
  Rng rng = Rng(seed).fork(kChaosStream);

  const double horizon = std::max(1.0, profile_.horizon_sec);
  const double limit = 0.85 * horizon;  // leave the tail free for recovery
  const double outage_cap = std::clamp(profile_.max_outage_sec, 0.1, limit);
  const std::size_t links = std::max<std::size_t>(1, profile_.link_count);

  const std::size_t lo = std::max<std::size_t>(1, std::min(profile_.min_faults, profile_.max_faults));
  const std::size_t hi = std::max(lo, profile_.max_faults);
  const std::size_t n = rng.uniform_int(lo, hi);

  FaultPlan plan;
  plan.faults.reserve(n);
  // `max_faults == 0` means a pure-mobility plan: skip link impairments
  // entirely instead of forcing the historical floor of one.
  for (std::size_t i = 0; profile_.max_faults > 0 && i < n; ++i) {
    FaultSpec spec;
    spec.link = rng.uniform_int(0, links - 1);
    spec.at = SimTime::seconds(rng.uniform(0.1, std::max(0.2, 0.7 * horizon)));

    const std::uint64_t kind = rng.uniform_int(0, 5);
    switch (kind) {
      case 0: {  // single outage
        spec.kind = FaultKind::kLinkDown;
        const double dur = rng.uniform(0.05, outage_cap);
        spec.duration = SimTime::seconds(dur);
        fit_window(spec, dur, limit);
        break;
      }
      case 1: {  // flapping link; periods may overlap the outage itself
        spec.kind = FaultKind::kLinkFlap;
        spec.count = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
        const double dur = rng.uniform(0.05, 0.5 * outage_cap);
        const double period = rng.uniform(0.1, 1.0);
        spec.duration = SimTime::seconds(dur);
        spec.period = SimTime::seconds(period);
        fit_window(spec, period * (spec.count - 1) + dur, limit);
        break;
      }
      case 2: {  // Gilbert-Elliott burst corruption
        spec.kind = FaultKind::kBurstLoss;
        spec.burst_error_rate = std::pow(10.0, rng.uniform(-5.0, -3.5));
        spec.p_good_to_bad = rng.uniform(0.02, 0.1);
        spec.p_bad_to_good = rng.uniform(0.2, 0.5);
        const double dur = rng.uniform(0.3, std::max(0.5, 0.4 * horizon));
        spec.duration = SimTime::seconds(dur);
        fit_window(spec, dur, limit);
        break;
      }
      case 3: {  // latency spike
        spec.kind = FaultKind::kLatencySpike;
        spec.extra_delay = SimTime::seconds(rng.uniform(0.005, 0.12));
        const double dur = rng.uniform(0.3, 2.0);
        spec.duration = SimTime::seconds(dur);
        fit_window(spec, dur, limit);
        break;
      }
      case 4: {  // bandwidth drop
        spec.kind = FaultKind::kBandwidthDrop;
        spec.bandwidth_factor = rng.uniform(0.15, 0.7);
        const double dur = rng.uniform(0.3, 2.0);
        spec.duration = SimTime::seconds(dur);
        fit_window(spec, dur, limit);
        break;
      }
      case 5: {  // adversarial wire mutations
        spec.kind = FaultKind::kWireMutate;
        spec.corrupt_p = rng.uniform(0.002, 0.05);
        spec.duplicate_p = rng.uniform(0.0, 0.1);
        spec.reorder_p = rng.uniform(0.0, 0.15);
        spec.truncate_p = rng.uniform(0.0, 0.02);
        const double dur = rng.uniform(0.5, std::max(0.8, 0.5 * horizon));
        spec.duration = SimTime::seconds(dur);
        fit_window(spec, dur, limit);
        break;
      }
    }
    plan.faults.push_back(spec);
  }

  // Mobility events ride after the impairment draws so profiles without a
  // mobility plane reproduce their historical plans byte-for-byte.
  //
  // Handovers land on a jittered slot grid: one transition per slot, each
  // confined to the first quarter of its slot, so windows can never
  // overlap (the parser rejects contradictory windows, and a generated
  // plan must always replay cleanly).
  if (profile_.attachment_count > 1 && profile_.max_handovers > 0) {
    const std::size_t n_ho = rng.uniform_int(1, profile_.max_handovers);
    const double first = 0.15 * horizon;
    const double span = std::max(0.5, limit - first);
    std::size_t current = 0;
    for (std::size_t i = 0; i < n_ho; ++i) {
      const double width = span / static_cast<double>(n_ho);
      const double slot = first + width * static_cast<double>(i);
      FaultSpec spec;
      spec.kind = FaultKind::kHandover;
      spec.node = profile_.mobile_host;
      spec.at = SimTime::seconds(rng.uniform(slot, slot + 0.25 * width));
      spec.duration =
          SimTime::seconds(std::min(rng.uniform(0.02, 0.08), 0.25 * width));
      // Always move somewhere else; with two attachments this ping-pongs.
      std::size_t to = rng.uniform_int(0, profile_.attachment_count - 2);
      if (to >= current) ++to;
      spec.to_attachment = to;
      current = to;
      spec.make_before_break = rng.uniform_int(0, 1) == 0;
      plan.faults.push_back(spec);
    }
  }

  // Membership churn: round-robin over the churn hosts, each alternating
  // leave -> rejoin (churn hosts start as group members). The slot grid
  // keeps every host's events strictly ordered in time, so a leave always
  // precedes its rejoin and no join/leave pair collides at one instant.
  if (profile_.churn_host_count > 0 && profile_.max_membership_events > 0) {
    const std::size_t n_ev = rng.uniform_int(1, profile_.max_membership_events);
    const double first = 0.15 * horizon;
    const double span = std::max(0.5, limit - first);
    std::vector<bool> member(profile_.churn_host_count, true);
    for (std::size_t i = 0; i < n_ev; ++i) {
      const double width = span / static_cast<double>(n_ev);
      const double slot = first + width * static_cast<double>(i);
      const std::size_t h = i % profile_.churn_host_count;
      FaultSpec spec;
      spec.kind = member[h] ? FaultKind::kGroupLeave : FaultKind::kGroupJoin;
      member[h] = !member[h];
      spec.node = profile_.churn_host_base + h;
      spec.at = SimTime::seconds(rng.uniform(slot, slot + 0.8 * width));
      spec.duration = SimTime::seconds(0.05);  // instants; duration unused
      plan.faults.push_back(spec);
    }
  }
  return plan;
}

}  // namespace adaptive::sim
