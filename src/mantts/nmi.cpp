#include "mantts/nmi.hpp"

#include <algorithm>

namespace adaptive::mantts {

NetworkMonitorInterface::NetworkMonitorInterface(net::Network& network, net::NodeId local)
    : net_(network), local_(local) {}

NetworkStateDescriptor NetworkMonitorInterface::sample_unicast(net::NodeId remote) {
  NetworkStateDescriptor d;
  const auto path = net_.path(local_, remote);
  d.reachable = !path.empty();
  if (!d.reachable) {
    d.degraded = true;
    return d;
  }
  // Prefer the measured (probe) RTT over the idle topology estimate: a
  // probe sees queueing the idle formula cannot.
  auto probe = probe_rtt_.find(remote);
  if (probe != probe_rtt_.end() && probe->second.has_sample()) {
    d.rtt = probe->second.srtt();
  } else {
    d.rtt =
        net_.path_idle_latency(local_, remote, 64) + net_.path_idle_latency(remote, local_, 64);
  }
  d.bottleneck = net_.path_bottleneck(local_, remote);
  d.mtu = net_.path_mtu(local_, remote);
  d.bit_error_rate = net_.path_bit_error_rate(local_, remote);
  d.congestion = net_.path_congestion(local_, remote);
  d.recent_loss_rate = net_.monitor().recent_loss_rate();

  // Worst-case BER matters here, not the instantaneous one: corrupted
  // packets die at the session checksum, not in the network, so a burst
  // episode never shows up in recent_loss_rate — only in the link's
  // Gilbert-Elliott parameters.
  d.degraded = d.recent_loss_rate >= kDegradedLossRate ||
               d.congestion >= kDegradedCongestion || d.bit_error_rate >= kDegradedBer;

  auto& last = last_path_[remote];
  if (last != path) {
    last = path;
    ++route_version_[remote];
  }
  d.route_version = route_version_[remote];
  return d;
}

NetworkStateDescriptor NetworkMonitorInterface::sample(net::NodeId remote) {
  if (!net::is_multicast(remote)) return sample_unicast(remote);
  // Multicast: aggregate over the members — the worst RTT, tightest MTU,
  // worst BER/congestion govern the configuration.
  NetworkStateDescriptor agg;
  // A fault anywhere in the group degrades the aggregate: the worst
  // member governs the configuration, and an unreachable member is the
  // worst of all.
  bool any_degraded = false;
  for (const net::NodeId m : net_.group_members(remote)) {
    if (m == local_) continue;
    const auto d = sample_unicast(m);
    any_degraded = any_degraded || d.degraded;
    if (!d.reachable) continue;
    agg.reachable = true;
    agg.rtt = std::max(agg.rtt, d.rtt);
    if (agg.mtu == 0 || d.mtu < agg.mtu) agg.mtu = d.mtu;
    if (agg.bottleneck.bits_per_sec() == 0.0 || d.bottleneck < agg.bottleneck) {
      agg.bottleneck = d.bottleneck;
    }
    agg.bit_error_rate = std::max(agg.bit_error_rate, d.bit_error_rate);
    agg.congestion = std::max(agg.congestion, d.congestion);
    agg.recent_loss_rate = std::max(agg.recent_loss_rate, d.recent_loss_rate);
    agg.route_version += d.route_version;
  }
  agg.degraded = any_degraded || !agg.reachable;
  return agg;
}

void NetworkMonitorInterface::record_probe_rtt(net::NodeId remote, sim::SimTime rtt) {
  probe_rtt_[remote].sample(rtt);
}

std::uint32_t NetworkMonitorInterface::probe_samples(net::NodeId remote) const {
  auto it = probe_rtt_.find(remote);
  return it == probe_rtt_.end() ? 0 : it->second.samples();
}

}  // namespace adaptive::mantts
