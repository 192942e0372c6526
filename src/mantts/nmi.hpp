// MANTTS Network Monitor Interface (MANTTS-NMI, Section 4.1.1).
//
// Maintains the *network state descriptor*: a sampled, per-path estimate of
// the static and dynamic network characteristics Stage II reconciles the
// TSC against, and which the reconfiguration policies watch. In a
// deployment this comes from management agents and in-band probes; in the
// simulator it is sampled from the Network's own state — the same numbers
// a probe would measure, without probe traffic perturbing small
// experiments.
#pragma once

#include "net/network.hpp"
#include "tko/sa/rtt_estimator.hpp"

#include <map>
#include <vector>

namespace adaptive::mantts {

struct NetworkStateDescriptor {
  sim::SimTime rtt = sim::SimTime::zero();
  sim::Rate bottleneck = sim::Rate::bps(0);
  std::size_t mtu = 0;
  double bit_error_rate = 0.0;
  double congestion = 0.0;      ///< worst queue utilization on the path, [0,1]
  double recent_loss_rate = 0.0;
  std::uint64_t route_version = 0;  ///< bumps when the path node-list changes
  bool reachable = false;
  /// The path is in a fault episode: unreachable, losing a large fraction
  /// of packets, saturated, or crossing a worst-case-BER line. MANTTS
  /// recovery machinery keys off transitions of this bit (fault detected /
  /// recovered) rather than re-deriving thresholds per policy.
  bool degraded = false;
};

/// Degraded-state thresholds (see NetworkStateDescriptor::degraded).
inline constexpr double kDegradedLossRate = 0.15;
inline constexpr double kDegradedCongestion = 0.95;
inline constexpr double kDegradedBer = 1e-5;

class NetworkMonitorInterface {
public:
  NetworkMonitorInterface(net::Network& network, net::NodeId local);

  /// Fresh snapshot of the path to `remote` (multicast destinations use
  /// the farthest member for RTT and the tightest MTU).
  [[nodiscard]] NetworkStateDescriptor sample(net::NodeId remote);

  /// Feed a measured round-trip sample from an in-band PROBE exchange
  /// (MANTTS entities probe over the signaling channel). Once a remote has
  /// probe samples, sample() reports the measured smoothed RTT instead of
  /// the topology-derived idle estimate — measurement, not oracle.
  void record_probe_rtt(net::NodeId remote, sim::SimTime rtt);

  /// Number of probe samples recorded for `remote`.
  [[nodiscard]] std::uint32_t probe_samples(net::NodeId remote) const;

  [[nodiscard]] net::NodeId local() const { return local_; }

private:
  [[nodiscard]] NetworkStateDescriptor sample_unicast(net::NodeId remote);

  net::Network& net_;
  net::NodeId local_;
  std::map<net::NodeId, tko::sa::RttEstimator> probe_rtt_;
  std::map<net::NodeId, std::vector<net::NodeId>> last_path_;
  std::map<net::NodeId, std::uint64_t> route_version_;
};

}  // namespace adaptive::mantts
