// Canned topologies mirroring the network environments the paper surveys
// (Section 2.1): Ethernet LAN, FDDI ring, congestion-prone Internet-style
// WAN, ATM/B-ISDN WAN, and a dual-path WAN whose backup route is a
// satellite link (the Section 3 route-change scenario).
//
// BER constants follow the paper's copper-vs-fiber distinction, scaled so a
// 1500-byte packet sees a measurable but sub-100% corruption probability.
//
// Each builder runs inside a Network::RouteBatch, so a built topology has
// cost exactly one route computation.
#pragma once

#include "net/network.hpp"

#include <memory>
#include <vector>

namespace adaptive::net {

inline constexpr double kCopperBer = 1e-6;  // "copper": ~1.2% corruption per 1500B packet
inline constexpr double kFiberBer = 1e-9;   // "fiber": ~1e-5 per packet

struct Topology {
  std::unique_ptr<Network> network;
  std::vector<NodeId> hosts;
  std::vector<NodeId> switches;
  /// Links whose failure/recovery drives route-change scenarios (forward
  /// ids of bidirectional pairs), in topology-specific order.
  std::vector<LinkId> scenario_links;
  /// Mobility topologies: candidate attachment links for the mobile host
  /// (forward ids; index 0 is the initial home — the rest start down).
  /// Empty for fixed topologies.
  std::vector<LinkId> attachments;
  /// Index into `hosts` of the host that moves between attachments.
  std::size_t mobile_host = 0;
};

/// Hosts on a single switch; 10 Mbps, MTU 1500, 5 us propagation.
[[nodiscard]] Topology make_ethernet_lan(sim::EventScheduler& sched, std::size_t n_hosts,
                                         std::uint64_t seed = 1);

/// Ring of switches, one host each; 100 Mbps, MTU 4500, fiber BER.
[[nodiscard]] Topology make_fddi_ring(sim::EventScheduler& sched, std::size_t n_hosts,
                                      std::uint64_t seed = 1);

/// Two LANs joined by a 1.5 Mbps, 30 ms, small-queue backbone — the
/// "congestion-prone, high-latency WAN (e.g. the current Internet)".
[[nodiscard]] Topology make_congested_wan(sim::EventScheduler& sched, std::size_t hosts_per_side,
                                          std::uint64_t seed = 1);

/// Two sites joined by a 155 Mbps, 10 ms fiber backbone — the
/// "high-bandwidth, high-latency WAN (e.g. ATM-based B-ISDN)".
[[nodiscard]] Topology make_atm_wan(sim::EventScheduler& sched, std::size_t hosts_per_side,
                                    std::uint64_t seed = 1, sim::Rate backbone = sim::Rate::mbps(155));

/// Source and sink connected by two disjoint routes: a terrestrial path
/// (10 ms) and a satellite path (250 ms). scenario_links[0] is the
/// terrestrial backbone; failing it reroutes traffic over the satellite.
[[nodiscard]] Topology make_dual_path_wan(sim::EventScheduler& sched, std::uint64_t seed = 1);

/// A two-level switch tree with `n_hosts` leaves — multicast experiments;
/// shared trunk links make replication savings visible.
[[nodiscard]] Topology make_multicast_campus(sim::EventScheduler& sched, std::size_t n_hosts,
                                             std::uint64_t seed = 1);

/// Mobility WAN: a mobile host with one attachment link per "cell" edge
/// switch (heterogeneous rate/delay, only attachments[0] up at start), a
/// correspondent host on the core, and `extra_hosts` member hosts spread
/// over the edges for group-churn scenarios. scenario_links are the
/// edge->core trunks; a MobilityController flips the attachment links.
[[nodiscard]] Topology make_mobile_wan(sim::EventScheduler& sched, std::size_t n_attachments,
                                       std::size_t extra_hosts, std::uint64_t seed = 1);

}  // namespace adaptive::net
