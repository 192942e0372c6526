// Unit and integration tests for the network simulator: links, switches,
// routing, multicast, failures, monitoring, and background traffic.
#include "net/background_traffic.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace adaptive::net {
namespace {

Packet make_packet(Address src, Address dst, std::size_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = tko::Message::filled(bytes, 0xAA);
  return p;
}

class TwoHostFixture : public ::testing::Test {
protected:
  void SetUp() override {
    net = std::make_unique<Network>(sched, 42);
    a = net->add_host("a");
    b = net->add_host("b");
    sw = net->add_switch("sw");
    LinkConfig cfg;
    cfg.bandwidth = sim::Rate::mbps(10);
    cfg.propagation_delay = sim::SimTime::microseconds(10);
    cfg.queue_capacity_packets = 4;
    std::tie(l_a_sw, std::ignore) = net->connect(a, sw, cfg);
    std::tie(l_sw_b, std::ignore) = net->connect(sw, b, cfg);
  }

  sim::EventScheduler sched;
  std::unique_ptr<Network> net;
  NodeId a = 0, b = 0, sw = 0;
  LinkId l_a_sw = 0, l_sw_b = 0;
};

TEST_F(TwoHostFixture, DeliversThroughSwitch) {
  std::vector<Packet> got;
  net->set_host_rx(b, [&](Packet&& p) { got.push_back(std::move(p)); });
  net->inject(make_packet({a, 1}, {b, 2}, 500));
  sched.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst.node, b);
  EXPECT_EQ(got[0].payload.size(), 500u);
  EXPECT_EQ(got[0].hop_count, 1u);  // one switch traversed
}

TEST_F(TwoHostFixture, DeliveryLatencyMatchesLinkMath) {
  sim::SimTime arrival = sim::SimTime::zero();
  net->set_host_rx(b, [&](Packet&&) { arrival = sched.now(); });
  net->inject(make_packet({a, 1}, {b, 2}, 972));  // 972+28 = 1000 wire bytes
  sched.run();
  // Two links: each 800us serialization + 10us propagation, + 2us switch.
  const auto expect = sim::SimTime::microseconds(2 * (800 + 10) + 2);
  EXPECT_EQ(arrival, expect);
}

TEST_F(TwoHostFixture, QueueOverflowDropsAndCounts) {
  int got = 0;
  net->set_host_rx(b, [&](Packet&&) { ++got; });
  // Queue capacity 4 on a->sw; burst 10 back-to-back: 1 in service + 4
  // queued survive.
  for (int i = 0; i < 10; ++i) net->inject(make_packet({a, 1}, {b, 2}, 1000));
  sched.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(net->link(l_a_sw).stats().queue_drops, 5u);
  EXPECT_EQ(net->monitor().total_drops(), 5u);
  EXPECT_EQ(net->monitor().total_deliveries(), 5u);
}

TEST_F(TwoHostFixture, MtuExceededDrops) {
  int got = 0;
  net->set_host_rx(b, [&](Packet&&) { ++got; });
  net->inject(make_packet({a, 1}, {b, 2}, 2000));  // default MTU 1500
  sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(net->link(l_a_sw).stats().mtu_drops, 1u);
}

TEST_F(TwoHostFixture, UnroutableDestinationDropsAtInjection) {
  const NodeId isolated = net->add_host("island");
  net->recompute_routes();
  int got = 0;
  net->set_host_rx(isolated, [&](Packet&&) { ++got; });
  net->inject(make_packet({a, 1}, {isolated, 2}, 100));
  sched.run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(net->monitor().total_drops(), 1u);
}

TEST_F(TwoHostFixture, LinkDownDropsAndRecovers) {
  int got = 0;
  net->set_host_rx(b, [&](Packet&&) { ++got; });
  net->set_link_pair_up(l_sw_b, false);
  net->inject(make_packet({a, 1}, {b, 2}, 100));
  sched.run();
  EXPECT_EQ(got, 0);
  net->set_link_pair_up(l_sw_b, true);
  net->inject(make_packet({a, 1}, {b, 2}, 100));
  sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Link, BitErrorsCorruptPayload) {
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bit_error_rate = 1e-3;  // every packet essentially guaranteed corrupted
  net.connect(a, b, cfg);
  int corrupted = 0, total = 0;
  net.set_host_rx(b, [&](Packet&& p) {
    ++total;
    if (p.bit_error) ++corrupted;
  });
  for (int i = 0; i < 50; ++i) net.inject(make_packet({a, 1}, {b, 2}, 1000));
  sched.run();
  EXPECT_EQ(total, 50);
  EXPECT_GT(corrupted, 45);
}

TEST(Link, CleanLinkNeverCorrupts) {
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bit_error_rate = 0.0;
  net.connect(a, b, cfg);
  int corrupted = 0;
  net.set_host_rx(b, [&](Packet&& p) { corrupted += p.bit_error ? 1 : 0; });
  for (int i = 0; i < 50; ++i) net.inject(make_packet({a, 1}, {b, 2}, 1000));
  sched.run();
  EXPECT_EQ(corrupted, 0);
}

TEST(Link, GilbertElliottBurstsClusterErrors) {
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bit_error_rate = 0.0;        // clean in the good state
  cfg.p_good_to_bad = 0.02;
  cfg.p_bad_to_good = 0.25;
  cfg.burst_error_rate = 1e-3;     // near-certain corruption while bad
  cfg.queue_capacity_packets = 2500;  // the whole batch must traverse
  net.connect(a, b, cfg);

  std::vector<bool> corrupted;
  net.set_host_rx(b, [&](Packet&& p) { corrupted.push_back(p.bit_error); });
  for (int i = 0; i < 2000; ++i) net.inject(make_packet({a, 1}, {b, 2}, 1000));
  sched.run();

  std::size_t errors = 0, runs = 0;
  for (std::size_t i = 0; i < corrupted.size(); ++i) {
    if (corrupted[i]) {
      ++errors;
      if (i == 0 || !corrupted[i - 1]) ++runs;
    }
  }
  ASSERT_GT(errors, 50u);
  // Bursty: mean run length clearly above 1 (independent errors at the
  // same marginal rate would give runs ~= errors).
  const double mean_run = static_cast<double>(errors) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 2.0);
  EXPECT_GT(net.link(0).stats().bad_state_packets, 100u);
}

TEST(Link, BurstModelDisabledByDefault) {
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  net.connect(a, b, LinkConfig{});
  int got = 0;
  net.set_host_rx(b, [&](Packet&&) { ++got; });
  for (int i = 0; i < 20; ++i) net.inject(make_packet({a, 1}, {b, 2}, 500));
  sched.run();
  EXPECT_EQ(got, 20);
  EXPECT_EQ(net.link(0).stats().bad_state_packets, 0u);
}

TEST(Link, SerializationQueuesBackToBack) {
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(8);  // 1000B wire -> 1ms each
  cfg.propagation_delay = sim::SimTime::zero();
  net.connect(a, b, cfg);
  std::vector<sim::SimTime> arrivals;
  net.set_host_rx(b, [&](Packet&&) { arrivals.push_back(sched.now()); });
  for (int i = 0; i < 3; ++i) net.inject(make_packet({a, 1}, {b, 2}, 972));
  sched.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::SimTime::milliseconds(1));
  EXPECT_EQ(arrivals[1], sim::SimTime::milliseconds(2));
  EXPECT_EQ(arrivals[2], sim::SimTime::milliseconds(3));
}

TEST(Routing, ShortestPathPrefersFastLinks) {
  sim::EventScheduler sched;
  Network net(sched, 1);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s1 = net.add_switch("s1");
  const NodeId s2 = net.add_switch("s2");
  LinkConfig fast;
  fast.bandwidth = sim::Rate::mbps(100);
  fast.propagation_delay = sim::SimTime::microseconds(10);
  LinkConfig slow;
  slow.bandwidth = sim::Rate::mbps(1);
  slow.propagation_delay = sim::SimTime::milliseconds(5);
  // a - s1 - b (fast) and a - s2 - b (slow)
  net.connect(a, s1, fast);
  net.connect(s1, b, fast);
  net.connect(a, s2, slow);
  net.connect(s2, b, slow);
  const auto path = net.path(a, b);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], s1);
}

TEST(Routing, FailoverToBackupPath) {
  sim::EventScheduler sched;
  auto topo = make_dual_path_wan(sched);
  auto& net = *topo.network;
  const NodeId src = topo.hosts[0], dst = topo.hosts[1];

  auto p1 = net.path(src, dst);
  ASSERT_EQ(p1.size(), 4u);  // src, pop-a, pop-b, dst (terrestrial)
  const auto lat_before = net.path_idle_latency(src, dst, 1000);

  net.set_link_pair_up(topo.scenario_links[0], false);  // kill terrestrial
  auto p2 = net.path(src, dst);
  ASSERT_EQ(p2.size(), 5u);  // via satellite switch
  const auto lat_after = net.path_idle_latency(src, dst, 1000);
  EXPECT_GT(lat_after, lat_before + sim::SimTime::milliseconds(200));

  // And traffic actually flows over the new route.
  int got = 0;
  net.set_host_rx(dst, [&](Packet&&) { ++got; });
  net.inject(make_packet({src, 1}, {dst, 2}, 500));
  sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Routing, PathMtuIsBottleneckMinimum) {
  sim::EventScheduler sched;
  Network net(sched, 1);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId s = net.add_switch("s");
  LinkConfig big;
  big.mtu_bytes = 9000;
  LinkConfig small;
  small.mtu_bytes = 576;
  net.connect(a, s, big);
  net.connect(s, b, small);
  EXPECT_EQ(net.path_mtu(a, b), 576u);
  EXPECT_EQ(net.path_mtu(b, a), 576u);
}

TEST(Routing, PathBottleneckBandwidth) {
  sim::EventScheduler sched;
  auto topo = make_congested_wan(sched, 1);
  auto& net = *topo.network;
  const auto r = net.path_bottleneck(topo.hosts[0], topo.hosts[1]);
  EXPECT_DOUBLE_EQ(r.mbits_per_sec(), 1.5);
}

TEST(Multicast, TreeDeliversToAllMembersOnce) {
  sim::EventScheduler sched;
  auto topo = make_multicast_campus(sched, 8);
  auto& net = *topo.network;
  const NodeId g = net.create_group();
  for (std::size_t i = 1; i < topo.hosts.size(); ++i) net.join_group(g, topo.hosts[i]);

  std::map<NodeId, int> got;
  for (std::size_t i = 0; i < topo.hosts.size(); ++i) {
    const NodeId h = topo.hosts[i];
    net.set_host_rx(h, [&got, h](Packet&&) { ++got[h]; });
  }
  Packet p = make_packet({topo.hosts[0], 1}, {g, 2}, 400);
  net.inject(std::move(p));
  sched.run();
  EXPECT_EQ(got.size(), 7u);  // everyone but the sender
  for (const auto& [h, n] : got) {
    EXPECT_EQ(n, 1) << "host " << h;
    EXPECT_NE(h, topo.hosts[0]);
  }
}

TEST(Multicast, SharedTrunkCarriesOneCopy) {
  sim::EventScheduler sched;
  auto topo = make_multicast_campus(sched, 8);
  auto& net = *topo.network;
  const NodeId g = net.create_group();
  // All members hang off remote edge switches; the sender's access path
  // and each trunk should carry exactly one copy.
  for (std::size_t i = 1; i < topo.hosts.size(); ++i) net.join_group(g, topo.hosts[i]);
  net.inject(make_packet({topo.hosts[0], 1}, {g, 2}, 400));
  sched.run();
  std::uint64_t max_tx_on_trunk = 0;
  for (const LinkId l : topo.scenario_links) {
    max_tx_on_trunk = std::max(max_tx_on_trunk, net.link(l).stats().tx_packets);
  }
  EXPECT_EQ(max_tx_on_trunk, 1u);
}

TEST(Multicast, LeaveStopsDelivery) {
  sim::EventScheduler sched;
  auto topo = make_multicast_campus(sched, 4);
  auto& net = *topo.network;
  const NodeId g = net.create_group();
  net.join_group(g, topo.hosts[1]);
  net.join_group(g, topo.hosts[2]);
  std::map<NodeId, int> got;
  for (const NodeId h : topo.hosts) net.set_host_rx(h, [&got, h](Packet&&) { ++got[h]; });

  net.inject(make_packet({topo.hosts[0], 1}, {g, 2}, 100));
  sched.run();
  EXPECT_EQ(got[topo.hosts[1]], 1);
  EXPECT_EQ(got[topo.hosts[2]], 1);

  net.leave_group(g, topo.hosts[1]);
  net.inject(make_packet({topo.hosts[0], 1}, {g, 2}, 100));
  sched.run();
  EXPECT_EQ(got[topo.hosts[1]], 1);  // unchanged
  EXPECT_EQ(got[topo.hosts[2]], 2);
}

TEST(Broadcast, AllHostsGroupReachesEveryHost) {
  sim::EventScheduler sched;
  auto topo = make_multicast_campus(sched, 6);
  auto& net = *topo.network;
  std::map<NodeId, int> got;
  for (const NodeId h : topo.hosts) net.set_host_rx(h, [&got, h](Packet&&) { ++got[h]; });

  Packet p = make_packet({topo.hosts[2], 1}, {net.broadcast_address(), 2}, 100);
  net.inject(std::move(p));
  sched.run();
  // Every host except the sender hears the broadcast exactly once —
  // the "distributed name resolution" service of Section 2.1.
  EXPECT_EQ(got.size(), topo.hosts.size() - 1);
  for (const auto& [h, n] : got) {
    EXPECT_EQ(n, 1) << "host " << h;
    EXPECT_NE(h, topo.hosts[2]);
  }
}

TEST(Broadcast, NewHostsJoinAutomatically) {
  sim::EventScheduler sched;
  Network net(sched, 1);
  const auto a = net.add_host("a");
  const auto sw = net.add_switch("sw");
  LinkConfig cfg;
  net.connect(a, sw, cfg);
  const auto b = net.add_host("b");
  net.connect(b, sw, cfg);
  EXPECT_EQ(net.group_members(net.broadcast_address()).size(), 2u);
  int got = 0;
  net.set_host_rx(b, [&](Packet&&) { ++got; });
  net.inject(make_packet({a, 1}, {net.broadcast_address(), 2}, 64));
  sched.run();
  EXPECT_EQ(got, 1);
}

TEST(Multicast, GroupApiValidation) {
  MulticastGroups groups;
  const NodeId g = groups.create_group();
  EXPECT_TRUE(is_multicast(g));
  EXPECT_TRUE(groups.join(g, 3));
  EXPECT_FALSE(groups.join(g, 3));  // already a member
  EXPECT_TRUE(groups.is_member(g, 3));
  EXPECT_TRUE(groups.leave(g, 3));
  EXPECT_FALSE(groups.leave(g, 3));
  EXPECT_THROW(groups.join(999, 1), std::invalid_argument);
}

TEST(Monitor, RecentLossRateWindowed) {
  NetworkMonitor mon;
  EXPECT_EQ(mon.recent_loss_rate(), 0.0);
  for (int i = 0; i < 8; ++i) mon.record(NetEventKind::kDeliver);
  for (int i = 0; i < 2; ++i) mon.record(NetEventKind::kDrop);
  mon.record(NetEventKind::kRouteChange);  // not an outcome
  mon.record(NetEventKind::kFault);
  EXPECT_NEAR(mon.recent_loss_rate(), 0.2, 1e-9);
  // 254 more deliveries push the first 8 out: the window is the 2 drops
  // and the 254 deliveries.
  for (int i = 0; i < 254; ++i) mon.record(NetEventKind::kDeliver);
  EXPECT_NEAR(mon.recent_loss_rate(), 2.0 / 256.0, 1e-12);
  for (int i = 0; i < 2; ++i) mon.record(NetEventKind::kDeliver);
  EXPECT_EQ(mon.recent_loss_rate(), 0.0);
  EXPECT_EQ(mon.total_drops(), 2u);
  EXPECT_EQ(mon.total_deliveries(), 264u);
  EXPECT_EQ(mon.route_changes(), 1u);
  EXPECT_EQ(mon.faults(), 1u);
}

TEST(Monitor, RecentLossRateMatchesAScanOfTheLastOutcomes) {
  // Reference: keep every outcome and scan back over the last
  // kLossWindow of them, as the history-based monitor did.
  NetworkMonitor mon;
  std::vector<bool> outcomes;  // true = drop
  sim::Rng rng(2024);
  double drop_p = 0.0;
  double outcome_p = 1.0;
  for (int i = 0; i < 5000; ++i) {
    if (i % 250 == 0) {  // phases: clean, lossy, all-drop, mostly not outcomes
      drop_p = std::vector<double>{0.0, 0.05, 0.5, 1.0}[rng.uniform_int(0, 3)];
      outcome_p = rng.bernoulli(0.25) ? 0.1 : 0.95;
    }
    NetEventKind kind;
    if (rng.bernoulli(outcome_p)) {
      kind = rng.bernoulli(drop_p) ? NetEventKind::kDrop : NetEventKind::kDeliver;
      outcomes.push_back(kind == NetEventKind::kDrop);
    } else {
      kind = rng.bernoulli(0.5) ? NetEventKind::kRouteChange : NetEventKind::kFault;
    }
    mon.record(kind);
    std::uint64_t drops = 0;
    std::uint64_t total = 0;
    for (auto it = outcomes.rbegin();
         it != outcomes.rend() && total < NetworkMonitor::kLossWindow; ++it) {
      drops += *it ? 1 : 0;
      ++total;
    }
    const double expected =
        total == 0 ? 0.0 : static_cast<double>(drops) / static_cast<double>(total);
    ASSERT_EQ(mon.recent_loss_rate(), expected) << "after event " << i;
  }
  EXPECT_GT(outcomes.size(), NetworkMonitor::kLossWindow);
}

TEST(BackgroundTraffic, CongestsASharedLink) {
  sim::EventScheduler sched;
  auto topo = make_congested_wan(sched, 2);
  auto& net = *topo.network;
  BackgroundTrafficConfig cfg;
  cfg.src = {topo.hosts[0], 9};
  cfg.dst = {topo.hosts[1], 9};
  cfg.burst_rate = sim::Rate::mbps(5);  // 3x the 1.5 Mbps backbone
  cfg.always_on = true;
  BackgroundTraffic bg(net, cfg, 3);
  bg.start();
  sched.run_until(sim::SimTime::seconds(1.0));
  bg.stop();
  sched.run();
  EXPECT_GT(bg.packets_sent(), 100u);
  EXPECT_GT(net.link(topo.scenario_links[0]).stats().queue_drops, 10u);
}

TEST(BackgroundTraffic, OnOffAlternates) {
  sim::EventScheduler sched;
  auto topo = make_ethernet_lan(sched, 2);
  auto& net = *topo.network;
  BackgroundTrafficConfig cfg;
  cfg.src = {topo.hosts[0], 9};
  cfg.dst = {topo.hosts[1], 9};
  cfg.burst_rate = sim::Rate::mbps(1);
  cfg.mean_burst = sim::SimTime::milliseconds(10);
  cfg.mean_idle = sim::SimTime::milliseconds(10);
  BackgroundTraffic bg(net, cfg, 4);
  bg.start();
  sched.run_until(sim::SimTime::seconds(1.0));
  bg.stop();
  sched.run();
  // ~50% duty cycle of 1 Mbps with 1028B packets => roughly 60 pkts/s.
  EXPECT_GT(bg.packets_sent(), 20u);
  EXPECT_LT(bg.packets_sent(), 120u);
}

TEST(Topologies, PrebuiltShapesAreSane) {
  sim::EventScheduler sched;
  auto lan = make_ethernet_lan(sched, 5);
  EXPECT_EQ(lan.hosts.size(), 5u);
  EXPECT_EQ(lan.switches.size(), 1u);
  EXPECT_FALSE(lan.network->path(lan.hosts[0], lan.hosts[4]).empty());

  auto ring = make_fddi_ring(sched, 4);
  EXPECT_EQ(ring.hosts.size(), 4u);
  EXPECT_FALSE(ring.network->path(ring.hosts[0], ring.hosts[2]).empty());
  EXPECT_EQ(ring.network->path_mtu(ring.hosts[0], ring.hosts[2]), 4500u);

  auto wan = make_atm_wan(sched, 2);
  EXPECT_EQ(wan.hosts.size(), 4u);
  // Access links keep pace with the backbone, so the path bottleneck is
  // the 155 Mbps backbone itself.
  EXPECT_DOUBLE_EQ(wan.network->path_bottleneck(wan.hosts[0], wan.hosts[1]).mbits_per_sec(),
                   155.0);
}

TEST(Topologies, CongestionSignalVisibleOnPath) {
  sim::EventScheduler sched;
  auto topo = make_congested_wan(sched, 1);
  auto& net = *topo.network;
  EXPECT_DOUBLE_EQ(net.path_congestion(topo.hosts[0], topo.hosts[1]), 0.0);
  // Stuff the backbone queue synchronously; utilization must rise.
  for (int i = 0; i < 60; ++i) net.inject(make_packet({topo.hosts[0], 1}, {topo.hosts[1], 2}, 1000));
  EXPECT_GT(net.path_congestion(topo.hosts[0], topo.hosts[1]), 0.5);
  sched.run();
}

}  // namespace
}  // namespace adaptive::net
