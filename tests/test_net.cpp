// Unit and integration tests for the network simulator: links, switches,
// routing, multicast, failures, monitoring, and background traffic. The
// route tests compare the dense RouteTable against the map-based route
// computation it replaced, kept here as the reference.
#include "adaptive/scenario.hpp"
#include "adaptive/world.hpp"
#include "net/background_traffic.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <tuple>
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

TEST(Link, DownDuringSerializationAbortsTheTransmission) {
  // Packet 1's 8.224 ms serialization is cut by a 1-2 ms outage: it is
  // lost, dropped as link-down at the instant it would have arrived, and
  // the wire carries one packet at a time after the link comes back.
  sim::EventScheduler sched;
  Network net(sched, 7);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(1);  // 1028 wire bytes -> 8.224 ms
  cfg.propagation_delay = sim::SimTime::microseconds(5);
  const LinkId l = std::get<0>(net.connect(a, b, cfg));
  std::vector<std::pair<std::uint8_t, sim::SimTime>> arrivals;
  net.set_host_rx(b, [&](Packet&& p) { arrivals.emplace_back(p.payload.flat()[0], sched.now()); });
  const auto send = [&](std::uint8_t tag) {
    Packet p;
    p.src = {a, 1};
    p.dst = {b, 2};
    p.payload = tko::Message::filled(1000, tag);
    net.inject(std::move(p));
  };
  send(1);
  sched.post_at(sim::SimTime::milliseconds(1), [&] { net.set_link_pair_up(l, false); });
  sched.post_at(sim::SimTime::milliseconds(2), [&] { net.set_link_pair_up(l, true); });
  sched.post_at(sim::SimTime::milliseconds(3), [&] {
    for (std::uint8_t tag = 2; tag <= 4; ++tag) send(tag);
  });
  const sim::SimTime arrive1 = sim::SimTime::nanoseconds(8'224'000 + 5'000);
  sched.run_until(arrive1 - sim::SimTime::nanoseconds(1));
  EXPECT_EQ(net.link(l).stats().down_drops, 0u);
  sched.run_until(arrive1);
  EXPECT_EQ(net.link(l).stats().down_drops, 1u);  // packet 1, when it would have arrived
  sched.run();
  const sim::SimTime tx = sim::SimTime::nanoseconds(8'224'000);
  const sim::SimTime first = sim::SimTime::milliseconds(3) + tx + sim::SimTime::microseconds(5);
  const std::vector<std::pair<std::uint8_t, sim::SimTime>> want = {
      {2, first}, {3, first + tx}, {4, first + tx * 2}};
  EXPECT_EQ(arrivals, want);
  EXPECT_EQ(net.link(l).stats().down_drops, 1u);
  EXPECT_EQ(net.link(l).stats().tx_packets, 4u);
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
      kind = NetEventKind::kRouteChange;
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

// ---------------------------------------------------------------------------
// Route computation: the dense RouteTable against the map-based reference
// ---------------------------------------------------------------------------

namespace ref {

// The map-based route computation the Network used before RouteTable:
// one std::map Dijkstra per node and one more per multicast tree. Kept
// verbatim as the reference every forwarding decision and path value is
// compared against, ties included.

using Adjacency = std::map<NodeId, std::vector<Link*>>;

struct SpfResult {
  std::map<NodeId, Link*> pred_link;
  std::map<NodeId, double> dist;
};

SpfResult shortest_paths(const Adjacency& adj, NodeId src) {
  SpfResult out;
  using QEntry = std::pair<double, NodeId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  out.dist[src] = 0.0;
  pq.push({0.0, src});
  std::set<NodeId> done;
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (done.contains(u)) continue;
    done.insert(u);
    auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (Link* l : it->second) {
      if (!l->is_up()) continue;
      const NodeId v = l->to();
      const double nd = d + link_cost(*l);
      auto dit = out.dist.find(v);
      if (dit == out.dist.end() || nd < dit->second) {
        out.dist[v] = nd;
        out.pred_link[v] = l;
        pq.push({nd, v});
      }
    }
  }
  return out;
}

std::vector<NodeId> extract_path(const SpfResult& spf, NodeId src, NodeId dst) {
  std::vector<NodeId> path;
  NodeId cur = dst;
  while (cur != src) {
    auto it = spf.pred_link.find(cur);
    if (it == spf.pred_link.end()) return {};
    path.push_back(cur);
    cur = it->second->from();
  }
  path.push_back(src);
  std::ranges::reverse(path);
  return path;
}

std::vector<Link*> extract_path_links(const SpfResult& spf, NodeId src, NodeId dst) {
  std::vector<Link*> links;
  NodeId cur = dst;
  while (cur != src) {
    auto it = spf.pred_link.find(cur);
    if (it == spf.pred_link.end()) return {};
    links.push_back(it->second);
    cur = it->second->from();
  }
  std::ranges::reverse(links);
  return links;
}

std::map<NodeId, std::vector<Link*>> multicast_tree(const Adjacency& adj, NodeId src,
                                                    const std::vector<NodeId>& members) {
  const SpfResult spf = shortest_paths(adj, src);
  std::map<NodeId, std::set<Link*>> tree;
  for (NodeId m : members) {
    if (m == src) continue;
    NodeId cur = m;
    while (cur != src) {
      auto it = spf.pred_link.find(cur);
      if (it == spf.pred_link.end()) break;  // unreachable member
      Link* l = it->second;
      const bool inserted = tree[l->from()].insert(l).second;
      cur = l->from();
      if (!inserted) break;
    }
  }
  std::map<NodeId, std::vector<Link*>> out;
  for (auto& [node, links] : tree) {
    std::vector<Link*> ordered(links.begin(), links.end());
    std::ranges::sort(ordered, {}, [](const Link* l) { return l->id(); });
    out[node] = std::move(ordered);
  }
  return out;
}

/// What the map-based Network installed at one route computation: an SPF
/// per node (hosts inject and switches forward on its first link) and
/// the multicast out-lists of each (group, source host) tree at the
/// source and at every switch.
struct Routes {
  std::size_t nodes = 0;
  std::vector<std::vector<Link*>> links;  ///< [u * nodes + d]: the u -> d path
  std::vector<std::vector<NodeId>> paths;
  std::map<std::tuple<NodeId, NodeId, NodeId>, std::vector<Link*>> mcast;  ///< (group, src, at)
};

Routes compute(Network& net, const std::vector<bool>& is_host, const std::vector<NodeId>& groups) {
  Routes r;
  r.nodes = is_host.size();
  Adjacency adj;
  for (NodeId id = 0; id < r.nodes; ++id) adj[id];
  for (LinkId id = 0; id < net.link_count(); ++id) {
    adj[net.link(id).from()].push_back(&net.link(id));
  }
  r.links.resize(r.nodes * r.nodes);
  r.paths.resize(r.nodes * r.nodes);
  for (NodeId u = 0; u < r.nodes; ++u) {
    const SpfResult spf = shortest_paths(adj, u);
    for (NodeId d = 0; d < r.nodes; ++d) {
      r.links[u * r.nodes + d] = extract_path_links(spf, u, d);
      r.paths[u * r.nodes + d] = extract_path(spf, u, d);
    }
  }
  for (const NodeId group : groups) {
    const auto& members = net.group_members(group);
    for (NodeId src = 0; src < r.nodes; ++src) {
      if (!is_host[src]) continue;
      std::vector<NodeId> others;
      for (const NodeId m : members) {
        if (m != src) others.push_back(m);
      }
      if (others.empty()) continue;
      for (auto& [at, outs] : multicast_tree(adj, src, others)) {
        if (at == src || !is_host[at]) r.mcast[{group, src, at}] = outs;
      }
    }
  }
  return r;
}

}  // namespace ref

constexpr std::size_t kProbeBytes = 64;

/// Every first hop, path(), path_* value, sample_path() and multicast
/// out-list `net` reports equals the reference's. Node ids run one past
/// the last node, so uncovered ids are probed too.
void expect_same_routes(const Network& net, const ref::Routes& r,
                        const std::vector<bool>& is_host, const std::vector<NodeId>& groups) {
  const auto n = static_cast<NodeId>(is_host.size());
  static const std::vector<Link*> kNoLinks;
  static const std::vector<NodeId> kNoNodes;
  for (NodeId u = 0; u <= n; ++u) {
    for (NodeId d = 0; d <= n; ++d) {
      const bool covered = u < r.nodes && d < r.nodes;
      const auto& links = covered ? r.links[u * r.nodes + d] : kNoLinks;
      const auto& nodes = covered ? r.paths[u * r.nodes + d] : kNoNodes;
      ASSERT_EQ(net.routes().first_hop(u, d), links.empty() ? nullptr : links.front())
          << u << " -> " << d;
      ASSERT_EQ(net.path(u, d), nodes) << u << " -> " << d;
      // The map-based Network's path_* formulas over the reference path.
      std::size_t mtu = 0;
      sim::SimTime latency = sim::SimTime::zero();
      sim::Rate bottleneck = sim::Rate::bps(0);
      double ber = 0.0;
      double congestion = 0.0;
      if (!links.empty()) {
        mtu = SIZE_MAX;
        bottleneck = sim::Rate::gbps(1e9);
      }
      for (const Link* l : links) {
        mtu = std::min(mtu, l->config().mtu_bytes);
        latency += l->idle_latency(kProbeBytes);
        bottleneck = std::min(bottleneck, l->config().bandwidth);
        ber = std::max(ber, l->worst_case_ber());
        congestion = std::max(congestion, l->queue_utilization());
      }
      ASSERT_EQ(net.path_mtu(u, d), mtu) << u << " -> " << d;
      ASSERT_EQ(net.path_idle_latency(u, d, kProbeBytes), latency) << u << " -> " << d;
      ASSERT_EQ(net.path_bottleneck(u, d), bottleneck) << u << " -> " << d;
      ASSERT_EQ(net.path_bit_error_rate(u, d), ber) << u << " -> " << d;
      ASSERT_EQ(net.path_congestion(u, d), congestion) << u << " -> " << d;
      const PathSample s = net.sample_path(u, d, kProbeBytes);
      ASSERT_EQ(s.nodes, nodes) << u << " -> " << d;
      ASSERT_EQ(s.mtu, mtu);
      ASSERT_EQ(s.idle_latency, latency);
      ASSERT_EQ(s.bottleneck, bottleneck);
      ASSERT_EQ(s.bit_error_rate, ber);
      ASSERT_EQ(s.congestion, congestion);
    }
  }
  for (const NodeId g : groups) {
    for (NodeId src = 0; src < n; ++src) {
      if (!is_host[src]) continue;
      for (NodeId at = 0; at <= n; ++at) {
        const auto outs = net.routes().multicast_outs(g, src, at);
        const auto it = r.mcast.find({g, src, at});
        const std::vector<Link*> got(outs.begin(), outs.end());
        ASSERT_EQ(got, it == r.mcast.end() ? kNoLinks : it->second)
            << "group " << g << " src " << src << " at " << at;
      }
    }
  }
}

/// Drives one random topology through random public calls, mirroring
/// when the Network computes routes (eagerly outside a batch, at the
/// outermost batch's close, on recompute_routes) and checking it against
/// the reference after every call. A link pair is modelled as carrying
/// traffic while it is set up and no outage holds it, and a set or a
/// hold that leaves that unchanged computes nothing.
class RandomRouteRun {
public:
  explicit RandomRouteRun(std::uint64_t seed) : rng_(seed), net_(sched_, seed) {}

  void run() {
    // 2..40 nodes, small ones more often: every check reads all pairs.
    const double u = rng_.uniform();
    const auto target = 2 + static_cast<std::size_t>(38.0 * u * u + 0.5);
    add_node();
    add_node();
    const std::size_t steps = 3 * target + 12;
    for (std::size_t step = 0; step < steps; ++step) {
      mutate(target);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!batches_.empty()) close_batch();
    check();
  }

private:
  [[nodiscard]] NodeId any_node() {
    return static_cast<NodeId>(rng_.uniform_int(0, is_host_.size() - 1));
  }

  void add_node() {
    const bool host = rng_.bernoulli(0.5);
    if (host) {
      net_.add_host("h" + std::to_string(is_host_.size()));
    } else {
      net_.add_switch("s" + std::to_string(is_host_.size()));
    }
    is_host_.push_back(host);
  }

  /// A small palette of configs: parallel links and equal-cost ties are
  /// common, and every path_* value has something to read.
  [[nodiscard]] LinkConfig random_config() {
    LinkConfig cfg;
    static constexpr double kMbps[] = {10, 100, 155};
    static constexpr std::int64_t kDelayUs[] = {5, 20, 20, 1000};
    static constexpr std::size_t kMtu[] = {1500, 4500, 9188};
    static constexpr double kBer[] = {0.0, 1e-9, 1e-6};
    cfg.bandwidth = sim::Rate::mbps(kMbps[rng_.uniform_int(0, 2)]);
    cfg.propagation_delay = sim::SimTime::microseconds(kDelayUs[rng_.uniform_int(0, 3)]);
    cfg.mtu_bytes = kMtu[rng_.uniform_int(0, 2)];
    cfg.bit_error_rate = kBer[rng_.uniform_int(0, 2)];
    cfg.queue_capacity_packets = rng_.bernoulli(0.5) ? 4 : 64;
    if (rng_.bernoulli(0.2)) {  // a bursty link: worst-case BER differs from the base
      cfg.p_good_to_bad = 0.01;
      cfg.burst_error_rate = 1e-4;
    }
    return cfg;
  }

  void routes_changed() {
    if (batches_.empty()) {
      computed();
    } else {
      stale_ = true;
    }
  }

  void computed() {
    expected_ = ref::compute(net_, is_host_, groups_);
    ++computations_;
    stale_ = false;
  }

  void close_batch() {
    batches_.pop_back();
    if (batches_.empty() && stale_) computed();
  }

  void mutate(std::size_t target) {
    const double pick = rng_.uniform();
    const std::size_t pairs = net_.link_count() / 2;
    if (pick < 0.3 && is_host_.size() < target) {
      add_node();  // no routes until the next computation
    } else if (pick < 0.50) {
      NodeId a = any_node();
      NodeId b = any_node();
      if (pairs > 0 && rng_.bernoulli(0.2)) {  // parallel to an existing pair
        const Link& l = net_.link(static_cast<LinkId>(2 * rng_.uniform_int(0, pairs - 1)));
        a = l.from();
        b = l.to();
      }
      net_.connect(a, b, random_config());
      pairs_.emplace_back();
      routes_changed();
    } else if (pick < 0.60 && pairs > 0) {
      const auto fwd = static_cast<LinkId>(2 * rng_.uniform_int(0, pairs - 1));
      PairModel& m = pairs_[fwd / 2];
      const bool carried = m.carries();
      const double how = rng_.uniform();
      if (how < 0.5) {
        m.up = rng_.bernoulli(0.4);
        net_.set_link_pair_up(fwd, m.up);
      } else if (how < 0.75 || m.holds == 0) {
        ++m.holds;
        net_.hold_pair_down(fwd);
      } else {
        --m.holds;
        net_.release_pair(fwd);
      }
      if (m.carries() != carried) routes_changed();
    } else if (pick < 0.65 && pairs > 0) {
      // A config change (as a bw/delay fault makes) moves path values but
      // not routes: nothing recomputes.
      Link& l = net_.link(static_cast<LinkId>(rng_.uniform_int(0, net_.link_count() - 1)));
      l.set_config(random_config());
    } else if (pick < 0.68) {
      groups_.push_back(net_.create_group());
    } else if (pick < 0.76) {
      const NodeId g = groups_[rng_.uniform_int(0, groups_.size() - 1)];
      // Mostly hosts; switches and a not-yet-existing id join too.
      const NodeId who = rng_.bernoulli(0.1) ? static_cast<NodeId>(is_host_.size()) : any_node();
      const auto& m = net_.group_members(g);
      const bool joins = std::ranges::find(m, who) == m.end();
      net_.join_group(g, who);
      if (joins) routes_changed();
    } else if (pick < 0.81) {
      const NodeId g = groups_[rng_.uniform_int(0, groups_.size() - 1)];
      const auto& m = net_.group_members(g);
      const NodeId who = !m.empty() && rng_.bernoulli(0.8) ? m[rng_.uniform_int(0, m.size() - 1)]
                                                           : any_node();
      const bool leaves = std::ranges::find(m, who) != m.end();
      net_.leave_group(g, who);
      if (leaves) routes_changed();
    } else if (pick < 0.87 && batches_.size() < 3) {
      batches_.push_back(std::make_unique<Network::RouteBatch>(net_));
    } else if (pick < 0.93 && !batches_.empty()) {
      close_batch();
    } else if (pick < 0.95) {
      net_.recompute_routes();
      computed();
    } else {
      inject();
    }
  }

  /// Inject one packet without running the scheduler and read back which
  /// links it was handed to: the reference first hop, or the tree's
  /// out-list at the source.
  void inject() {
    const NodeId src = any_node();
    std::vector<Link*> want;
    NodeId dst;
    if (is_host_[src] && rng_.bernoulli(0.4)) {
      dst = groups_[rng_.uniform_int(0, groups_.size() - 1)];
      const auto it = expected_.mcast.find({dst, src, src});
      if (it != expected_.mcast.end()) want = it->second;
    } else {
      dst = static_cast<NodeId>(rng_.uniform_int(0, is_host_.size()));
      if (src >= expected_.nodes) {
        EXPECT_THROW(net_.inject(make_packet({src, 1}, {dst, 2}, kProbeBytes)), std::logic_error);
        return;
      }
      if (dst < expected_.nodes && !expected_.links[src * expected_.nodes + dst].empty()) {
        want = {expected_.links[src * expected_.nodes + dst].front()};
      }
    }
    auto footprint = [](const Link& l) {
      const auto& st = l.stats();
      return st.tx_packets + st.queue_drops + st.mtu_drops + st.down_drops + l.queue_depth();
    };
    std::vector<std::uint64_t> before;
    for (LinkId id = 0; id < net_.link_count(); ++id) before.push_back(footprint(net_.link(id)));
    const auto drops = net_.monitor().total_drops();
    net_.inject(make_packet({src, 1}, {dst, 2}, kProbeBytes));
    std::vector<Link*> got;
    for (LinkId id = 0; id < net_.link_count(); ++id) {
      if (footprint(net_.link(id)) != before[id]) got.push_back(&net_.link(id));
    }
    EXPECT_EQ(got, want) << src << " -> " << dst;
    if (want.empty()) {
      EXPECT_EQ(net_.monitor().total_drops(), drops + 1);
    }
  }

  void check() {
    ASSERT_EQ(net_.monitor().route_changes(), computations_);
    for (LinkId id = 0; id < net_.link_count(); ++id) {
      ASSERT_EQ(net_.link(id).is_up(), pairs_[id / 2].carries()) << "link " << id;
    }
    expect_same_routes(net_, expected_, is_host_, groups_);
  }

  sim::Rng rng_;
  sim::EventScheduler sched_;
  Network net_;
  std::vector<bool> is_host_;
  std::vector<NodeId> groups_{net_.broadcast_address()};
  std::vector<std::unique_ptr<Network::RouteBatch>> batches_;
  struct PairModel {
    bool up = true;
    std::uint32_t holds = 0;
    [[nodiscard]] bool carries() const { return up && holds == 0; }
  };
  std::vector<PairModel> pairs_;  ///< by forward link id / 2
  ref::Routes expected_;
  std::uint64_t computations_ = 0;
  bool stale_ = false;
};

TEST(RouteTable, MatchesTheMapBasedReferenceOnRandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    RandomRouteRun(seed).run();
    if (HasFatalFailure()) return;
  }
}

TEST(RouteTable, EqualCostRingDirectionsKeepTheReferencePredecessor) {
  sim::EventScheduler sched;
  auto ring = make_fddi_ring(sched, 6);
  Network& net = *ring.network;
  // Hosts 0 and 3 sit on opposite switches, so both ways round the ring
  // cost the same. The heap settles the lower switch id first and a tie
  // never replaces a predecessor: the route climbs through s1 and s2.
  const std::vector<NodeId> want{ring.hosts[0],    ring.switches[0], ring.switches[1],
                                 ring.switches[2], ring.switches[3], ring.hosts[3]};
  EXPECT_EQ(net.path(ring.hosts[0], ring.hosts[3]), want);
  std::vector<bool> is_host(ring.switches.size() + ring.hosts.size(), false);
  for (const NodeId h : ring.hosts) is_host[h] = true;
  const std::vector<NodeId> groups{net.broadcast_address()};
  expect_same_routes(net, ref::compute(net, is_host, groups), is_host, groups);
}

TEST(RouteBatch, EveryPrebuiltTopologyCostsOneComputation) {
  sim::EventScheduler sched;
  auto computations = [](const Topology& t) { return t.network->monitor().route_changes(); };
  EXPECT_EQ(computations(make_ethernet_lan(sched, 8)), 1u);
  EXPECT_EQ(computations(make_fddi_ring(sched, 6)), 1u);
  EXPECT_EQ(computations(make_congested_wan(sched, 3)), 1u);
  EXPECT_EQ(computations(make_atm_wan(sched, 8)), 1u);  // one per connect would be 17
  EXPECT_EQ(computations(make_dual_path_wan(sched)), 1u);
  EXPECT_EQ(computations(make_multicast_campus(sched, 8)), 1u);
  EXPECT_EQ(computations(make_mobile_wan(sched, 4, 3)), 1u);
}

TEST(RouteBatch, NestedBatchesComputeOnceAtTheOutermostClose) {
  sim::EventScheduler sched;
  Network net(sched, 1);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  const NodeId sw = net.add_switch("sw");
  {
    const Network::RouteBatch outer(net);
    net.connect(a, sw, LinkConfig{});
    {
      const Network::RouteBatch inner(net);
      net.connect(sw, b, LinkConfig{});
    }
    EXPECT_EQ(net.monitor().route_changes(), 0u);
    EXPECT_TRUE(net.path(a, b).empty());  // stale until the batch closes
  }
  EXPECT_EQ(net.monitor().route_changes(), 1u);
  EXPECT_EQ(net.path(a, b), (std::vector<NodeId>{a, sw, b}));
  { const Network::RouteBatch idle(net); }  // nothing changed: no computation
  EXPECT_EQ(net.monitor().route_changes(), 1u);
  net.set_link_pair_up(0, false);  // outside a batch: eager, as before
  EXPECT_EQ(net.monitor().route_changes(), 2u);
  EXPECT_TRUE(net.path(a, b).empty());
}

TEST(RouteBatch, HoldsStackAndOnlyACarriedFlipComputes) {
  sim::EventScheduler sched;
  Network net(sched, 1);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  net.connect(a, b, LinkConfig{});
  EXPECT_EQ(net.monitor().route_changes(), 1u);
  net.hold_pair_down(0);
  net.hold_pair_down(0);
  EXPECT_EQ(net.monitor().route_changes(), 2u);
  net.set_link_pair_up(0, true);  // already set up, still held
  net.release_pair(0);
  EXPECT_FALSE(net.link(0).is_up());
  EXPECT_EQ(net.monitor().route_changes(), 2u);
  net.release_pair(0);
  EXPECT_TRUE(net.link(0).is_up());
  EXPECT_TRUE(net.link(1).is_up());
  EXPECT_EQ(net.monitor().route_changes(), 3u);
  EXPECT_THROW(net.release_pair(0), std::logic_error);  // no hold to release
  EXPECT_EQ(net.path(a, b), (std::vector<NodeId>{a, b}));
}

TEST(RouteBatch, PartitionOfAHostCostsOneComputationEachWay) {
  sim::EventScheduler sched;
  auto topo = make_mobile_wan(sched, 4, 0);  // the mobile host has 4 link pairs
  Network& net = *topo.network;
  const NodeId mob = topo.hosts[topo.mobile_host];
  const NodeId cn = topo.hosts[1];
  FaultInjector injector(net, topo.scenario_links, topo.hosts);
  injector.arm(sim::parse_fault_plan("partition@1+1:node=0"));
  const auto built = net.monitor().route_changes();
  ASSERT_FALSE(net.path(mob, cn).empty());
  sched.run_until(sim::SimTime::seconds(1.5));
  EXPECT_EQ(net.monitor().route_changes(), built + 1);  // one per link pair would add 4
  EXPECT_TRUE(net.path(mob, cn).empty());
  sched.run_until(sim::SimTime::seconds(3));
  EXPECT_EQ(net.monitor().route_changes(), built + 2);
  EXPECT_FALSE(net.path(mob, cn).empty());
}

TEST(RouteBatch, TeleconferenceSetUpJoinsSevenMembersInOneComputation) {
  World world([](sim::EventScheduler& s) { return make_multicast_campus(s, 8, 3); });
  const auto built = world.network().monitor().route_changes();
  EXPECT_EQ(built, 1u);
  RunOptions opt;
  opt.application = app::Table1App::kTeleconference;
  opt.multicast_members = {1, 2, 3, 4, 5, 6, 7};
  opt.duration = sim::SimTime::seconds(0.5);
  opt.drain = sim::SimTime::seconds(0.5);
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.receivers, 7u);
  EXPECT_EQ(world.network().monitor().route_changes(), built + 1);  // one per join would add 7
}

}  // namespace
}  // namespace adaptive::net
