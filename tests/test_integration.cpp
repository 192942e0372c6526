// System-level integration tests through the scenario runner: the full
// MANTTS -> TKO -> UNITES pipeline over realistic topologies, including
// the paper's headline behaviours (lightweight beats overweight for
// voice; adaptation survives congestion onset and route failover).
#include "adaptive/scenario.hpp"
#include "net/background_traffic.hpp"

#include <gtest/gtest.h>

namespace adaptive {
namespace {

using app::Table1App;
using Mode = RunOptions::Mode;

TEST(Scenario, VoiceOverLanMeetsQosUnderManntts) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 21); });
  RunOptions opt;
  opt.application = Table1App::kVoice;
  opt.duration = sim::SimTime::seconds(5);
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.tsc, mantts::Tsc::kInteractiveIsochronous);
  EXPECT_EQ(out.config.recovery, tko::sa::RecoveryScheme::kNone);
  EXPECT_TRUE(out.qos.all_ok()) << out.qos.verdict();
  EXPECT_LT(out.qos.mean_latency_ns, 10'000'000);  // < 10 ms
  EXPECT_GT(out.sink.units_received, 200u);
}

TEST(Scenario, FileTransferCompletesLosslessly) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 22); });
  RunOptions opt;
  opt.application = Table1App::kFileTransfer;
  opt.duration = sim::SimTime::seconds(20);
  opt.drain = sim::SimTime::seconds(5);
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.tsc, mantts::Tsc::kNonRealTimeNonIsochronous);
  EXPECT_TRUE(out.qos.loss_ok) << out.qos.verdict();
  EXPECT_TRUE(out.qos.order_ok);
  EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
}

TEST(Scenario, Tp4IsOverweightForVoice) {
  // The paper's overweight example: retransmission support for a
  // loss-tolerant constrained-latency application only slows it down.
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 23); });
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(1.6);  // overload the 1.5 Mbps backbone
  bg.always_on = true;
  net::BackgroundTraffic cross(world.network(), bg, 5);
  cross.start();

  RunOptions adaptive_opt;
  adaptive_opt.application = Table1App::kVoice;
  adaptive_opt.duration = sim::SimTime::seconds(5);
  const auto adaptive_out = run_scenario(world, adaptive_opt);

  RunOptions tp4_opt = adaptive_opt;
  tp4_opt.mode = Mode::kStaticTp4;
  const auto tp4_out = run_scenario(world, tp4_opt);
  cross.stop();

  // The heavyweight config retransmits into an overloaded queue: every
  // drop stalls ordered delivery an RTO and resends a whole window, so
  // delay inflates well beyond the lightweight configuration's, which
  // simply accepts the loss its application tolerates.
  EXPECT_GT(static_cast<double>(tp4_out.qos.mean_latency_ns),
            1.5 * static_cast<double>(adaptive_out.qos.mean_latency_ns));
  EXPECT_GT(tp4_out.reliability.retransmissions, 0u);
  EXPECT_EQ(adaptive_out.reliability.retransmissions, 0u);
}

TEST(Scenario, MulticastTeleconferenceReachesAllMembers) {
  World world([](sim::EventScheduler& s) { return net::make_multicast_campus(s, 8, 24); });
  RunOptions opt;
  opt.application = Table1App::kTeleconference;
  opt.multicast_members = {1, 2, 3};
  opt.duration = sim::SimTime::seconds(3);
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.receivers, 3u);
  // Every member hears ~every frame (3 receivers x 300 frames).
  EXPECT_GT(out.sink.units_received, 850u);
  EXPECT_TRUE(out.qos.loss_ok) << out.qos.verdict();
}

TEST(Scenario, StaticSystemSendsNCopiesForMulticast) {
  World world([](sim::EventScheduler& s) { return net::make_multicast_campus(s, 8, 25); });
  RunOptions opt;
  opt.application = Table1App::kTeleconference;
  opt.multicast_members = {1, 2, 3};
  opt.duration = sim::SimTime::seconds(2);

  const auto tx_before_adaptive = world.host(0).nic().tx_packets();
  const auto adaptive_out = run_scenario(world, opt);
  const auto adaptive_tx = world.host(0).nic().tx_packets() - tx_before_adaptive;

  RunOptions static_opt = opt;
  static_opt.mode = Mode::kStaticDatagram;
  const auto tx_before_static = world.host(0).nic().tx_packets();
  const auto static_out = run_scenario(world, static_opt);
  const auto static_tx = world.host(0).nic().tx_packets() - tx_before_static;

  // Both deliver to every member, but the static system pushed ~3x the
  // packets through the sender NIC (underweight: no multicast service).
  EXPECT_GT(static_out.sink.units_received, 500u);
  EXPECT_NEAR(static_cast<double>(static_out.sink.units_received),
              static_cast<double>(adaptive_out.sink.units_received), 10.0);
  EXPECT_GT(static_tx, 2 * adaptive_tx);
}

TEST(Scenario, AdaptiveModeSwitchesRecoveryUnderCongestionOnset) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 26); });

  RunOptions opt;
  opt.application = Table1App::kFileTransfer;
  opt.mode = Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(25);
  opt.drain = sim::SimTime::seconds(8);
  opt.scale = 0.25;  // 500 KB so it can finish on a T1

  // Congestion arrives mid-transfer.
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(3);
  bg.always_on = true;
  net::BackgroundTraffic cross(world.network(), bg, 6);
  world.scheduler().post_after(sim::SimTime::seconds(5), [&] { cross.start(); });

  const auto out = run_scenario(world, opt);
  EXPECT_GT(out.reconfigurations, 0u);  // policies fired
  EXPECT_GT(world.mantts(0).stats().policy_firings, 0u);
  EXPECT_TRUE(out.qos.order_ok);
  cross.stop();
}

TEST(Scenario, RouteFailoverToSatelliteTriggersFecSwitch) {
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 27); });
  RunOptions opt;
  opt.application = Table1App::kManufacturingControl;
  opt.mode = Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(12);
  opt.scale = 0.5;

  // Terrestrial path dies at t=4s; traffic reroutes over the satellite.
  world.scheduler().post_after(sim::SimTime::seconds(4), [&] {
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });

  const auto out = run_scenario(world, opt);
  EXPECT_GT(out.reconfigurations, 0u);
  // The RTT-above rule must have moved the session onto FEC.
  EXPECT_EQ(out.config.recovery, tko::sa::RecoveryScheme::kForwardErrorCorrection);
}

TEST(Scenario, MetricsFlowIntoWorldRepository) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 28); });
  RunOptions opt;
  opt.application = Table1App::kOltp;
  opt.duration = sim::SimTime::seconds(3);
  opt.collect_metrics = true;
  (void)run_scenario(world, opt);
  EXPECT_GT(world.repository().total_samples(), 0u);
  EXPECT_GT(world.repository().systemwide_sum(unites::metrics::kPdusSent), 0.0);
}

TEST(Scenario, AllNineTable1AppsPassOnCleanLans) {
  // The Table 1 reproduction in miniature: every application class meets
  // its ACD when MANTTS configures the session on an adequate network.
  World world([](sim::EventScheduler& s) { return net::make_fddi_ring(s, 4, 29); });
  for (std::size_t i = 0; i < app::kTable1AppCount; ++i) {
    RunOptions opt;
    opt.application = static_cast<Table1App>(i);
    opt.duration = sim::SimTime::seconds(3);
    opt.drain = sim::SimTime::seconds(4);
    opt.seed = 100 + i;
    const auto out = run_scenario(world, opt);
    EXPECT_TRUE(out.qos.all_ok())
        << app::to_string(opt.application) << " " << out.qos.verdict();
    EXPECT_GT(out.sink.units_received, 0u) << app::to_string(opt.application);
  }
}

}  // namespace
}  // namespace adaptive
