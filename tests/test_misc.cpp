// Focused coverage for surfaces the larger suites exercise only
// incidentally: TKO events, the umbrella header, World accessors, session
// control ops, the request/response application pair, and RNG edges.
#include "adaptive/adaptive.hpp"
#include "app/request_response.hpp"

#include <gtest/gtest.h>

namespace adaptive {
namespace {

TEST(TkoEvent, OneShotAndCancel) {
  sim::EventScheduler sched;
  os::TimerFacility timers(sched);
  int fired = 0;
  tko::Event e(timers, [&] { ++fired; });
  e.schedule(sim::SimTime::milliseconds(5));
  EXPECT_TRUE(e.pending());
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.pending());

  e.schedule(sim::SimTime::milliseconds(5));
  e.cancel();
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(TkoEvent, PeriodicFiresUntilCancelled) {
  sim::EventScheduler sched;
  os::TimerFacility timers(sched);
  int fired = 0;
  tko::Event e(timers, [&] { ++fired; });
  e.schedule_periodic(sim::SimTime::milliseconds(10));
  sched.run_until(sim::SimTime::milliseconds(55));
  EXPECT_EQ(fired, 5);
  e.cancel();
  sched.run_until(sim::SimTime::milliseconds(200));
  EXPECT_EQ(fired, 5);
}

TEST(TkoEvent, RearmReplacesPending) {
  sim::EventScheduler sched;
  os::TimerFacility timers(sched);
  std::vector<sim::SimTime> fires;
  tko::Event e(timers, [&] { fires.push_back(sched.now()); });
  e.schedule(sim::SimTime::milliseconds(10));
  e.schedule(sim::SimTime::milliseconds(30));  // replaces the 10ms arm
  sched.run();
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], sim::SimTime::milliseconds(30));
}

TEST(World, Accessors) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 3, 5); });
  EXPECT_EQ(world.host_count(), 3u);
  EXPECT_EQ(world.transport_address(1).port, tko::kTransportPort);
  EXPECT_EQ(world.transport_address(1).node, world.node(1));
  world.run_until(sim::SimTime::milliseconds(5));
  EXPECT_EQ(world.now(), sim::SimTime::milliseconds(5));
}

TEST(SessionControl, KnownAndUnknownOps) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 6); });
  auto& s = world.transport(0).open({world.transport_address(1)},
                                    tko::sa::udp_compat_config());
  EXPECT_EQ(*s.control("state"), "idle");
  EXPECT_EQ(*s.control("peer"), net::to_string(world.transport_address(1)));
  EXPECT_NE(s.control("local")->find("n"), std::string::npos);
  EXPECT_FALSE(s.control("nonsense").has_value());
  EXPECT_FALSE(s.is_multicast_session());
}

TEST(RequestResponse, TransactionsRoundTripWithMeasuredRtt) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 1, 7); });

  app::ResponderApp server;
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { server.attach(s); });

  auto cfg = tko::sa::reliable_bulk_config();
  cfg.connection = tko::sa::ConnectionScheme::kImplicit;
  cfg.segment_bytes = 1024;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);

  app::RequesterApp client(session, world.host(0).timers(), /*rate=*/30.0,
                           /*min=*/128, /*max=*/900, /*seed=*/8,
                           sim::SimTime::seconds(5));
  client.start();
  world.run_for(sim::SimTime::seconds(8));

  const auto& st = client.stats();
  EXPECT_GT(st.requests_sent, 100u);
  EXPECT_EQ(st.responses_received, st.requests_sent);  // reliable: all answered
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_EQ(server.requests_served(), st.requests_sent);
  // RTT at least the 60ms propagation round trip, bounded by queueing.
  EXPECT_GT(st.mean_rtt_sec(), 0.06);
  EXPECT_LT(st.mean_rtt_sec(), 0.5);
  EXPECT_GE(st.p95_rtt_sec(), st.mean_rtt_sec());
}

TEST(RequestResponse, OutstandingGrowsWhenServerIsFar) {
  // On a satellite-delay path many requests overlap in flight.
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 9); });
  world.network().set_link_pair_up(world.topology().scenario_links[0], false);  // satellite

  app::ResponderApp server;
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { server.attach(s); });
  auto cfg = tko::sa::reliable_bulk_config();
  cfg.connection = tko::sa::ConnectionScheme::kImplicit;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);

  app::RequesterApp client(session, world.host(0).timers(), 50.0, 64, 128, 10,
                           sim::SimTime::seconds(4));
  client.start();
  world.run_for(sim::SimTime::seconds(8));
  EXPECT_GT(client.stats().outstanding_peak, 10u);  // ~50/s x 0.5s RTT
  EXPECT_GT(client.stats().mean_rtt_sec(), 0.5);
}

TEST(Rng, UniformIntFullRangeAndSingleton) {
  sim::Rng r(31);
  // Full 64-bit range does not hang or bias-crash.
  (void)r.uniform_int(0, UINT64_MAX);
  EXPECT_EQ(r.uniform_int(7, 7), 7u);
}

TEST(Message, PoolAccessorAndEmpty) {
  os::BufferPool pool;
  tko::Message m(&pool);
  EXPECT_EQ(m.pool(), &pool);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.segment_count(), 0u);
  EXPECT_TRUE(m.linearize().empty());
  auto tail = m.split(0);
  EXPECT_TRUE(tail.empty());
}

TEST(Umbrella, SingleIncludeExposesTheApi) {
  // Compiling this file via adaptive/adaptive.hpp IS the test; spot-check
  // a symbol from each subsystem.
  EXPECT_STREQ(mantts::to_string(mantts::Tsc::kInteractiveIsochronous),
               "interactive-isochronous");
  EXPECT_EQ(tko::sa::SessionConfig::kWireBytes, 40u);
  EXPECT_EQ(unites::classify_metric("throughput.bps"), unites::MetricClass::kBlackbox);
  EXPECT_EQ(app::kTable1AppCount, 9u);
}

TEST(World, HostCollectorsFeedSystemwideView) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 12); });
  world.enable_host_collectors(sim::SimTime::milliseconds(50));
  auto& session = world.transport(0).open({world.transport_address(1)},
                                          tko::sa::reliable_bulk_config());
  world.transport(1).set_acceptor(
      [](tko::TransportSession& s) { s.set_deliver([](tko::Message&&) {}); });
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(20000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));
  // Both hosts contributed CPU series; the systemwide sum is positive.
  EXPECT_GT(world.repository().systemwide_sum(unites::metrics::kCpuInstructions), 0.0);
  EXPECT_FALSE(world.repository().keys_for_host(world.host(1).node_id()).empty());
}

class AckSchemeOnLossyPath
    : public ::testing::TestWithParam<std::pair<tko::sa::AckScheme, std::uint16_t>> {};

TEST_P(AckSchemeOnLossyPath, SelectiveRepeatCompletesWithEveryAckTiming) {
  const auto [scheme, n] = GetParam();
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 1, 13); });
  std::size_t received = 0;
  world.transport(1).set_acceptor([&](tko::TransportSession& s) {
    s.set_deliver([&](tko::Message&& m) { received += m.size(); });
  });
  auto cfg = tko::sa::reliable_bulk_config();
  cfg.connection = tko::sa::ConnectionScheme::kImplicit;
  cfg.window_pdus = 8;
  cfg.ack = scheme;
  if (n != 0) cfg.ack_every_n = n;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(60000, 5),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(40));
  EXPECT_EQ(received, 60000u);  // ack timing never breaks correctness
}

INSTANTIATE_TEST_SUITE_P(
    Timings, AckSchemeOnLossyPath,
    ::testing::Values(std::pair{tko::sa::AckScheme::kImmediate, std::uint16_t{0}},
                      std::pair{tko::sa::AckScheme::kDelayed, std::uint16_t{0}},
                      std::pair{tko::sa::AckScheme::kEveryN, std::uint16_t{2}},
                      std::pair{tko::sa::AckScheme::kEveryN, std::uint16_t{4}}));

}  // namespace
}  // namespace adaptive
