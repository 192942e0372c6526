// Tests for the extension features and resilience paths: priority
// delivery, probe-based RTT measurement, duration-gated adaptation, the
// protocol graph, negotiation failure handling, and failure injection
// (link flaps, lost control traffic).
#include "adaptive/scenario.hpp"
#include "app/playout.hpp"
#include "app/workloads.hpp"
#include "mantts/mantts.hpp"
#include "mantts/stream_group.hpp"
#include "net/background_traffic.hpp"
#include "tko/protocol_graph.hpp"

#include <gtest/gtest.h>

namespace adaptive {
namespace {

// ---------------------------------------------------------------------------
// Priority delivery (Table 1 "Priority Delivery" column)
// ---------------------------------------------------------------------------

TEST(Priority, HighPriorityPacketsOvertakeInQueues) {
  sim::EventScheduler sched;
  net::Network net(sched, 3);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(8);  // 1000B wire = 1ms
  cfg.propagation_delay = sim::SimTime::zero();
  cfg.queue_capacity_packets = 64;
  net.connect(a, b, cfg);

  std::vector<std::uint8_t> order;
  net.set_host_rx(b, [&](net::Packet&& p) { order.push_back(p.priority); });

  // Ten low-priority packets, then one high-priority: the high one must
  // overtake everything still queued (but not the one in service).
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.src = {a, 1};
    p.dst = {b, 1};
    p.priority = 0;
    p.payload = tko::Message::filled(972, 1);
    net.inject(std::move(p));
  }
  net::Packet hi;
  hi.src = {a, 1};
  hi.dst = {b, 1};
  hi.priority = 5;
  hi.payload = tko::Message::filled(972, 2);
  net.inject(std::move(hi));
  sched.run();
  ASSERT_EQ(order.size(), 11u);
  EXPECT_EQ(order[0], 0);  // already serializing when the high one arrived
  EXPECT_EQ(order[1], 5);  // overtook the remaining nine
}

TEST(Priority, FullQueueDisplacesLowestPriority) {
  sim::EventScheduler sched;
  net::Network net(sched, 3);
  const auto a = net.add_host("a");
  const auto b = net.add_host("b");
  net::LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(8);
  cfg.propagation_delay = sim::SimTime::zero();
  cfg.queue_capacity_packets = 4;
  net.connect(a, b, cfg);

  int high_received = 0, low_received = 0;
  net.set_host_rx(b, [&](net::Packet&& p) { (p.priority > 0 ? high_received : low_received)++; });

  for (int i = 0; i < 5; ++i) {  // 1 in service + 4 queued (all low)
    net::Packet p;
    p.src = {a, 1};
    p.dst = {b, 1};
    p.payload = tko::Message::filled(972, 1);
    net.inject(std::move(p));
  }
  for (int i = 0; i < 2; ++i) {  // two high arrivals displace two low
    net::Packet p;
    p.src = {a, 1};
    p.dst = {b, 1};
    p.priority = 3;
    p.payload = tko::Message::filled(972, 2);
    net.inject(std::move(p));
  }
  sched.run();
  EXPECT_EQ(high_received, 2);
  EXPECT_EQ(low_received, 3);  // two displaced
  EXPECT_EQ(net.link(0).stats().queue_drops, 2u);
}

TEST(Priority, VoiceSessionProtectedFromBulkOnSharedLink) {
  // Priority voice and non-priority bulk share a congested backbone; the
  // voice session's latency must stay near the uncongested floor.
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 41); });

  // Saturating low-priority cross traffic.
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(1.6);
  bg.always_on = true;
  net::BackgroundTraffic cross(world.network(), bg, 5);
  cross.start();

  auto run_voice = [&](std::uint8_t priority) {
    auto cfg = tko::sa::lightweight_isochronous_config();
    cfg.inter_pdu_gap = sim::SimTime::milliseconds(18);
    cfg.segment_bytes = 176;
    cfg.priority = priority;
    RunOptions opt;
    opt.application = app::Table1App::kVoice;
    opt.mode = RunOptions::Mode::kFixedConfig;
    opt.fixed = cfg;
    opt.duration = sim::SimTime::seconds(4);
    opt.seed = 42;
    return run_scenario(world, opt);
  };
  const auto unprioritized = run_voice(0);
  const auto prioritized = run_voice(3);
  cross.stop();

  EXPECT_GT(unprioritized.qos.mean_latency_ns, 50'000'000);  // stuck behind the full queue
  EXPECT_LT(prioritized.qos.mean_latency_ns, 50'000'000);    // jumps it
  EXPECT_LT(prioritized.qos.loss_fraction, 0.01);       // and displaces, not drops
}

// ---------------------------------------------------------------------------
// Probe-based RTT measurement
// ---------------------------------------------------------------------------

TEST(Probes, ProbeReplyFeedsNmiEstimator) {
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 51); });
  auto& entity = world.mantts(0);
  const auto remote = world.node(1);

  EXPECT_EQ(entity.nmi().probe_samples(remote), 0u);
  entity.send_probe(remote);
  world.run_for(sim::SimTime::seconds(1));
  EXPECT_EQ(entity.stats().probes_sent, 1u);
  EXPECT_EQ(entity.stats().probe_replies, 1u);
  EXPECT_EQ(entity.nmi().probe_samples(remote), 1u);

  // The measured RTT now drives the descriptor and tracks the real path.
  const auto d = entity.nmi().sample(remote);
  EXPECT_GT(d.rtt, sim::SimTime::milliseconds(20));
  EXPECT_LT(d.rtt, sim::SimTime::milliseconds(100));
}

TEST(Probes, MeasuredRttTracksRouteFailover) {
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 52); });
  auto& entity = world.mantts(0);
  const auto remote = world.node(1);

  for (int i = 0; i < 8; ++i) {
    entity.send_probe(remote);
    world.run_for(sim::SimTime::milliseconds(200));
  }
  const auto before = entity.nmi().sample(remote).rtt;
  EXPECT_LT(before, sim::SimTime::milliseconds(100));

  world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  for (int i = 0; i < 32; ++i) {
    entity.send_probe(remote);
    world.run_for(sim::SimTime::milliseconds(400));
  }
  const auto after = entity.nmi().sample(remote).rtt;
  EXPECT_GT(after, sim::SimTime::milliseconds(300));  // converged toward ~520ms
}

TEST(Probes, AdaptationCanRunOnMeasuredRtt) {
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 53); });
  world.mantts(0).set_probe_based_rtt(true);

  RunOptions opt;
  opt.application = app::Table1App::kManufacturingControl;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(14);
  opt.scale = 0.5;
  world.scheduler().post_after(sim::SimTime::seconds(4), [&] {
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });
  const auto out = run_scenario(world, opt);
  // The kRttAbove policy fired from measured probes, not the oracle.
  EXPECT_GT(world.mantts(0).stats().probes_sent, 10u);
  EXPECT_EQ(out.config.recovery, tko::sa::RecoveryScheme::kForwardErrorCorrection);
}

// ---------------------------------------------------------------------------
// Duration gating (Section 4.1.1: short sessions are not worth adapting)
// ---------------------------------------------------------------------------

TEST(DurationGate, ShortSessionsSkipAdaptation) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 55); });
  mantts::Acd acd;
  acd.remotes = {world.transport_address(1)};
  acd.quantitative.duration = sim::SimTime::seconds(1);  // below threshold
  acd.quantitative.loss_tolerance = 0.1;
  acd.qualitative.sequenced_delivery = false;
  acd.adjustments = mantts::PolicyEngine::default_rules();

  tko::TransportSession* session = nullptr;
  world.mantts(0).open_session(acd, [&](auto r) { session = r.session; });
  ASSERT_NE(session, nullptr);
  EXPECT_FALSE(world.mantts(0).adaptation_enabled(session->id()));
  EXPECT_EQ(world.mantts(0).stats().adaptations_skipped_short_session, 1u);

  acd.quantitative.duration = sim::SimTime::seconds(600);
  tko::TransportSession* long_session = nullptr;
  world.mantts(0).open_session(acd, [&](auto r) { long_session = r.session; });
  world.run_for(sim::SimTime::seconds(1));  // explicit negotiation round trip
  ASSERT_NE(long_session, nullptr);
  EXPECT_TRUE(world.mantts(0).adaptation_enabled(long_session->id()));
}

// ---------------------------------------------------------------------------
// Protocol graph (TKO_Protocol graph operations, Section 4.2.1)
// ---------------------------------------------------------------------------

class StubProtocol final : public tko::Protocol {
public:
  explicit StubProtocol(std::string name) : Protocol(std::move(name)) {}
  void demux(net::Packet&&) override { ++packets_; }
  [[nodiscard]] std::size_t session_count() const override { return 0; }
  int packets_ = 0;
};

TEST(ProtocolGraph, InsertLayerQueryRemove) {
  tko::ProtocolGraph graph;
  graph.insert(std::make_unique<StubProtocol>("transport"));
  graph.insert(std::make_unique<StubProtocol>("network"));
  graph.insert(std::make_unique<StubProtocol>("mac"));
  graph.layer("transport", "network");
  graph.layer("network", "mac");

  EXPECT_EQ(graph.size(), 3u);
  EXPECT_NE(graph.find("network"), nullptr);
  EXPECT_EQ(graph.below("transport"), std::vector<std::string>{"network"});
  EXPECT_EQ(graph.above("mac"), std::vector<std::string>{"network"});

  const auto order = graph.bottom_up_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_LT(std::find(order.begin(), order.end(), "mac") - order.begin(),
            std::find(order.begin(), order.end(), "transport") - order.begin());

  graph.remove("network");
  EXPECT_EQ(graph.size(), 2u);
  EXPECT_TRUE(graph.below("transport").empty());
  EXPECT_THROW(graph.remove("network"), std::invalid_argument);
}

TEST(ProtocolGraph, ReplaceKeepsEdges) {
  tko::ProtocolGraph graph;
  graph.insert(std::make_unique<StubProtocol>("transport"));
  graph.insert(std::make_unique<StubProtocol>("network"));
  graph.layer("transport", "network");
  auto& replaced = graph.replace("network", std::make_unique<StubProtocol>("network"));
  EXPECT_EQ(graph.below("transport"), std::vector<std::string>{"network"});
  EXPECT_EQ(&replaced, graph.find("network"));
  EXPECT_THROW(graph.replace("network", std::make_unique<StubProtocol>("other")),
               std::invalid_argument);
}

TEST(ProtocolGraph, DetectsLayeringCycles) {
  tko::ProtocolGraph graph;
  graph.insert(std::make_unique<StubProtocol>("a"));
  graph.insert(std::make_unique<StubProtocol>("b"));
  graph.layer("a", "b");
  graph.layer("b", "a");
  EXPECT_THROW((void)graph.bottom_up_order(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Negotiation failure handling & admission refusal
// ---------------------------------------------------------------------------

TEST(NegotiationFailure, UnreachablePeerYieldsRefusalAfterRetries) {
  // Host 1 exists but its MANTTS entity is unreachable: sever the link so
  // CONFIG retries exhaust.
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 57); });
  world.network().set_link_pair_up(world.topology().scenario_links[1], false);

  mantts::Acd acd;
  acd.remotes = {world.transport_address(1)};
  acd.qualitative.explicit_connection = true;
  acd.quantitative.duration = sim::SimTime::seconds(600);

  bool done = false;
  mantts::MantttsEntity::OpenResult result;
  world.mantts(0).open_session(acd, [&](auto r) {
    result = std::move(r);
    done = true;
  });
  world.run_for(sim::SimTime::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.refused);
  EXPECT_EQ(result.session, nullptr);
  EXPECT_EQ(world.mantts(0).stats().refusals_received, 1u);
}

TEST(NegotiationFailure, OverCapacityResponderRefuses) {
  mantts::ResourceLimits tiny;
  tiny.max_sessions = 0;  // responder accepts nothing
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 58); },
              os::CpuConfig{}, tiny);
  mantts::Acd acd;
  acd.remotes = {world.transport_address(1)};
  acd.qualitative.explicit_connection = true;
  acd.quantitative.duration = sim::SimTime::seconds(600);

  mantts::MantttsEntity::OpenResult result;
  bool done = false;
  world.mantts(0).open_session(acd, [&](auto r) {
    result = std::move(r);
    done = true;
  });
  world.run_for(sim::SimTime::seconds(2));
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.refused);
  EXPECT_EQ(world.mantts(1).stats().admissions_refused, 1u);
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(FailureInjection, ReliableTransferSurvivesLinkFlap) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 59); });
  std::size_t received = 0;
  world.transport(1).set_acceptor([&](tko::TransportSession& s) {
    s.set_deliver([&](tko::Message&& m) { received += m.size(); });
  });
  auto cfg = tko::sa::reliable_bulk_config();
  cfg.window_pdus = 8;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(200'000, 9),
                                        &world.host(0).buffers()));
  // The destination's access link flaps twice mid-transfer.
  const auto link = world.topology().scenario_links[1];
  world.scheduler().post_after(sim::SimTime::milliseconds(30), [&] {
    world.network().set_link_pair_up(link, false);
  });
  world.scheduler().post_after(sim::SimTime::milliseconds(300), [&] {
    world.network().set_link_pair_up(link, true);
  });
  world.scheduler().post_after(sim::SimTime::milliseconds(500), [&] {
    world.network().set_link_pair_up(link, false);
  });
  world.scheduler().post_after(sim::SimTime::milliseconds(900), [&] {
    world.network().set_link_pair_up(link, true);
  });
  world.run_for(sim::SimTime::seconds(30));
  EXPECT_EQ(received, 200'000u);  // retransmission covers the outages
  EXPECT_GT(session.context().reliability().stats().retransmissions, 0u);
}

TEST(FailureInjection, GracefulCloseSurvivesLostFinAck) {
  // Take the link down just as the FIN exchange begins; the FIN
  // retransmits after the link heals and the session still closes.
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 60); });
  auto cfg = tko::sa::reliable_bulk_config();
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(5'000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));  // transfer done, acks in

  const auto link = world.topology().scenario_links[0];
  world.network().set_link_pair_up(link, false);
  session.close(/*graceful=*/true);  // FIN dies on the dark link
  world.run_for(sim::SimTime::milliseconds(500));
  EXPECT_EQ(session.state(), tko::SessionState::kClosing);
  world.network().set_link_pair_up(link, true);
  world.run_for(sim::SimTime::seconds(10));
  EXPECT_EQ(session.state(), tko::SessionState::kClosed);
}

TEST(FailureInjection, HandshakeGivesUpWhenPeerNeverAnswers) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 61); });
  world.network().set_link_pair_up(world.topology().scenario_links[1], false);
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::tcp_compat_config());
  session.connect();
  world.run_for(sim::SimTime::seconds(30));
  EXPECT_EQ(session.state(), tko::SessionState::kAborted);
}

// ---------------------------------------------------------------------------
// NIC offload (Section 3B remedy category 3)
// ---------------------------------------------------------------------------

TEST(Offload, ChecksumOffloadCutsHostCpuWithoutLosingDetection) {
  auto run = [&](bool offload) {
    os::NicConfig nic;
    nic.checksum_offload = offload;
    World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 1, 69); },
                os::CpuConfig{}, mantts::ResourceLimits{}, nic);
    RunOptions opt;
    opt.application = app::Table1App::kFileTransfer;
    opt.mode = RunOptions::Mode::kFixedConfig;
    auto cfg = tko::sa::reliable_bulk_config();
    cfg.connection = tko::sa::ConnectionScheme::kImplicit;
    cfg.window_pdus = 12;
    opt.fixed = cfg;
    opt.scale = 0.1;
    opt.duration = sim::SimTime::seconds(30);
    opt.drain = sim::SimTime::seconds(15);
    opt.seed = 70;
    return run_scenario(world, opt);
  };
  const auto plain = run(false);
  const auto offloaded = run(true);
  // Same bytes delivered; corruption on the copper backbone still caught
  // (decode always verifies — offload only waives the host CPU charge).
  EXPECT_EQ(plain.sink.bytes_received, offloaded.sink.bytes_received);
  EXPECT_GT(plain.receiver_checksum_failures + plain.reliability.retransmissions, 0u);
  EXPECT_LT(offloaded.sender_cpu_instructions, plain.sender_cpu_instructions);
}

// ---------------------------------------------------------------------------
// Synchronized stream groups (Section 4.1: coordinated related sessions)
// ---------------------------------------------------------------------------

TEST(StreamGroups, AssignsClassPrioritiesAndCommonPlayout) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 65); });
  auto audio = app::make_workload(app::Table1App::kVoice, 1).acd;
  // Full-rate video so Stage I classifies it distributional (no traffic
  // actually flows in this test).
  auto video = app::make_workload(app::Table1App::kVideoCompressed, 1).acd;
  auto files = app::make_workload(app::Table1App::kFileTransfer, 1).acd;
  for (auto* acd : {&audio, &video, &files}) {
    acd->remotes = {world.transport_address(1)};
  }

  mantts::StreamGroupOpener opener(world.mantts(0));
  mantts::StreamGroupResult group;
  opener.open({audio, video, files}, [&](mantts::StreamGroupResult r) { group = std::move(r); });
  world.run_for(sim::SimTime::seconds(2));  // explicit members may negotiate

  ASSERT_TRUE(group.complete);
  ASSERT_EQ(group.members.size(), 3u);
  // Interactive audio above distributional video above bulk.
  EXPECT_EQ(group.members[0].assigned_priority, 5);
  EXPECT_EQ(group.members[1].assigned_priority, 3);
  EXPECT_EQ(group.members[2].assigned_priority, 0);
  for (const auto& m : group.members) {
    EXPECT_EQ(m.session->config().priority, m.assigned_priority);
  }
  // The common playout point covers the path plus the jitter margin.
  EXPECT_GE(group.recommended_playout, mantts::StreamGroupOpener::kJitterMargin);
  EXPECT_LT(group.recommended_playout, sim::SimTime::milliseconds(200));
}

TEST(StreamGroups, SynchronizedPlayoutKeepsStreamsInStep) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 66); });
  // Cross traffic so the two streams see different queueing jitter.
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(1.0);
  bg.mean_burst = sim::SimTime::milliseconds(60);
  bg.mean_idle = sim::SimTime::milliseconds(140);
  net::BackgroundTraffic cross(world.network(), bg, 7);
  cross.start();

  auto audio = app::make_workload(app::Table1App::kVoice, 2).acd;
  auto video = app::make_workload(app::Table1App::kVideoCompressed, 2, 0.1).acd;
  audio.remotes = video.remotes = {world.transport_address(1)};

  mantts::StreamGroupOpener opener(world.mantts(0));
  mantts::StreamGroupResult group;
  opener.open({audio, video}, [&](mantts::StreamGroupResult r) { group = std::move(r); });
  world.run_for(sim::SimTime::seconds(2));
  ASSERT_TRUE(group.complete);

  // Both receivers play against the SAME recommended playout point.
  app::PlayoutSink audio_out(world.host(1).timers(), group.recommended_playout);
  app::PlayoutSink video_out(world.host(1).timers(), group.recommended_playout);
  auto* audio_rx = world.transport(1).find_session(group.members[0].session->id());
  auto* video_rx = world.transport(1).find_session(group.members[1].session->id());
  // Implicit members create their passive sessions with the first data
  // PDU; attach via the acceptor for those.
  world.transport(1).set_acceptor([&](tko::TransportSession& s) {
    if (s.id() == group.members[0].session->id()) audio_out.attach(s);
    if (s.id() == group.members[1].session->id()) video_out.attach(s);
  });
  if (audio_rx != nullptr) audio_out.attach(*audio_rx);
  if (video_rx != nullptr) video_out.attach(*video_rx);

  app::SourceApp audio_src(*group.members[0].session,
                           std::make_unique<app::CbrModel>(160, sim::SimTime::milliseconds(20)),
                           world.host(0).timers(), sim::SimTime::seconds(4));
  app::SourceApp video_src(*group.members[1].session,
                           std::make_unique<app::CbrModel>(800, sim::SimTime::milliseconds(40)),
                           world.host(0).timers(), sim::SimTime::seconds(4));
  audio_src.start();
  video_src.start();
  world.run_for(sim::SimTime::seconds(5));
  cross.stop();

  // Temporal synchronization: both streams rendered at their source clock
  // plus the shared delay, so residual jitter — and hence inter-stream
  // skew — is (virtually) zero despite different per-stream network jitter.
  EXPECT_GT(audio_out.stats().played, 150u);
  EXPECT_GT(video_out.stats().played, 80u);
  EXPECT_LT(audio_out.stats().playout_jitter_sec(), 1e-6);
  EXPECT_LT(video_out.stats().playout_jitter_sec(), 1e-6);
}

// ---------------------------------------------------------------------------
// Adjust-the-TSC reconfiguration (Section 4.1.2, first action)
// ---------------------------------------------------------------------------

TEST(AdjustTsc, RetargetSessionRunsStagesAgainAndPropagates) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 77); });

  // Start as a reliable bulk application...
  auto bulk = app::make_workload(app::Table1App::kFileTransfer, 1).acd;
  bulk.remotes = {world.transport_address(1)};
  bulk.quantitative.duration = sim::SimTime::seconds(600);
  tko::TransportSession* session = nullptr;
  mantts::Tsc initial_tsc{};
  world.mantts(0).open_session(bulk, [&](auto r) {
    session = r.session;
    initial_tsc = r.tsc;
  });
  world.run_for(sim::SimTime::seconds(1));
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(initial_tsc, mantts::Tsc::kNonRealTimeNonIsochronous);
  const auto before = session->config();
  EXPECT_NE(before.recovery, tko::sa::RecoveryScheme::kNone);

  // ...then the application "changes video coding schemes and now
  // requires isochronous service" (the paper's adjust-TSC example).
  auto media = app::make_workload(app::Table1App::kVoice, 1).acd;
  media.remotes = bulk.remotes;
  const auto new_tsc = world.mantts(0).retarget_session(*session, media);
  world.run_for(sim::SimTime::seconds(1));

  EXPECT_EQ(new_tsc, mantts::Tsc::kInteractiveIsochronous);
  EXPECT_EQ(session->config().recovery, tko::sa::RecoveryScheme::kNone);
  EXPECT_EQ(session->config().transmission, tko::sa::TransmissionScheme::kRateControl);
  // The establishment scheme of a live connection is preserved.
  EXPECT_EQ(session->config().connection, before.connection);
  EXPECT_GT(session->context().reconfigurations(), 0u);
  // Remote bindings followed via RECONFIG signaling.
  auto* passive = world.transport(1).find_session(session->id());
  ASSERT_NE(passive, nullptr);
  EXPECT_EQ(passive->config().recovery, tko::sa::RecoveryScheme::kNone);
}

// ---------------------------------------------------------------------------
// Interpreter trace
// ---------------------------------------------------------------------------

TEST(Trace, RecordsPduInterpreterSteps) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 67); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  session.enable_trace(1000);
  world.transport(1).set_acceptor(
      [](tko::TransportSession& s) { s.set_deliver([](tko::Message&&) {}); });
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(5000, 1),
                                        &world.host(0).buffers()));
  session.close(true);
  world.run_for(sim::SimTime::seconds(2));

  const auto& trace = session.trace();
  ASSERT_FALSE(trace.empty());
  bool saw_out_data = false, saw_in_ack = false, saw_fin = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(trace[i].when, trace[i - 1].when);  // chronological
    }
    if (trace[i].outbound && trace[i].type == tko::PduType::kData) saw_out_data = true;
    if (!trace[i].outbound && trace[i].type == tko::PduType::kAck) saw_in_ack = true;
    if (trace[i].type == tko::PduType::kFin) saw_fin = true;
  }
  EXPECT_TRUE(saw_out_data);
  EXPECT_TRUE(saw_in_ack);
  EXPECT_TRUE(saw_fin);

  const auto rendered = session.render_trace();
  EXPECT_NE(rendered.find("DATA"), std::string::npos);
  EXPECT_NE(rendered.find("ACK"), std::string::npos);
  EXPECT_NE(rendered.find("->"), std::string::npos);
  EXPECT_NE(rendered.find("<-"), std::string::npos);
}

TEST(Trace, CapacityBoundsTheRing) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 68); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  session.enable_trace(8);
  world.transport(1).set_acceptor(
      [](tko::TransportSession& s) { s.set_deliver([](tko::Message&&) {}); });
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(50'000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(2));
  EXPECT_EQ(session.trace().size(), 8u);  // only the most recent retained
  session.disable_trace();
}

}  // namespace
}  // namespace adaptive
