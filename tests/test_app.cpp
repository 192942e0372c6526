// Tests for the application layer: traffic models, unit framing,
// source/sink apps, Table 1 workload factories, and the QoS evaluator.
#include "adaptive/world.hpp"
#include "net/background_traffic.hpp"
#include "app/application.hpp"
#include "app/playout.hpp"
#include "app/qos_evaluator.hpp"
#include "app/workloads.hpp"
#include "net/topologies.hpp"
#include "tko/sa/templates.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

namespace adaptive::app {
namespace {

TEST(TrafficModels, CbrIsExactlyPeriodic) {
  CbrModel m(160, sim::SimTime::milliseconds(20));
  for (int i = 0; i < 5; ++i) {
    const auto u = m.next();
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(u->bytes, 160u);
    EXPECT_EQ(u->gap, sim::SimTime::milliseconds(20));
  }
}

TEST(TrafficModels, BulkExhausts) {
  BulkModel m(10'000, 4096);
  std::size_t total = 0;
  int units = 0;
  while (auto u = m.next()) {
    total += u->bytes;
    ++units;
    EXPECT_EQ(u->gap, sim::SimTime::zero());
  }
  EXPECT_EQ(total, 10'000u);
  EXPECT_EQ(units, 3);  // 4096 + 4096 + 1808
}

TEST(TrafficModels, PoissonMeanRate) {
  PoissonRequestModel m(100.0, 64, 128, 7);
  double total_gap = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto u = m.next();
    ASSERT_TRUE(u.has_value());
    total_gap += u->gap.sec();
    EXPECT_GE(u->bytes, 64u);
    EXPECT_LE(u->bytes, 128u);
  }
  EXPECT_NEAR(total_gap / n, 0.01, 0.001);  // mean gap 10 ms
}

TEST(TrafficModels, VbrAlternatesOnOff) {
  OnOffVbrModel m(1000, sim::Rate::mbps(8), sim::SimTime::milliseconds(30),
                  sim::SimTime::milliseconds(90), 11);
  int long_gaps = 0, short_gaps = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto u = m.next();
    ASSERT_TRUE(u.has_value());
    if (u->gap > sim::SimTime::milliseconds(5)) {
      ++long_gaps;  // an OFF period
    } else {
      ++short_gaps;  // within a burst
    }
  }
  EXPECT_GT(long_gaps, 10);
  EXPECT_GT(short_gaps, 1000);
}

TEST(TrafficModels, KeystrokesAreTiny) {
  KeystrokeModel m(sim::SimTime::milliseconds(200), 3);
  for (int i = 0; i < 200; ++i) {
    const auto u = m.next();
    ASSERT_TRUE(u.has_value());
    EXPECT_TRUE(u->bytes == 1 || u->bytes == 64);
  }
}

TEST(UnitHeader, EncodeDecodeRoundTrip) {
  UnitHeader h;
  h.id = 0xDEAD;
  h.sent_at_ns = 123'456'789;
  const auto bytes = h.encode(500);
  EXPECT_EQ(bytes.size(), 500u);
  UnitHeader back;
  ASSERT_TRUE(UnitHeader::decode(bytes, back));
  EXPECT_EQ(back.id, 0xDEADu);
  EXPECT_EQ(back.sent_at_ns, 123'456'789);
}

TEST(UnitHeader, RejectsShortOrUnmagic) {
  UnitHeader out;
  EXPECT_FALSE(UnitHeader::decode(std::vector<std::uint8_t>(8, 0), out));
  std::vector<std::uint8_t> junk(32, 0x42);
  EXPECT_FALSE(UnitHeader::decode(junk, out));
}

TEST(Workloads, AllNineConstructAndClassify) {
  for (std::size_t i = 0; i < kTable1AppCount; ++i) {
    const auto w = make_workload(static_cast<Table1App>(i), 42);
    EXPECT_FALSE(w.name.empty());
    EXPECT_NE(w.model, nullptr);
    EXPECT_GT(w.acd.quantitative.average_throughput.bits_per_sec(), 0.0);
  }
  EXPECT_EQ(mantts::classify(make_workload(Table1App::kVoice, 1).acd),
            mantts::Tsc::kInteractiveIsochronous);
  EXPECT_EQ(mantts::classify(make_workload(Table1App::kVideoRaw, 1).acd),
            mantts::Tsc::kDistributionalIsochronous);
  EXPECT_EQ(mantts::classify(make_workload(Table1App::kManufacturingControl, 1).acd),
            mantts::Tsc::kRealTimeNonIsochronous);
  EXPECT_EQ(mantts::classify(make_workload(Table1App::kFileTransfer, 1).acd),
            mantts::Tsc::kNonRealTimeNonIsochronous);
}

TEST(SourceSink, EndToEndLatencyMeasured) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 13); });
  SinkApp sink(world.host(1).timers());
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { sink.attach(s); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::udp_compat_config());

  SourceApp source(session, std::make_unique<CbrModel>(160, sim::SimTime::milliseconds(20)),
                   world.host(0).timers(), sim::SimTime::seconds(1));
  source.start();
  world.run_for(sim::SimTime::seconds(2));

  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.stats().units_sent, 50u);
  const auto& st = sink.stats();
  EXPECT_EQ(st.units_received, 50u);
  EXPECT_EQ(st.estimated_lost(), 0u);
  EXPECT_GT(st.mean_latency_sec(), 0.0);
  EXPECT_LT(st.mean_latency_sec(), 0.01);
  EXPECT_EQ(st.misordered, 0u);
  EXPECT_EQ(st.duplicates, 0u);
}

TEST(SourceSink, DuplicateTrackingMemoryFollowsIdsSeenNotLargestId) {
  // A unit id with a flipped high bit that slipped past the checksum used
  // to size the sink's duplicate bitmap to 2^31 bits (256 MB).
  sim::EventScheduler sched;
  os::TimerFacility timers(sched);
  SinkApp sink(timers);
  const auto peak_kb = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
  };
  const long before = peak_kb();
  constexpr std::uint32_t kFlipped = (1u << 31) + 252;
  for (const std::uint32_t id : {0u, 1u, 3u, kFlipped, 2u, 3u, kFlipped}) {
    UnitHeader h;
    h.id = id;
    sink.on_message(tko::Message::from_bytes(h.encode(64)));
  }
  EXPECT_LT(peak_kb() - before, 8 * 1024);
  const auto& st = sink.stats();
  EXPECT_EQ(st.duplicates, 2u);
  EXPECT_EQ(st.units_received, 5u);
  EXPECT_EQ(st.misordered, 1u);  // 2 after the flipped id
  EXPECT_EQ(st.highest_id, kFlipped);
}

TEST(SourceSink, SegmentedUnitsCountContinuationBytes) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 13); });
  SinkApp sink(world.host(1).timers());
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { sink.attach(s); });
  auto cfg = tko::sa::reliable_bulk_config();
  cfg.segment_bytes = 512;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);
  SourceApp source(session, std::make_unique<BulkModel>(8192, 4096), world.host(0).timers());
  source.start();
  world.run_for(sim::SimTime::seconds(2));
  EXPECT_EQ(sink.stats().units_received, 2u);  // two 4096-byte units
  EXPECT_GT(sink.stats().continuation_bytes, 0u);
  EXPECT_EQ(sink.stats().bytes_received, 8192u);
}

// ---------------------------------------------------------------------------
// Back-to-back (bulk) sources wait on the session's writable upcall
// ---------------------------------------------------------------------------

// An implicit, message-oriented, selective-repeat SCS with a small window
// (8 x 1 KB), so a 4 KB-unit bulk source fills the send buffer in two
// units.
tko::sa::SessionConfig small_window_bulk_config() {
  auto cfg = tko::sa::reliable_bulk_config();
  cfg.connection = tko::sa::ConnectionScheme::kImplicit;
  cfg.message_oriented = true;
  cfg.window_pdus = 8;
  cfg.segment_bytes = 1024;
  return cfg;
}

constexpr std::size_t kBulkBytes = 1 << 20;
constexpr std::size_t kBulkUnit = 4096;
constexpr std::size_t kTsduPrefix = 4;  // message-oriented length prefix

class SourceBackpressure : public ::testing::Test {
protected:
  SourceBackpressure()
      : world_([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 13); }),
        sink_(world_.host(1).timers()) {
    world_.transport(1).set_acceptor([this](tko::TransportSession& s) { sink_.attach(s); });
  }

  tko::TransportSession& open(const tko::sa::SessionConfig& cfg) {
    return world_.transport(0).open({world_.transport_address(1)}, cfg);
  }
  void set_link_up(bool up) {
    world_.network().set_link_pair_up(world_.topology().scenario_links[0], up);
  }
  std::unique_ptr<SourceApp> bulk_source(tko::Session& session) {
    return std::make_unique<SourceApp>(session,
                                       std::make_unique<BulkModel>(kBulkBytes, kBulkUnit),
                                       world_.host(0).timers());
  }
  void expect_whole_transfer_in_order() const {
    const auto& st = sink_.stats();
    EXPECT_EQ(st.units_received, kBulkBytes / kBulkUnit);
    EXPECT_EQ(st.bytes_received, kBulkBytes);
    EXPECT_EQ(st.highest_id, kBulkBytes / kBulkUnit);
    EXPECT_EQ(st.misordered, 0u);
    EXPECT_EQ(st.duplicates, 0u);
  }

  World world_;
  SinkApp sink_;
};

TEST_F(SourceBackpressure, BulkSourceOnADownLinkPinsTwoWindowsPlusOneUnitThenDeliversInOrder) {
  const auto cfg = small_window_bulk_config();
  const std::size_t window = std::size_t{cfg.window_pdus} * cfg.segment_bytes;
  auto& session = open(cfg);
  auto source = bulk_source(session);
  source->start();
  // The link fails once the receiver has its passive session (an implicit
  // open whose every piggybacked SCS is lost never opens at all).
  world_.run_for(sim::SimTime::milliseconds(10));
  ASSERT_GT(sink_.stats().units_received, 0u);
  set_link_up(false);
  world_.run_for(sim::SimTime::seconds(1));
  // The retransmission buffer holds the window sent into the outage; the
  // send buffer holds at most one window plus the unit that filled it. The
  // source then waits: the rest of the megabyte is not yet submitted.
  const std::uint64_t sent_in_outage = source->stats().units_sent;
  EXPECT_FALSE(session.writable());
  EXPECT_LE(session.live_bytes(), window + window + kBulkUnit + kTsduPrefix);
  world_.run_for(sim::SimTime::seconds(1));
  EXPECT_EQ(source->stats().units_sent, sent_in_outage);

  set_link_up(true);
  world_.run_for(sim::SimTime::seconds(20));
  EXPECT_TRUE(source->finished());
  EXPECT_EQ(source->stats().units_sent, kBulkBytes / kBulkUnit);
  EXPECT_EQ(source->stats().send_rejected, 0u);
  expect_whole_transfer_in_order();
}

TEST_F(SourceBackpressure, ExplicitHandshakeSourceWaitsForEstablishmentThenCompletes) {
  auto cfg = small_window_bulk_config();
  cfg.connection = tko::sa::ConnectionScheme::kExplicit3Way;
  auto& session = open(cfg);
  auto source = bulk_source(session);
  source->start();
  world_.run_for(sim::SimTime::microseconds(10));
  // Nothing can leave before the handshake: two units fill the 8 KB send
  // buffer and the source stops submitting.
  ASSERT_EQ(session.state(), tko::SessionState::kConnecting);
  EXPECT_FALSE(session.writable());
  EXPECT_EQ(source->stats().units_sent, 2u);

  world_.run_for(sim::SimTime::seconds(5));
  EXPECT_EQ(session.state(), tko::SessionState::kEstablished);
  EXPECT_TRUE(source->finished());
  expect_whole_transfer_in_order();
}

TEST_F(SourceBackpressure, StoppedOrDestroyedSourceIsNeverCalledBackAsItsSessionDrains) {
  const auto cfg = small_window_bulk_config();
  auto& kept = open(cfg);
  auto& orphaned = open(cfg);
  auto stopped = bulk_source(kept);
  auto destroyed = bulk_source(orphaned);
  stopped->start();
  destroyed->start();
  world_.run_for(sim::SimTime::microseconds(10));
  ASSERT_FALSE(kept.writable());
  ASSERT_FALSE(orphaned.writable());  // both sources wait on an armed upcall

  const std::uint64_t sent = stopped->stats().units_sent;
  stopped->stop();
  destroyed.reset();  // its destructor disarms; a later upcall would be a use-after-free
  world_.run_for(sim::SimTime::seconds(2));
  EXPECT_TRUE(kept.writable());
  EXPECT_TRUE(orphaned.writable());
  EXPECT_EQ(stopped->stats().units_sent, sent);
  // What was queued still drains (both sessions feed the one sink).
  EXPECT_EQ(sink_.stats().bytes_received, 2 * sent * kBulkUnit);
}

TEST_F(SourceBackpressure, PacedSourceIgnoresTheWritableSignal) {
  // CBR on the same stalled session queues exactly what it always did: every
  // unit it produces, whatever writable() says.
  set_link_up(false);
  auto& session = open(small_window_bulk_config());
  SourceApp source(session, std::make_unique<CbrModel>(1000, sim::SimTime::milliseconds(10)),
                   world_.host(0).timers(), sim::SimTime::seconds(1));
  source.start();
  world_.run_for(sim::SimTime::seconds(2));
  EXPECT_TRUE(source.finished());
  EXPECT_EQ(source.stats().units_sent, 100u);
  EXPECT_EQ(session.live_bytes(), 100u * (1000 + kTsduPrefix));
  EXPECT_FALSE(session.writable());
}

TEST(QosEvaluator, GradesAgainstAcd) {
  mantts::Acd acd;
  acd.quantitative.max_latency = sim::SimTime::milliseconds(100);
  acd.quantitative.max_jitter = sim::SimTime::milliseconds(10);
  acd.quantitative.loss_tolerance = 0.1;
  acd.qualitative.sequenced_delivery = true;

  SourceStats src;
  src.units_sent = 100;
  SinkStats sink;
  sink.units_received = 95;
  sink.latencies_sec = std::vector<double>(95, 0.05);
  sink.first_arrival = sim::SimTime::milliseconds(1);
  sink.last_arrival = sim::SimTime::seconds(1);
  sink.bytes_received = 95'000;

  auto r = evaluate_qos(acd, src, sink);
  EXPECT_TRUE(r.all_ok());
  EXPECT_EQ(r.verdict(), "PASS");
  EXPECT_NEAR(r.loss_fraction, 0.05, 1e-9);

  // Too much loss.
  sink.units_received = 50;
  r = evaluate_qos(acd, src, sink);
  EXPECT_FALSE(r.loss_ok);
  EXPECT_NE(r.verdict().find("loss"), std::string::npos);

  // Latency bust.
  sink.units_received = 95;
  sink.latencies_sec.assign(95, 0.5);
  r = evaluate_qos(acd, src, sink);
  EXPECT_FALSE(r.latency_ok);

  // Order violation matters only when sequencing was requested.
  sink.latencies_sec.assign(95, 0.05);
  sink.misordered = 3;
  r = evaluate_qos(acd, src, sink);
  EXPECT_FALSE(r.order_ok);
  acd.qualitative.sequenced_delivery = false;
  r = evaluate_qos(acd, src, sink);
  EXPECT_TRUE(r.order_ok);
}

TEST(Playout, ExportsIsochronousDeliveryDespiteJitter) {
  // A jittery path: CBR voice behind a congested backbone. The raw sink
  // sees the network's jitter; the playout sink trades a fixed delay for
  // near-zero residual jitter.
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 44); });
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(1.3);
  bg.mean_burst = sim::SimTime::milliseconds(80);
  bg.mean_idle = sim::SimTime::milliseconds(120);
  net::BackgroundTraffic cross(world.network(), bg, 6);
  cross.start();

  SinkApp raw(world.host(1).timers());
  PlayoutSink playout(world.host(1).timers(), sim::SimTime::milliseconds(200));
  world.transport(1).set_acceptor([&](tko::TransportSession& s) {
    s.set_deliver([&](tko::Message&& m) {
      raw.on_message(tko::Message(m.clone()));
      playout.on_message(std::move(m));
    });
  });

  auto cfg = tko::sa::lightweight_isochronous_config();
  cfg.inter_pdu_gap = sim::SimTime::milliseconds(18);
  cfg.segment_bytes = 176;
  auto& session = world.transport(0).open({world.transport_address(1)}, cfg);
  SourceApp source(session, std::make_unique<CbrModel>(160, sim::SimTime::milliseconds(20)),
                   world.host(0).timers(), sim::SimTime::seconds(5));
  source.start();
  world.run_for(sim::SimTime::seconds(6));
  cross.stop();

  EXPECT_GT(raw.stats().jitter_sec(), 0.001);  // the network really jittered
  EXPECT_LT(playout.stats().playout_jitter_sec(), 1e-6);  // playout absorbed it
  EXPECT_GT(playout.stats().played, 150u);
  // A 200ms budget on a <=150ms-delay path: few or no late drops.
  EXPECT_LT(playout.stats().loss_fraction(source.stats().units_sent), 0.1);
  EXPECT_GT(playout.stats().buffered_peak, 1u);  // it actually buffered
}

TEST(Playout, LateUnitsAreDroppedNotReplayed) {
  sim::EventScheduler sched;
  os::TimerFacility timers(sched);
  PlayoutSink sink(timers, sim::SimTime::milliseconds(10));

  UnitHeader h;
  h.id = 1;
  h.sent_at_ns = 0;
  // Arrives "now" at t=0 with a 10ms budget: plays at 10ms.
  sink.on_message(tko::Message::from_bytes(h.encode(64)));
  sched.run_until(sim::SimTime::milliseconds(50));
  EXPECT_EQ(sink.stats().played, 1u);
  EXPECT_EQ(sink.stats().play_error_sec.back(), 0.0);

  // A unit whose deadline already passed is a late drop.
  UnitHeader late;
  late.id = 2;
  late.sent_at_ns = 0;  // deadline was 10ms; now is 50ms
  sink.on_message(tko::Message::from_bytes(late.encode(64)));
  EXPECT_EQ(sink.stats().late_drops, 1u);
  // Duplicates are filtered.
  sink.on_message(tko::Message::from_bytes(h.encode(64)));
  EXPECT_EQ(sink.stats().duplicates, 1u);
}

}  // namespace
}  // namespace adaptive::app
