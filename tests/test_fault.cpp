// Fault-injection and adaptive-recovery tests: the serial-number
// arithmetic and RTO-backoff fixes that make long-lived sessions survive
// faults, the fault-plan DSL and injector, the NMI degraded bit, the QoS
// downgrade ladder, and the end-to-end scripted-fault scenario (link flaps
// + burst corruption must provoke renegotiation and segues while every
// application byte still arrives exactly once).
#include "adaptive/scenario.hpp"
#include "mantts/nmi.hpp"
#include "mantts/policy.hpp"
#include "net/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "tko/sa/gbn.hpp"
#include "tko/sa/reliability.hpp"
#include "tko/sa/rtt_estimator.hpp"
#include "tko/sa/selective_repeat.hpp"
#include "tko/sa/seqnum.hpp"
#include "tko/sa/sequencing.hpp"
#include "tko/sa/synthesizer.hpp"
#include "tko/sa/ack_strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace adaptive {
namespace {

using tko::sa::seq_geq;
using tko::sa::seq_gt;
using tko::sa::seq_leq;
using tko::sa::seq_lt;
using tko::sa::seq_max;
using tko::sa::seq_min;

constexpr std::uint32_t kTop = std::numeric_limits<std::uint32_t>::max();

// ---------------------------------------------------------------------------
// RttEstimator: a fresh sample must clear timeout backoff (Karn/Partridge).
// ---------------------------------------------------------------------------

TEST(RttEstimatorFault, FreshSampleClearsBackoff) {
  tko::sa::RttEstimator rtt(sim::SimTime::milliseconds(200));
  rtt.backoff();
  rtt.backoff();
  EXPECT_EQ(rtt.rto(), sim::SimTime::milliseconds(800));
  // Regression: sample() used to leave backoff_shift_ in place, so the
  // first post-loss RTO stayed multiplied even though the loss episode
  // was demonstrably over.
  rtt.sample(sim::SimTime::milliseconds(100));
  EXPECT_EQ(rtt.rto(), sim::SimTime::milliseconds(300));  // srtt + 4*rttvar, no shift
}

// ---------------------------------------------------------------------------
// Serial-number arithmetic (RFC 1982 style)
// ---------------------------------------------------------------------------

TEST(Seqnum, OrdersPlainValues) {
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_FALSE(seq_lt(2, 1));
  EXPECT_FALSE(seq_lt(7, 7));
  EXPECT_TRUE(seq_leq(7, 7));
  EXPECT_TRUE(seq_gt(9, 3));
  EXPECT_TRUE(seq_geq(3, 3));
  EXPECT_EQ(seq_max(4, 9), 9u);
  EXPECT_EQ(seq_min(4, 9), 4u);
}

TEST(Seqnum, OrdersAcrossTheWrapPoint) {
  // 0 is the successor of UINT32_MAX, even though it is numerically below.
  EXPECT_TRUE(seq_lt(kTop, 0));
  EXPECT_FALSE(seq_lt(0, kTop));
  EXPECT_TRUE(seq_lt(kTop - 5, 3));
  EXPECT_TRUE(seq_leq(kTop, kTop));
  EXPECT_TRUE(seq_gt(2, kTop - 2));
  EXPECT_TRUE(seq_geq(0, kTop));
  EXPECT_EQ(seq_max(kTop, 1), 1u);
  EXPECT_EQ(seq_min(kTop, 1), kTop);
}

TEST(Seqnum, SeqLessSortsSerially) {
  std::vector<std::uint32_t> v = {1, kTop, 0, kTop - 1};
  std::sort(v.begin(), v.end(), tko::sa::SeqLess{});
  EXPECT_EQ(v, (std::vector<std::uint32_t>{kTop - 1, kTop, 0, 1}));
}

}  // namespace
}  // namespace adaptive

// The mechanism-level wraparound tests drive GBN/SR through a fake
// SessionCore, same idiom as test_mechanisms.cpp.
namespace adaptive::tko::sa {
namespace {

class FakeCore final : public SessionCore {
public:
  FakeCore() : timers_(sched) {}

  void emit(Pdu&& p) override { emitted.push_back(std::move(p)); }
  void deliver(Message&& m) override { delivered.push_back(m.linearize()); }
  os::TimerFacility& timers() override { return timers_; }
  os::BufferPool& buffers() override { return pool_; }
  [[nodiscard]] sim::SimTime now() const override { return sched.now(); }
  [[nodiscard]] std::size_t receiver_count() const override { return 1; }
  void tx_ready() override {}
  void connection_established() override {}
  void connection_closed(bool) override {}
  void loss_signal() override {}
  void count(std::string_view, double) override {}

  sim::EventScheduler sched;
  os::TimerFacility timers_;
  os::BufferPool pool_;
  std::vector<Pdu> emitted;
  std::vector<std::vector<std::uint8_t>> delivered;
};

Message msg(std::uint8_t tag) { return Message::from_bytes(std::vector<std::uint8_t>{tag}); }

Pdu ack_pdu(std::uint32_t cum) {
  Pdu p;
  p.type = PduType::kAck;
  p.ack = cum;
  return p;
}

/// Sender state positioned two sequences before the wrap point.
ReliabilityState near_wrap_sender() {
  ReliabilityState st;
  st.next_seq = kTop - 1;
  st.send_base = kTop - 1;
  st.rcv_cum = kTop - 2;
  return st;
}

TEST(SeqnumWrap, GbnSenderCrossesWrapUnderCumulativeAcks) {
  FakeCore core;
  ImmediateAck ack;
  PassThrough seq;
  ack.attach(core);
  seq.attach(core);
  GoBackN gbn(sim::SimTime::milliseconds(100), true);
  gbn.attach(core);
  gbn.wire(&ack, &seq);
  gbn.restore(near_wrap_sender());

  for (std::uint8_t i = 0; i < 4; ++i) gbn.send_data(msg(i));
  ASSERT_EQ(core.emitted.size(), 4u);
  EXPECT_EQ(core.emitted[0].seq, kTop - 1);
  EXPECT_EQ(core.emitted[1].seq, kTop);
  EXPECT_EQ(core.emitted[2].seq, 0u);
  EXPECT_EQ(core.emitted[3].seq, 1u);
  EXPECT_EQ(gbn.in_flight(), 4u);

  // A cumulative ack numerically *below* the outstanding sequences must
  // still release everything up to it — 1 succeeds UINT32_MAX serially.
  EXPECT_EQ(gbn.on_ack(ack_pdu(kTop), 9), 2u);
  EXPECT_EQ(gbn.in_flight(), 2u);
  EXPECT_EQ(gbn.on_ack(ack_pdu(1), 9), 2u);
  EXPECT_TRUE(gbn.all_acked());
}

TEST(SeqnumWrap, GbnReceiverDeliversInOrderAcrossWrap) {
  FakeCore core;
  ImmediateAck ack;
  PassThrough seq;
  ack.attach(core);
  seq.attach(core);
  GoBackN gbn(sim::SimTime::milliseconds(100), true);
  gbn.attach(core);
  gbn.wire(&ack, &seq);
  gbn.restore(near_wrap_sender());

  for (std::uint32_t s : {kTop - 1, kTop, 0u, 1u}) {
    Pdu p;
    p.type = PduType::kData;
    p.seq = s;
    p.payload = msg(1);
    gbn.on_data(std::move(p), 9);
  }
  EXPECT_EQ(core.delivered.size(), 4u);
  EXPECT_EQ(core.emitted.back().ack, 1u);  // cumulative ack crossed the wrap

  // Pre-wrap duplicate: numerically above the new cum, serially below it.
  Pdu dup;
  dup.type = PduType::kData;
  dup.seq = kTop;
  dup.payload = msg(1);
  gbn.on_data(std::move(dup), 9);
  EXPECT_EQ(core.delivered.size(), 4u);
  EXPECT_EQ(gbn.stats().duplicates_received, 1u);
}

TEST(SeqnumWrap, SelectiveRepeatBuffersAndNacksAcrossWrap) {
  FakeCore core;
  ImmediateAck ack;
  Resequencer seq;
  ack.attach(core);
  seq.attach(core);
  SelectiveRepeat sr(sim::SimTime::milliseconds(100), true);
  sr.attach(core);
  sr.wire(&ack, &seq);
  sr.restore(near_wrap_sender());
  SequencingState ss;
  ss.next_deliver = kTop - 1;  // position the resequencer at the same point
  seq.restore(std::move(ss));

  auto data = [&](std::uint32_t s) {
    Pdu p;
    p.type = PduType::kData;
    p.seq = s;
    p.payload = msg(1);
    sr.on_data(std::move(p), 9);
  };
  data(kTop - 1);
  data(1);  // gap at kTop and 0: both straddle the wrap
  EXPECT_EQ(core.delivered.size(), 1u);
  std::size_t nacks = 0;
  for (const auto& p : core.emitted) {
    if (p.type == PduType::kNack) ++nacks;
  }
  EXPECT_GE(nacks, 1u);  // the wrap-straddling gap was NACKed, not ignored
  data(kTop);
  data(0);
  EXPECT_EQ(core.delivered.size(), 4u);  // resequencer released the buffer
}

// ---------------------------------------------------------------------------
// Segue with in-flight unacked data: nothing lost, nothing duplicated.
// ---------------------------------------------------------------------------

TEST(SegueFault, InFlightDataSurvivesSegueLosslessly) {
  FakeCore tx_core, rx_core;
  ImmediateAck tx_ack, rx_ack;
  PassThrough tx_seq;
  Resequencer rx_seq;
  tx_ack.attach(tx_core);
  tx_seq.attach(tx_core);
  rx_ack.attach(rx_core);
  rx_seq.attach(rx_core);

  GoBackN tx(sim::SimTime::milliseconds(100), true);
  tx.attach(tx_core);
  tx.wire(&tx_ack, &tx_seq);
  SelectiveRepeat rx(sim::SimTime::milliseconds(100), true);
  rx.attach(rx_core);
  rx.wire(&rx_ack, &rx_seq);

  // Five PDUs in flight; only the first two reach the receiver pre-segue.
  for (std::uint8_t i = 1; i <= 5; ++i) tx.send_data(msg(i));
  for (std::size_t i = 0; i < 2; ++i) {
    Pdu copy = tx_core.emitted[i];
    copy.payload = tx_core.emitted[i].payload.clone();
    rx.on_data(std::move(copy), 1);
  }
  (void)tx.on_ack(ack_pdu(2), 1);
  ASSERT_EQ(tx.in_flight(), 3u);

  // Mid-transfer reconfiguration on both ends (the paper's segue): the
  // new sender instance must still hold 3,4,5; the new receiver instance
  // must remember it has seen 1,2.
  SelectiveRepeat tx2(sim::SimTime::milliseconds(100), true);
  tx2.attach(tx_core);
  tx2.segue_from(tx);
  tx2.wire(&tx_ack, &tx_seq);
  GoBackN rx2(sim::SimTime::milliseconds(100), true);
  rx2.attach(rx_core);
  rx2.segue_from(rx);
  rx2.wire(&rx_ack, &rx_seq);
  EXPECT_EQ(tx2.in_flight(), 3u);

  // Deliver everything sent so far (including a duplicate of 2) post-segue.
  const std::size_t already = tx_core.emitted.size();
  for (std::size_t i = 1; i < already; ++i) {
    Pdu copy = tx_core.emitted[i];
    copy.payload = tx_core.emitted[i].payload.clone();
    rx2.on_data(std::move(copy), 1);
  }
  EXPECT_EQ(rx_core.delivered.size(), 5u);  // zero loss ...
  std::map<std::uint8_t, int> seen;
  for (const auto& d : rx_core.delivered) seen[d.at(0)]++;
  for (const auto& [tag, n] : seen) EXPECT_EQ(n, 1) << "payload " << int(tag) << " duplicated";
  EXPECT_EQ(rx2.stats().duplicates_received, 1u);  // ... and the dup was filtered

  (void)tx2.on_ack(ack_pdu(5), 1);
  EXPECT_TRUE(tx2.all_acked());
}

}  // namespace
}  // namespace adaptive::tko::sa

namespace adaptive {
namespace {

// ---------------------------------------------------------------------------
// Fault-plan DSL
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKindWithOptions) {
  std::vector<std::string> errors;
  const auto plan = sim::parse_fault_plan(
      "down@2+0.8:link=1;"
      "flap@2+0.2:link=0,count=3,period=1.5;"
      "burst@1.5+4:link=0,ber=1e-4,g2b=0.07,b2g=0.4;"
      "delay@3+2:link=0,add=0.25;"
      "bw@3+2:link=0,factor=0.1;"
      "partition@5+1:node=2",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(plan.faults.size(), 6u);

  EXPECT_EQ(plan.faults[0].kind, sim::FaultKind::kLinkDown);
  EXPECT_EQ(plan.faults[0].at, sim::SimTime::seconds(2));
  EXPECT_EQ(plan.faults[0].duration, sim::SimTime::milliseconds(800));
  EXPECT_EQ(plan.faults[0].link, 1u);

  EXPECT_EQ(plan.faults[1].kind, sim::FaultKind::kLinkFlap);
  EXPECT_EQ(plan.faults[1].count, 3u);
  EXPECT_EQ(plan.faults[1].period, sim::SimTime::milliseconds(1500));

  EXPECT_EQ(plan.faults[2].kind, sim::FaultKind::kBurstLoss);
  EXPECT_DOUBLE_EQ(plan.faults[2].burst_error_rate, 1e-4);
  EXPECT_DOUBLE_EQ(plan.faults[2].p_good_to_bad, 0.07);
  EXPECT_DOUBLE_EQ(plan.faults[2].p_bad_to_good, 0.4);

  EXPECT_EQ(plan.faults[3].kind, sim::FaultKind::kLatencySpike);
  EXPECT_EQ(plan.faults[3].extra_delay, sim::SimTime::milliseconds(250));

  EXPECT_EQ(plan.faults[4].kind, sim::FaultKind::kBandwidthDrop);
  EXPECT_DOUBLE_EQ(plan.faults[4].bandwidth_factor, 0.1);

  EXPECT_EQ(plan.faults[5].kind, sim::FaultKind::kPartition);
  EXPECT_EQ(plan.faults[5].node, 2u);

  EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, MalformedSpecsReportButDoNotPoisonTheRest) {
  std::vector<std::string> errors;
  const auto plan = sim::parse_fault_plan(
      "wobble@1;down@x+1:link=0;down@2:link=abc;down@3+1:link=0", &errors);
  ASSERT_EQ(plan.faults.size(), 1u);  // only the last spec is well formed
  EXPECT_EQ(plan.faults[0].at, sim::SimTime::seconds(3));
  EXPECT_EQ(errors.size(), 3u);
}

TEST(FaultPlan, EmptyTextIsAnEmptyPlan) {
  EXPECT_TRUE(sim::parse_fault_plan("").empty());
  EXPECT_TRUE(sim::parse_fault_plan("  ;  ").empty());
}

// ---------------------------------------------------------------------------
// Fault injector against a live topology
// ---------------------------------------------------------------------------

TEST(FaultInjector, DownEpisodeTogglesBothDirectionsAndRestores) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan("down@1+0.5:link=0"));

  world.run_for(sim::SimTime::milliseconds(1100));
  EXPECT_FALSE(world.network().link(fwd).is_up());
  EXPECT_FALSE(world.network().link(fwd ^ 1u).is_up());

  world.run_for(sim::SimTime::milliseconds(500));
  EXPECT_TRUE(world.network().link(fwd).is_up());
  EXPECT_TRUE(world.network().link(fwd ^ 1u).is_up());
  EXPECT_EQ(injector.stats().episodes_started, 1u);
  EXPECT_EQ(injector.stats().episodes_ended, 1u);
}

TEST(FaultInjector, BurstEpisodeRestoresTheSavedLinkConfig) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);
  const auto before = world.network().link(fwd).config();

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan("burst@0.5+1:link=0,ber=1e-3"));

  world.run_for(sim::SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(world.network().link(fwd).config().burst_error_rate, 1e-3);
  EXPECT_GT(world.network().link(fwd).config().p_good_to_bad, 0.0);

  world.run_for(sim::SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(world.network().link(fwd).config().burst_error_rate,
                   before.burst_error_rate);
  EXPECT_DOUBLE_EQ(world.network().link(fwd).config().p_good_to_bad, before.p_good_to_bad);
}

// A partition ends by restoring what it took down, not more: the mobile
// host starts with one of its four attachments up, and the idle three must
// stay down after the partition (they used to come back up, leaving the
// host multi-homed behind the mobility controller's back).
TEST(FaultInjector, PartitionRestoresOnlyThePairsItFoundUp) {
  World world([](sim::EventScheduler& s) { return net::make_mobile_wan(s, 4, 0, 1); });
  const auto& attachments = world.topology().attachments;
  ASSERT_EQ(attachments.size(), 4u);
  auto up_now = [&] {
    std::vector<bool> up;
    for (const net::LinkId fwd : attachments) {
      EXPECT_EQ(world.network().link(fwd).is_up(), world.network().link(fwd ^ 1u).is_up());
      up.push_back(world.network().link(fwd).is_up());
    }
    return up;
  };
  const std::vector<bool> before = up_now();
  ASSERT_EQ(std::count(before.begin(), before.end(), true), 1);

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan("partition@1+1:node=0"));
  world.run_for(sim::SimTime::milliseconds(1500));
  const std::vector<bool> during = up_now();
  EXPECT_EQ(std::count(during.begin(), during.end(), true), 0);

  world.run_for(sim::SimTime::seconds(1));
  EXPECT_EQ(up_now(), before);
  EXPECT_EQ(injector.stats().episodes_ended, 1u);
}

// Targets resolve once, when the plan is armed: a spec of any kind that
// names no scenario link or host is one unresolved target, and none of
// its episodes begins, ends or reaches the trace.
TEST(FaultInjector, UnresolvableTargetsAreCountedNotFatal) {
  for (const char* text :
       {"down@0.1+0.1:link=99", "flap@0.1+0.1:link=99,count=3,period=0.2",
        "burst@0.1+0.1:link=99,ber=1e-3", "delay@0.1+0.1:link=99,add=0.01",
        "bw@0.1+0.1:link=99,factor=0.5", "mutate@0.1+0.1:link=99,corrupt=0.1",
        "partition@0.1+0.1:node=99"}) {
    SCOPED_TRACE(text);
    World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
    world.trace().enable();
    net::FaultInjector injector(world.network(), world.topology().scenario_links,
                                world.topology().hosts);
    const auto plan = sim::parse_fault_plan(text);
    ASSERT_EQ(plan.faults.size(), 1u);
    injector.arm(plan);
    world.run_for(sim::SimTime::seconds(1));
    EXPECT_EQ(injector.stats().unresolved_targets, 1u);
    EXPECT_EQ(injector.stats().episodes_started, 0u);
    EXPECT_EQ(injector.stats().episodes_ended, 0u);
    for (const auto& e : world.trace().snapshot()) {
      EXPECT_NE(std::string(e.name).rfind("net.fault.", 0), 0u) << e.name;
    }
  }
}

// A script and the injector each own one reason for a pair to be down:
// setting the pair up inside an outage window does not end the window,
// and failing it inside one keeps it down after the window ends.
TEST(FaultInjector, OutageWindowsComposeWithScriptedLinkState) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  net::Network& net = world.network();
  const net::LinkId fwd = world.topology().scenario_links.at(0);
  auto up = [&] {
    EXPECT_EQ(net.link(fwd).is_up(), net.link(fwd ^ 1u).is_up());
    return net.link(fwd).is_up();
  };
  net::FaultInjector injector(net, world.topology().scenario_links, world.topology().hosts);
  injector.arm(sim::parse_fault_plan("down@1+1:link=0;down@3+1:link=0"));

  world.run_for(sim::SimTime::milliseconds(1500));
  net.set_link_pair_up(fwd, true);  // inside the first window
  EXPECT_FALSE(up());
  world.run_for(sim::SimTime::seconds(1));
  EXPECT_TRUE(up());  // the window ended; the pair is set up

  world.run_for(sim::SimTime::seconds(1));
  net.set_link_pair_up(fwd, false);  // inside the second window: failed for good
  world.run_for(sim::SimTime::seconds(1));
  EXPECT_FALSE(up());
  EXPECT_EQ(injector.stats().episodes_ended, 2u);
}

// ---------------------------------------------------------------------------
// NMI degraded bit
// ---------------------------------------------------------------------------

TEST(NmiDegraded, LinkDownMarksPathDegraded) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  mantts::NetworkMonitorInterface nmi(world.network(), world.node(0));

  auto d = nmi.sample(world.node(1));
  EXPECT_TRUE(d.reachable);
  EXPECT_FALSE(d.degraded);

  world.network().set_link_pair_up(world.topology().scenario_links.at(0), false);
  d = nmi.sample(world.node(1));
  EXPECT_FALSE(d.reachable);
  EXPECT_TRUE(d.degraded);

  world.network().set_link_pair_up(world.topology().scenario_links.at(0), true);
  d = nmi.sample(world.node(1));
  EXPECT_TRUE(d.reachable);
  EXPECT_FALSE(d.degraded);
}

TEST(NmiDegraded, BurstCorruptionCrossesTheWorstCaseBerLine) {
  // Bit corruption never shows up in recent_loss_rate (corrupted packets
  // deliver at the net layer and die at the session checksum), so the
  // degraded bit must key off the worst-case BER instead.
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  mantts::NetworkMonitorInterface nmi(world.network(), world.node(0));

  const net::LinkId fwd = world.topology().scenario_links.at(0);
  for (net::LinkId id : {fwd, static_cast<net::LinkId>(fwd ^ 1u)}) {
    net::LinkConfig cfg = world.network().link(id).config();
    cfg.p_good_to_bad = 0.05;
    cfg.p_bad_to_good = 0.3;
    cfg.burst_error_rate = 1e-4;  // >= kDegradedBer while in the bad state
    world.network().link(id).set_config(cfg);
  }
  const auto d = nmi.sample(world.node(1));
  EXPECT_TRUE(d.reachable);
  EXPECT_GE(d.bit_error_rate, mantts::kDegradedBer);
  EXPECT_TRUE(d.degraded);
}

// ---------------------------------------------------------------------------
// QoS downgrade ladder
// ---------------------------------------------------------------------------

TEST(QosDowngrade, EveryRungProducesAValidStricterConfig) {
  tko::sa::SessionConfig cfg;  // defaults: sliding window + selective repeat
  for (int rung = 0; rung < mantts::kQosDowngradeRungs; ++rung) {
    auto down = mantts::downgrade_qos(cfg, rung);
    ASSERT_TRUE(down.has_value()) << "rung " << rung;
    EXPECT_NE(*down, cfg) << "rung " << rung << " must change the config";
    EXPECT_TRUE(tko::sa::Synthesizer::validate(*down).empty())
        << "rung " << rung << " produced an invalid config";
    cfg = *down;
  }
  EXPECT_FALSE(mantts::downgrade_qos(cfg, mantts::kQosDowngradeRungs).has_value());
}

TEST(QosDowngrade, LadderNeverAddsRecoveryToALightweightConfig) {
  tko::sa::SessionConfig cfg;
  cfg.recovery = tko::sa::RecoveryScheme::kNone;  // loss-tolerant isochronous
  for (int rung = 0; rung < mantts::kQosDowngradeRungs; ++rung) {
    auto down = mantts::downgrade_qos(cfg, rung);
    ASSERT_TRUE(down.has_value());
    EXPECT_EQ(down->recovery, tko::sa::RecoveryScheme::kNone);
    cfg = *down;
  }
}

// ---------------------------------------------------------------------------
// End-to-end: scripted faults provoke recovery with zero data loss
// ---------------------------------------------------------------------------

// A bandwidth cut so deep that one packet's serialization time is past
// int64 nanoseconds: the rate saturates, the backbone stays busy past the
// run, and the run ends normally instead of scheduling into the past
// (the int64 cast of ~5e306 ns was undefined; on x86 it gave INT64_MIN).
TEST(FaultScenario, VanishingBandwidthKeepsTheLinkBusyInsteadOfCrashing) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 1); });
  RunOptions opt;
  opt.application = app::Table1App::kVoice;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::fault_recovery_rules();
  opt.faults = sim::parse_fault_plan("bw@1+1:link=0,factor=1e-300");
  opt.duration = sim::SimTime::seconds(3);
  opt.drain = sim::SimTime::seconds(1);
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.fault.episodes_started, 1u);
  EXPECT_EQ(out.fault.episodes_ended, 1u);
  EXPECT_GT(out.sink.units_received, 0u);  // the first second got through

  const auto ceiling = static_cast<std::int64_t>(sim::Rate::kMaxTransmissionNs);
  EXPECT_EQ(sim::Rate::bps(1.5e6 * 1e-300).transmission_time(1000).ns(), ceiling);
  EXPECT_EQ(sim::Rate::bps(0).transmission_time(1000).ns(), ceiling);
  EXPECT_EQ(sim::Rate::bps(0).transmission_time(0).ns(), ceiling);  // 0/0
  // In-range results are the plain truncated quotient, as before.
  EXPECT_EQ(sim::Rate::mbps(10).transmission_time(1000), sim::SimTime::microseconds(800));
  EXPECT_EQ(sim::Rate::mbps(1.5).transmission_time(1028).ns(), 5482666);
}

TEST(FaultScenario, FlapAndBurstProvokeRecoveryWithZeroDataLoss) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 11); });

  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::fault_recovery_rules();
  opt.faults = sim::parse_fault_plan("flap@2+0.3:link=0,count=3,period=1;burst@1+4:link=0,ber=1e-4");
  opt.scale = 0.35;  // fits the impaired 1.5 Mbps backbone within drain
  opt.duration = sim::SimTime::seconds(8);
  opt.drain = sim::SimTime::seconds(12);
  opt.seed = 11;
  opt.collect_metrics = true;

  const auto out = run_scenario(world, opt);

  // The injector ran the whole plan: 3 flap episodes + 1 burst episode.
  EXPECT_EQ(out.fault.episodes_started, 4u);
  EXPECT_EQ(out.fault.episodes_ended, 4u);

  // The faults were felt and answered: at least one acked RECONFIG
  // renegotiation and at least one mechanism segue.
  EXPECT_GE(out.mantts.renegotiations, 1u);
  EXPECT_GE(out.reconfigurations, 1u);
  EXPECT_GE(out.mantts.faults_detected, 1u);

  // ... and recovery closed out: the NMI saw the path healthy again.
  EXPECT_GE(out.mantts.recoveries, 1u);
  const auto rec = world.repository().systemwide_histogram(unites::metrics::kRecoveryTimeNs);
  EXPECT_EQ(rec.count(), out.mantts.recoveries);
  EXPECT_GT(rec.p50(), 0.0);

  // Zero application-visible loss or duplication across every segue.
  EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
  EXPECT_EQ(out.sink.duplicates, 0u);
  EXPECT_EQ(out.qos.loss_fraction, 0.0);
  EXPECT_TRUE(out.qos.order_ok);
}

}  // namespace
}  // namespace adaptive
