// Chaos-engine tests: the seeded adversarial plan generator, the
// overlap-safe fault injector, wire-mutation hardening (checksum burst
// detection, PDU flag validation, wild ack/sequence rejection), the
// session liveness watchdog, the delivery-invariant oracle, and the
// minimized chaos-seed regression corpus.
//
// Regressions pinned here (found during chaos development):
//  * FaultInjector restored overlapping same-link windows to the config
//    saved at each window's own start, so the link could stay degraded
//    after all faults ended (or come back up while an outage still
//    covered it).
//  * FaultInjector::record passed a local std::string's c_str() as a
//    TraceEvent detail; the ring kept the dangling pointer, making sweep
//    trace digests nondeterministic whenever fault events were traced.
//  * A corrupted cumulative ack serially ahead of everything sent (it
//    slipped through on a no-checksum config — chaos seed ethernet/342;
//    the corpus now replays ethernet/29156, which forges one under
//    today's bulk traffic) reaped unacknowledged data the receiver never
//    got: silent loss.
#include "adaptive/scenario.hpp"
#include "adaptive/sweep.hpp"
#include "mantts/policy.hpp"
#include "net/fault_injector.hpp"
#include "os/buffer_pool.hpp"
#include "sim/chaos.hpp"
#include "sim/fault_plan.hpp"
#include "tko/pdu.hpp"
#include "tko/sa/ack_strategy.hpp"
#include "tko/sa/gbn.hpp"
#include "tko/sa/selective_repeat.hpp"
#include "tko/sa/sequencing.hpp"
#include "unites/metric.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace adaptive {
namespace {

// ---------------------------------------------------------------------------
// ChaosPlanGenerator: pure, bounded, shard-order-independent derivation.
// ---------------------------------------------------------------------------

sim::ChaosProfile wan_profile() {
  sim::ChaosProfile p;
  p.link_count = 3;
  p.horizon_sec = 8.0;
  p.max_faults = 6;
  return p;
}

TEST(ChaosPlan, SameSeedDerivesTheSamePlan) {
  const sim::ChaosPlanGenerator gen(wan_profile());
  for (std::uint64_t seed : {1ULL, 7ULL, 123456789ULL}) {
    EXPECT_EQ(gen.generate(seed).describe(), gen.generate(seed).describe());
  }
}

TEST(ChaosPlan, DistinctSeedsDeriveDistinctPlans) {
  const sim::ChaosPlanGenerator gen(wan_profile());
  EXPECT_NE(gen.generate(1).describe(), gen.generate(2).describe());
}

TEST(ChaosPlan, PlansRespectTheProfileBounds) {
  const sim::ChaosProfile prof = wan_profile();
  const sim::ChaosPlanGenerator gen(prof);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const sim::FaultPlan plan = gen.generate(seed);
    ASSERT_GE(plan.faults.size(), prof.min_faults) << "seed " << seed;
    ASSERT_LE(plan.faults.size(), prof.max_faults) << "seed " << seed;
    for (const auto& f : plan.faults) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ": " + f.describe());
      EXPECT_LT(f.link, prof.link_count);
      EXPECT_GT(f.at, sim::SimTime::zero());
      EXPECT_GT(f.duration, sim::SimTime::zero());
      // Partitions are scripted-only: the generator never draws one.
      EXPECT_NE(f.kind, sim::FaultKind::kPartition);
      // Every window closes inside the horizon, leaving the tail free for
      // recovery (flaps count their whole episode train).
      const sim::SimTime tail = f.kind == sim::FaultKind::kLinkFlap && f.count > 1
                                    ? f.period * static_cast<std::int64_t>(f.count - 1)
                                    : sim::SimTime::zero();
      EXPECT_LE((f.at + tail + f.duration).sec(), prof.horizon_sec);
    }
  }
}

TEST(ChaosPlan, DerivationIsShardOrderIndependent) {
  // The same seeds generated from different threads, interleaved with
  // other seeds' generations, must produce identical plans — the property
  // that lets `--jobs N` replay exactly what `--jobs 1` ran.
  const sim::ChaosPlanGenerator gen(wan_profile());
  std::vector<std::string> serial;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) serial.push_back(gen.generate(seed).describe());

  std::vector<std::string> threaded(16);
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      // Reverse order inside each worker: order must not matter.
      for (std::size_t i = 4; i-- > 0;) {
        const std::size_t idx = w * 4 + i;
        threaded[idx] = gen.generate(idx + 1).describe();
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(serial, threaded);
}

// ---------------------------------------------------------------------------
// FaultInjector overlap regressions: overlapping windows on the same link
// must compose while active and restore the pre-fault baseline exactly
// when the last one ends. (The old per-episode save/restore restored the
// config captured at each window's own start — the second window's save
// had already been faulted by the first, so the link stayed degraded.)
// ---------------------------------------------------------------------------

TEST(FaultInjectorOverlap, OverlappingBandwidthWindowsRestoreTheBaseline) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);
  const auto baseline = world.network().link(fwd).config();

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan("bw@1+2:link=0,factor=0.5;bw@2+2:link=0,factor=0.25"));

  auto bps = [&] { return world.network().link(fwd).config().bandwidth.bits_per_sec(); };
  world.run_until(sim::SimTime::milliseconds(1500));  // first only
  EXPECT_DOUBLE_EQ(bps(), baseline.bandwidth.bits_per_sec() * 0.5);
  world.run_until(sim::SimTime::milliseconds(2500));  // both active
  EXPECT_DOUBLE_EQ(bps(), baseline.bandwidth.bits_per_sec() * 0.5 * 0.25);
  world.run_until(sim::SimTime::milliseconds(3200));  // second only
  EXPECT_DOUBLE_EQ(bps(), baseline.bandwidth.bits_per_sec() * 0.25);
  world.run_until(sim::SimTime::milliseconds(4200));  // all ended
  EXPECT_DOUBLE_EQ(bps(), baseline.bandwidth.bits_per_sec());
}

TEST(FaultInjectorOverlap, MixedKindWindowsComposeAgainstTheBaseline) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);
  const auto baseline = world.network().link(fwd).config();

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan(
      "delay@1+2:link=0,add=0.1;bw@1.5+2:link=0,factor=0.5;"
      "mutate@2+1:link=0,corrupt=0.2,trunc=0.1"));

  auto cfg = [&] { return world.network().link(fwd).config(); };
  world.run_until(sim::SimTime::milliseconds(2500));  // all three active
  EXPECT_DOUBLE_EQ(cfg().propagation_delay.sec(), baseline.propagation_delay.sec() + 0.1);
  EXPECT_DOUBLE_EQ(cfg().bandwidth.bits_per_sec(), baseline.bandwidth.bits_per_sec() * 0.5);
  EXPECT_DOUBLE_EQ(cfg().corrupt_probability, 0.2);
  EXPECT_DOUBLE_EQ(cfg().truncate_probability, 0.1);

  world.run_until(sim::SimTime::seconds(6));  // every window closed
  EXPECT_DOUBLE_EQ(cfg().propagation_delay.sec(), baseline.propagation_delay.sec());
  EXPECT_DOUBLE_EQ(cfg().bandwidth.bits_per_sec(), baseline.bandwidth.bits_per_sec());
  EXPECT_DOUBLE_EQ(cfg().corrupt_probability, 0.0);
  EXPECT_DOUBLE_EQ(cfg().truncate_probability, 0.0);
}

TEST(FaultInjectorOverlap, OverlappingOutagesAreRefcounted) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan("down@1+1:link=0;down@1.5+1:link=0"));

  world.run_until(sim::SimTime::milliseconds(2200));  // first ended, second active
  // Old behaviour: the first end_episode brought the pair up while the
  // second outage window still covered it.
  EXPECT_FALSE(world.network().link(fwd).is_up());
  world.run_until(sim::SimTime::milliseconds(2600));  // both ended
  EXPECT_TRUE(world.network().link(fwd).is_up());
}

TEST(FaultInjectorOverlap, SelfOverlappingFlapStaysDownUntilTheLastEpisodeEnds) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 7); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  // Episodes [1,1.5], [1.2,1.7], [1.4,1.9]: each overlaps the next.
  injector.arm(sim::parse_fault_plan("flap@1+0.5:link=0,count=3,period=0.2"));

  for (const std::int64_t ms : {1100, 1300, 1550, 1750}) {
    world.run_until(sim::SimTime::milliseconds(ms));
    EXPECT_FALSE(world.network().link(fwd).is_up()) << "t=" << ms << "ms";
  }
  world.run_until(sim::SimTime::seconds(2));
  EXPECT_TRUE(world.network().link(fwd).is_up());
}

// ---------------------------------------------------------------------------
// Checksum hardening under burst corruption: every contiguous 1-, 2-, and
// 8-bit flip anywhere in the wire image must be caught, and a truncated
// PDU must never pass validation.
// ---------------------------------------------------------------------------

tko::Pdu sample_pdu(os::BufferPool& pool, std::size_t payload_bytes) {
  tko::Pdu p;
  p.type = tko::PduType::kData;
  p.session_id = 42;
  p.seq = 1234;
  p.ack = 99;
  p.window = 16;
  p.aux = 7;
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i * 37);
  p.payload = tko::Message::from_bytes(payload, &pool);
  return p;
}

std::vector<std::uint8_t> sample_wire(os::BufferPool& pool, tko::ChecksumKind kind,
                                      tko::ChecksumPlacement placement,
                                      std::size_t payload_bytes = 61) {
  return tko::encode_pdu(sample_pdu(pool, payload_bytes), kind, placement).linearize();
}

tko::DecodeStatus decode_bytes(os::BufferPool& pool, const std::vector<std::uint8_t>& bytes) {
  return tko::decode_pdu(tko::Message::from_bytes(bytes, &pool)).status;
}

TEST(ChecksumBurst, ContiguousFlipsOfOneTwoAndEightBitsAreAlwaysDetected) {
  os::BufferPool pool;
  for (const auto kind : {tko::ChecksumKind::kInternet16, tko::ChecksumKind::kCrc32}) {
    for (const auto placement :
         {tko::ChecksumPlacement::kTrailer, tko::ChecksumPlacement::kHeader}) {
      const auto clean = sample_wire(pool, kind, placement);
      ASSERT_EQ(decode_bytes(pool, clean), tko::DecodeStatus::kOk);
      const std::size_t bits = clean.size() * 8;
      for (const std::size_t len : {1u, 2u, 8u}) {
        for (std::size_t first = 0; first + len <= bits; ++first) {
          auto mutated = clean;
          for (std::size_t b = first; b < first + len; ++b) {
            mutated[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
          }
          ASSERT_NE(decode_bytes(pool, mutated), tko::DecodeStatus::kOk)
              << "undetected " << len << "-bit burst at bit " << first << " (kind "
              << static_cast<int>(kind) << ", placement " << static_cast<int>(placement) << ")";
        }
      }
    }
  }
}

TEST(ChecksumBurst, TruncatedPdusNeverPassValidation) {
  os::BufferPool pool;
  for (const auto kind : {tko::ChecksumKind::kNone, tko::ChecksumKind::kInternet16,
                          tko::ChecksumKind::kCrc32}) {
    const auto clean = sample_wire(pool, kind, tko::ChecksumPlacement::kTrailer);
    ASSERT_EQ(decode_bytes(pool, clean), tko::DecodeStatus::kOk);
    for (std::size_t keep = 0; keep < clean.size(); ++keep) {
      const std::vector<std::uint8_t> cut(clean.begin(),
                                          clean.begin() + static_cast<std::ptrdiff_t>(keep));
      ASSERT_NE(decode_bytes(pool, cut), tko::DecodeStatus::kOk)
          << "truncation to " << keep << " of " << clean.size() << " bytes passed (kind "
          << static_cast<int>(kind) << ")";
    }
  }
}

TEST(PduHardening, UnknownFlagBitsAreRejectedNotGuessedAt) {
  os::BufferPool pool;
  auto wire = sample_wire(pool, tko::ChecksumKind::kNone, tko::ChecksumPlacement::kTrailer);
  wire[2] |= 0x20;  // flags high byte: a bit no encoder version sets
  EXPECT_EQ(decode_bytes(pool, wire), tko::DecodeStatus::kMalformed);
}

// Regression: with header checksum placement, flipping the single
// kNoChecksum bit used to convert a checksummed PDU into a "nothing to
// verify" PDU with no length change — the decoder skipped verification
// and accepted arbitrarily corrupted payloads. The echo copy of the bit
// (pdu_flags::kNoChecksumEcho, in the other flags byte) makes the
// downgrade detectable again.
TEST(PduHardening, ChecksumDowngradeByASingleFlagFlipIsRejected) {
  os::BufferPool pool;
  for (const auto kind : {tko::ChecksumKind::kInternet16, tko::ChecksumKind::kCrc32}) {
    auto wire = sample_wire(pool, kind, tko::ChecksumPlacement::kHeader);
    wire[3] ^= 0x10;   // switch verification off...
    wire[30] ^= 0xFF;  // ...then corrupt the payload with impunity
    EXPECT_EQ(decode_bytes(pool, wire), tko::DecodeStatus::kMalformed)
        << "downgrade not caught (kind " << static_cast<int>(kind) << ")";
  }
}

TEST(PduHardening, ContradictoryChecksumFlagsAreRejected) {
  os::BufferPool pool;
  auto wire = sample_wire(pool, tko::ChecksumKind::kNone, tko::ChecksumPlacement::kTrailer);
  // kNoChecksum is set by the encoder; also setting kCrc32 can only come
  // from corruption — and would skip verification if honoured.
  wire[3] |= 0x08;
  EXPECT_EQ(decode_bytes(pool, wire), tko::DecodeStatus::kMalformed);
}

}  // namespace
}  // namespace adaptive

// ---------------------------------------------------------------------------
// Wild ack / wild sequence rejection (silent-loss regression). Driven
// through a fake SessionCore, same idiom as test_mechanisms.cpp.
// ---------------------------------------------------------------------------
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

Pdu data_pdu(std::uint32_t seq) {
  Pdu p;
  p.type = PduType::kData;
  p.seq = seq;
  p.payload = msg(1);
  return p;
}

TEST(WildWire, GbnDropsAcksSeriallyAheadOfAnythingSent) {
  FakeCore core;
  ImmediateAck ack;
  PassThrough seq;
  ack.attach(core);
  seq.attach(core);
  GoBackN gbn(sim::SimTime::milliseconds(100), true);
  gbn.attach(core);
  gbn.wire(&ack, &seq);

  for (std::uint8_t i = 0; i < 3; ++i) gbn.send_data(msg(i));  // seqs 1..3
  ASSERT_EQ(gbn.in_flight(), 3u);

  // Regression: a corrupted cumulative ack ahead of next_seq-1 used to
  // reap all three unacked PDUs — data the receiver never got would never
  // be retransmitted (silent loss). It must be rejected instead.
  EXPECT_EQ(gbn.on_ack(ack_pdu(5000), 9), 0u);
  EXPECT_EQ(gbn.in_flight(), 3u);
  EXPECT_FALSE(gbn.all_acked());
  EXPECT_EQ(gbn.stats().wild_acks_rejected, 1u);

  // A legitimate ack still lands.
  EXPECT_EQ(gbn.on_ack(ack_pdu(3), 9), 3u);
  EXPECT_TRUE(gbn.all_acked());
}

TEST(WildWire, SelectiveRepeatDropsAcksSeriallyAheadOfAnythingSent) {
  FakeCore core;
  ImmediateAck ack;
  Resequencer seq;
  ack.attach(core);
  seq.attach(core);
  SelectiveRepeat sr(sim::SimTime::milliseconds(100), true);
  sr.attach(core);
  sr.wire(&ack, &seq);

  for (std::uint8_t i = 0; i < 3; ++i) sr.send_data(msg(i));  // seqs 1..3
  ASSERT_EQ(sr.in_flight(), 3u);
  EXPECT_EQ(sr.on_ack(ack_pdu(40000), 9), 0u);
  EXPECT_EQ(sr.in_flight(), 3u);
  EXPECT_EQ(sr.stats().wild_acks_rejected, 1u);
  EXPECT_EQ(sr.on_ack(ack_pdu(3), 9), 3u);
  EXPECT_TRUE(sr.all_acked());
}

TEST(WildWire, SelectiveRepeatDropsDataSequencesFarBeyondTheWindow) {
  FakeCore core;
  ImmediateAck ack;
  Resequencer seq;
  ack.attach(core);
  seq.attach(core);
  SelectiveRepeat sr(sim::SimTime::milliseconds(100), true);
  sr.attach(core);
  sr.wire(&ack, &seq);

  // A wild far-ahead sequence would sit in rcv_out_of_order forever —
  // nothing ever fills the fake gap below it. It must be rejected.
  sr.on_data(data_pdu(10'000'000), 9);
  EXPECT_EQ(sr.stats().wild_seqs_rejected, 1u);
  EXPECT_TRUE(core.delivered.empty());

  // In-window data still flows.
  sr.on_data(data_pdu(1), 9);
  sr.on_data(data_pdu(2), 9);
  EXPECT_EQ(core.delivered.size(), 2u);
}

}  // namespace
}  // namespace adaptive::tko::sa

// ---------------------------------------------------------------------------
// Invariant oracle, watchdog, determinism, and the chaos-seed corpus.
// ---------------------------------------------------------------------------
namespace adaptive {
namespace {

RunOutcome reliable_outcome() {
  RunOutcome out;
  out.config.recovery = tko::sa::RecoveryScheme::kGoBackN;
  out.config.ordered_delivery = true;
  out.config.filter_duplicates = true;
  out.receivers = 1;
  out.source.bytes_sent = 1000;
  out.source.units_sent = 10;
  out.sink.bytes_received = 1000;
  return out;
}

TEST(InvariantOracle, CleanReliableRunPassesEveryApplicableRule) {
  const auto rep = InvariantOracle::check(RunOptions{}, reliable_outcome());
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.checked_loss);
  EXPECT_TRUE(rep.checked_duplicates);
  EXPECT_TRUE(rep.checked_ordering);
  EXPECT_TRUE(rep.checked_stall);
  EXPECT_EQ(rep.describe(), "ok");
}

TEST(InvariantOracle, SilentLossOnAReliableClassIsAViolation) {
  auto out = reliable_outcome();
  out.sink.bytes_received = 990;
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "no-silent-loss");
}

TEST(InvariantOracle, MulticastExpectsEveryReceiverToGetEveryByte) {
  auto out = reliable_outcome();
  out.receivers = 3;
  out.sink.bytes_received = 2000;  // one receiver short
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "no-silent-loss");
}

TEST(InvariantOracle, DuplicateAndMisorderedDeliveriesAreViolations) {
  auto out = reliable_outcome();
  out.sink.duplicates = 2;
  out.sink.misordered = 1;
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  ASSERT_EQ(rep.violations.size(), 2u);
  EXPECT_EQ(rep.violations[0].rule, "no-duplicates");
  EXPECT_EQ(rep.violations[1].rule, "in-order");
}

TEST(InvariantOracle, UnrecoveredStallIsAViolationEvenWhenDataArrived) {
  auto out = reliable_outcome();
  out.session.watchdog_stalls = 2;
  out.session.watchdog_recoveries = 1;
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  ASSERT_EQ(rep.violations.size(), 1u);
  EXPECT_EQ(rep.violations[0].rule, "bounded-stall");
}

TEST(InvariantOracle, QosDowngradeGatesDeliveryRulesOffButNotStall) {
  auto out = reliable_outcome();
  out.mantts.qos_downgrades = 1;
  out.sink.bytes_received = 0;  // contract was traded away — not a violation
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.checked_loss);
  EXPECT_FALSE(rep.checked_duplicates);
  EXPECT_TRUE(rep.checked_stall);
}

TEST(InvariantOracle, RefusedSessionHasNoContractToCheck) {
  auto out = reliable_outcome();
  out.refused = true;
  out.sink.bytes_received = 0;
  const auto rep = InvariantOracle::check(RunOptions{}, out);
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.checked_loss);
  EXPECT_FALSE(rep.checked_stall);
}

// ---------------------------------------------------------------------------
// Liveness watchdog: an outage longer than the stall deadline must be
// detected as a stall, recovered from, and end with every byte delivered.
// ---------------------------------------------------------------------------

TEST(Watchdog, OutageStallIsDetectedRecoveredAndLossless) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 11); });

  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::fault_recovery_rules();
  opt.faults = sim::parse_fault_plan("down@2+1.5:link=0");
  opt.scale = 0.35;
  opt.duration = sim::SimTime::seconds(8);
  opt.drain = sim::SimTime::seconds(12);
  opt.seed = 11;
  opt.collect_metrics = true;

  const auto out = run_scenario(world, opt);

  // 1.5s of outage against a 1s no-progress deadline: at least one stall,
  // and every stall recovered once the link came back.
  EXPECT_GE(out.session.watchdog_stalls, 1u);
  EXPECT_EQ(out.session.watchdog_stalls, out.session.watchdog_recoveries);

  // The stall and its recovery landed in UNITES.
  const auto stalls = world.repository().systemwide_histogram(unites::metrics::kWatchdogStall);
  const auto rec =
      world.repository().systemwide_histogram(unites::metrics::kWatchdogRecoveryNs);
  EXPECT_EQ(stalls.count(), out.session.watchdog_stalls);
  EXPECT_EQ(rec.count(), out.session.watchdog_recoveries);
  EXPECT_GT(rec.p50(), 0.0);

  // ... and the delivery contract held end to end.
  EXPECT_TRUE(out.oracle.ok()) << out.oracle.describe();
  EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
  EXPECT_EQ(out.sink.duplicates, 0u);
}

// ---------------------------------------------------------------------------
// Wire-mutation storm: with corruption, duplication, reordering, and
// truncation all armed, a reliable transfer must still deliver every byte
// exactly once, in order.
// ---------------------------------------------------------------------------

TEST(WireMutation, MutationStormDeliversExactlyOnceInOrder) {
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 5); });
  const net::LinkId fwd = world.topology().scenario_links.at(0);

  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::fault_recovery_rules();
  opt.faults = sim::parse_fault_plan(
      "mutate@1+4:link=0,corrupt=0.05,dup=0.1,reorder=0.15,trunc=0.02");
  opt.scale = 0.35;
  opt.duration = sim::SimTime::seconds(8);
  opt.drain = sim::SimTime::seconds(12);
  opt.seed = 5;
  opt.collect_metrics = true;

  const auto out = run_scenario(world, opt);

  // The adversary actually fired...
  const auto& ls = world.network().link(fwd).stats();
  const auto& rs = world.network().link(fwd ^ 1u).stats();
  EXPECT_GT(ls.corrupted + ls.duplicated + ls.reordered + ls.truncated + rs.corrupted +
                rs.duplicated + rs.reordered + rs.truncated,
            0u);
  // ... and the contract held anyway.
  EXPECT_TRUE(out.oracle.ok()) << out.oracle.describe();
  EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
  EXPECT_EQ(out.sink.duplicates, 0u);
  EXPECT_TRUE(out.qos.order_ok);
}

// ---------------------------------------------------------------------------
// Determinism: chaos sweeps must produce byte-identical merged traces for
// any --jobs value. Also pins the dangling-TraceEvent-detail regression:
// fault begin/end events used to carry a local string's c_str(), so two
// identical sweeps digested differently.
// ---------------------------------------------------------------------------

SweepConfig chaos_sweep_config(std::size_t seeds, std::size_t jobs) {
  SweepConfig sc;
  sc.topology = [](std::uint64_t seed) -> World::TopologyFactory {
    return [seed](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, seed); };
  };
  sc.base.application = app::Table1App::kFileTransfer;
  sc.base.mode = RunOptions::Mode::kMantttsAdaptive;
  sc.base.rules = mantts::PolicyEngine::fault_recovery_rules();
  sc.base.scale = 0.35;
  sc.base.duration = sim::SimTime::seconds(8);
  sc.base.drain = sim::SimTime::seconds(12);
  sc.base.collect_metrics = true;
  sc.chaos = 6;
  sc.jobs = jobs;
  sc.capture_trace = true;
  for (std::uint64_t s = 1; s <= seeds; ++s) sc.seeds.push_back(s);
  return sc;
}

TEST(ChaosDeterminism, RepeatedSerialSweepsDigestIdentically) {
  const auto a = run_sweep(chaos_sweep_config(4, 1));
  const auto b = run_sweep(chaos_sweep_config(4, 1));
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace.size(), b.trace.size());
}

TEST(ChaosDeterminism, SerialAndParallelChaosSweepsDigestIdentically) {
  const auto serial = run_sweep(chaos_sweep_config(6, 1));
  const auto parallel = run_sweep(chaos_sweep_config(6, 4));
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].chaos_plan, parallel.runs[i].chaos_plan) << "seed index " << i;
    EXPECT_EQ(serial.runs[i].violations, parallel.runs[i].violations) << "seed index " << i;
  }
}

TEST(ChaosDeterminism, ScriptedFaultTraceDigestsAreStable) {
  // Minimal pin for the dangling-detail bug: any sweep whose trace
  // contains net.fault.* events must digest reproducibly.
  auto make = [](std::size_t jobs) {
    SweepConfig sc = chaos_sweep_config(3, jobs);
    sc.chaos = 0;
    sc.base.faults = sim::parse_fault_plan("flap@2+0.3:link=0,count=3,period=1");
    return sc;
  };
  const auto a = run_sweep(make(1));
  const auto b = run_sweep(make(2));
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

// ---------------------------------------------------------------------------
// Chaos-seed regression corpus: seeds whose generated plans exposed bugs
// during development, replayed end to end so fixed wedges stay fixed.
// ---------------------------------------------------------------------------

struct ChaosSeedCase {
  std::string topology;
  std::size_t max_faults = 0;
  std::uint64_t seed = 0;
  std::string verdict;
};

std::vector<ChaosSeedCase> load_chaos_seed_corpus() {
  const std::string path = std::string(ADAPTIVE_TEST_CORPUS_DIR) + "/chaos_seeds.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::vector<ChaosSeedCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    std::string verdict;
    if (hash != std::string::npos) {
      verdict = line.substr(hash + 1);
      line = line.substr(0, hash);
    }
    std::istringstream fields(line);
    ChaosSeedCase c;
    if (!(fields >> c.topology >> c.max_faults >> c.seed)) continue;
    c.verdict = verdict;
    cases.push_back(std::move(c));
  }
  EXPECT_FALSE(cases.empty()) << "empty corpus at " << path;
  return cases;
}

World::TopologyFactory corpus_topology(const ChaosSeedCase& c) {
  const std::uint64_t seed = c.seed;
  if (c.topology == "congested-wan") {
    return [seed](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, seed); };
  }
  return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 4, seed); };
}

/// Replays one corpus seed through the exact config its sweep ran: the
/// CLI-default lightweight run for "ethernet", the bench_chaos adaptive
/// run for "congested-wan".
RunOutcome replay_chaos_seed(World& world, const ChaosSeedCase& c, std::string* plan_text) {
  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.seed = c.seed;
  opt.collect_metrics = true;
  if (c.topology == "congested-wan") {
    opt.mode = RunOptions::Mode::kMantttsAdaptive;
    opt.rules = mantts::PolicyEngine::fault_recovery_rules();
    opt.scale = 0.35;
    opt.duration = sim::SimTime::seconds(8);
    opt.drain = sim::SimTime::seconds(12);
  } else {
    opt.mode = RunOptions::Mode::kManntts;
    opt.duration = sim::SimTime::seconds(5);
    opt.drain = sim::SimTime::seconds(4);
  }
  const sim::ChaosProfile prof = size_chaos_profile({}, world, opt, c.max_faults);
  opt.faults = sim::ChaosPlanGenerator(prof).generate(c.seed);
  *plan_text = opt.faults->describe();
  return run_scenario(world, opt);
}

TEST(ChaosSeedCorpus, EveryCheckedInSeedReplaysWithoutViolations) {
  for (const auto& c : load_chaos_seed_corpus()) {
    SCOPED_TRACE(c.topology + " seed " + std::to_string(c.seed) + " —" + c.verdict);
    World world(corpus_topology(c));
    std::string plan;
    const RunOutcome out = replay_chaos_seed(world, c, &plan);
    EXPECT_TRUE(out.oracle.ok())
        << "seed " << c.seed << ": " << out.oracle.describe() << "\n  plan : " << plan
        << "\n  repro: adaptive_cli --topology " << c.topology
        << " --app file-transfer --chaos " << c.max_faults << " --seeds " << c.seed;
  }
}

TEST(ChaosSeedCorpus, WatchdogSeedsStallAndRecover) {
  // The congested-wan corpus seeds are there because their plans wedged
  // the session until the watchdog prod existed: replaying them must show
  // the stall actually happening — and being recovered.
  for (const auto& c : load_chaos_seed_corpus()) {
    if (c.topology != "congested-wan") continue;
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    World world(corpus_topology(c));
    std::string plan;
    const RunOutcome out = replay_chaos_seed(world, c, &plan);
    EXPECT_GE(out.session.watchdog_stalls, 1u) << plan;
    EXPECT_EQ(out.session.watchdog_stalls, out.session.watchdog_recoveries);
    EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
  }
}

TEST(ChaosSeedCorpus, WildAckSeedExercisesTheSilentLossGuard) {
  // ethernet/29156: the generated plan's wire corruption forges a
  // cumulative ack ahead of the send window; without the guard the wild
  // ack reaps unacked data (silent loss) and the transfer stalls. The
  // guard must fire and the contract must hold.
  for (const auto& c : load_chaos_seed_corpus()) {
    if (c.topology != "ethernet") continue;
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    World world(corpus_topology(c));
    std::string plan;
    const RunOutcome out = replay_chaos_seed(world, c, &plan);
    const auto wild = world.repository().systemwide_histogram("reliability.wild_ack");
    EXPECT_GE(wild.count(), 1u) << plan;
    EXPECT_TRUE(out.oracle.ok()) << out.oracle.describe();
  }
}

}  // namespace
}  // namespace adaptive
