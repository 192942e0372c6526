// Live QoS-conformance suite (DESIGN §16): the streaming window fold
// (checked against a brute-force recompute of the same event stream), the
// SLO error-budget and fast/slow burn rates, breach/recovery hysteresis,
// contract (re-)registration across RECONFIG / segue / handover, the
// breach-armed flight-recorder bundle, and the determinism gate — a
// 64-seed sweep's conformance plane must be byte-identical between
// --jobs 1 and --jobs 8.
#include "adaptive/sweep.hpp"
#include "app/qos_evaluator.hpp"
#include "mantts/qos_contract.hpp"
#include "unites/conformance.hpp"
#include "unites/export.hpp"
#include "unites/metric.hpp"
#include "unites/repository.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace adaptive {
namespace {

constexpr std::int64_t kW = 250'000'000;  // default window, ns
constexpr std::uint32_t kSid = 42;

sim::SimTime at(std::int64_t ns) { return sim::SimTime(ns); }

/// A latency-only contract: bound 1 ms, everything else vacuous, sized to
/// `duration_windows` windows so budget math is easy to predict.
mantts::QosContract latency_contract(double duration_windows = 100.0) {
  mantts::QosContract c;
  c.session = kSid;
  c.host = 3;
  c.max_latency_ns = 1'000'000;  // 1 ms
  c.max_jitter_ns = -1;
  c.loss_tolerance = 1.0;
  c.sequenced = false;
  c.duplicate_sensitive = false;
  c.duration_ns = static_cast<std::int64_t>(duration_windows * static_cast<double>(kW));
  return c;
}

/// Deliver one unit inside window `idx` (grid anchored at t=0 by the
/// first call with idx 0): late units carry 10 ms latency, on-time 0.1 ms.
void feed_window(unites::ConformanceMonitor& mon, std::size_t idx, bool bad) {
  const std::int64_t t = static_cast<std::int64_t>(idx) * kW + (idx == 0 ? 0 : 1000);
  mon.on_delivery(kSid, static_cast<std::uint32_t>(idx), at(t),
                  bad ? 10'000'000 : 100'000, /*bytes=*/100, false, false);
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::filesystem::path scratch_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("adaptive_conformance_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// grade_window: the single grading function
// ---------------------------------------------------------------------------

TEST(GradeWindow, DimensionsWithoutEvidenceAreVacuouslyTrue) {
  const mantts::QosContract c = latency_contract();
  unites::WindowStats s;  // nothing delivered
  unites::WindowVerdict v;
  unites::grade_window(c, s, /*grade_throughput=*/true, v);
  EXPECT_TRUE(v.ok());
}

TEST(GradeWindow, MeanLatencyOverBoundFailsOnlyLatency) {
  const mantts::QosContract c = latency_contract();
  unites::WindowStats s;
  s.delivered = 2;
  s.expected = 2;
  s.add_latency(3'000'000);
  s.add_latency(4'000'000);
  unites::WindowVerdict v;
  unites::grade_window(c, s, false, v);
  EXPECT_FALSE(v.latency_ok);
  EXPECT_TRUE(v.jitter_ok);
  EXPECT_TRUE(v.loss_ok);
  EXPECT_STREQ(v.worst(), "latency");
}

TEST(GradeWindow, LossToleranceUsesTheEpsilonTheOldEvaluatorUsed) {
  mantts::QosContract c = latency_contract();
  c.max_latency_ns = -1;
  c.loss_tolerance = 1.0 / 3.0;
  unites::WindowStats s;
  s.delivered = 2;
  s.lost = 1;
  s.expected = 3;
  unites::WindowVerdict v;
  unites::grade_window(c, s, false, v);
  EXPECT_TRUE(v.loss_ok);  // exactly at tolerance: representation noise must not fail
  s.lost = 2;
  s.expected = 4;
  unites::grade_window(c, s, false, v);
  EXPECT_FALSE(v.loss_ok);
}

TEST(GradeWindow, QualitativeBitsArmOrderAndDuplicateGrading) {
  mantts::QosContract c = latency_contract();
  c.max_latency_ns = -1;
  unites::WindowStats s;
  s.delivered = 5;
  s.expected = 5;
  s.misordered = 1;
  s.duplicates = 1;
  unites::WindowVerdict v;
  unites::grade_window(c, s, false, v);
  EXPECT_TRUE(v.order_ok);  // contract does not care
  EXPECT_TRUE(v.duplicates_ok);
  c.sequenced = true;
  c.duplicate_sensitive = true;
  unites::grade_window(c, s, false, v);
  EXPECT_FALSE(v.order_ok);
  EXPECT_FALSE(v.duplicates_ok);
}

TEST(GradeWindow, ThroughputFloorGradedOnlyWhenAsked) {
  mantts::QosContract c = latency_contract();
  c.max_latency_ns = -1;
  c.min_throughput_bps = 1e6;
  unites::WindowStats s;
  s.delivered = 1;
  s.expected = 1;
  s.bytes = 100;       // 800 bits over 250 ms = 3.2 kbps, far under the floor
  s.span_ns = kW;
  unites::WindowVerdict v;
  unites::grade_window(c, s, /*grade_throughput=*/false, v);
  EXPECT_TRUE(v.throughput_ok);  // partial/post-mortem: ungraded
  unites::grade_window(c, s, /*grade_throughput=*/true, v);
  EXPECT_FALSE(v.throughput_ok);
}

// ---------------------------------------------------------------------------
// The streaming fold vs a brute-force recompute
// ---------------------------------------------------------------------------

TEST(ConformanceMonitor, WindowFoldMatchesBruteForceRecompute) {
  unites::ConformanceMonitor mon;
  mon.register_contract(latency_contract(), at(0));

  // A deterministic pseudo-random event stream: 400 units, jittered
  // inter-send gaps, latencies spanning both sides of the 1 ms bound.
  struct Event {
    std::int64_t send_ns;
    std::int64_t deliver_ns;
    std::int64_t latency_ns;
  };
  std::vector<Event> events;
  std::uint64_t lcg = 12345;
  const auto next = [&lcg](std::uint64_t mod) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return (lcg >> 33) % mod;
  };
  std::int64_t t = 1'000'000;  // first event anchors the grid here
  for (std::uint32_t u = 0; u < 400; ++u) {
    t += 4'000'000 + static_cast<std::int64_t>(next(8'000'000));
    const auto latency = static_cast<std::int64_t>(200'000 + next(2'000'000));
    events.push_back({t, t + latency, latency});
  }
  // Interleave sends and deliveries into one global time-ordered feed —
  // the monitor consumes events exactly as the simulation emits them.
  struct Feed {
    std::int64_t when_ns;
    bool is_delivery;
    std::uint32_t unit;
  };
  std::vector<Feed> feed;
  for (std::uint32_t u = 0; u < events.size(); ++u) {
    feed.push_back({events[u].send_ns, false, u});
    feed.push_back({events[u].deliver_ns, true, u});
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const Feed& a, const Feed& b) { return a.when_ns < b.when_ns; });
  for (const Feed& f : feed) {
    if (f.is_delivery) {
      mon.on_delivery(kSid, f.unit, at(f.when_ns), events[f.unit].latency_ns, 120, false, false);
    } else {
      mon.on_send(kSid, f.unit, at(f.when_ns));
    }
  }
  mon.finalize(kSid, at(feed.back().when_ns + 1));

  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  ASSERT_FALSE(rep->windows.empty());

  // Brute force: bucket the same deliveries into [anchor + k*W) windows
  // and recompute every per-window figure from the raw samples, folding
  // in the same order the monitor saw them.
  const std::int64_t anchor = events.front().send_ns;  // first event anchors the grid
  std::uint64_t total_delivered = 0;
  for (const unites::WindowVerdict& w : rep->windows) {
    std::uint64_t delivered = 0, late = 0;
    double sum = 0.0, sum_sq = 0.0;
    std::int64_t max_l = 0;
    for (const Feed& f : feed) {
      if (!f.is_delivery) continue;
      const Event& e = events[f.unit];
      if (e.deliver_ns < w.start_ns || e.deliver_ns >= w.end_ns) continue;
      ++delivered;
      const auto l = static_cast<double>(e.latency_ns);
      sum += l;
      sum_sq += l * l;
      max_l = std::max(max_l, e.latency_ns);
      if (e.latency_ns > 1'000'000) ++late;
    }
    EXPECT_EQ(w.stats.delivered, delivered) << "window @" << w.start_ns;
    EXPECT_EQ(w.stats.late, late);
    EXPECT_EQ(w.stats.max_latency_ns, max_l);
    EXPECT_EQ(w.stats.sum_latency_ns, sum);  // identical fold order => exact
    EXPECT_EQ(w.stats.sum_sq_latency_ns, sum_sq);
    if (delivered > 0) {
      const auto mean = static_cast<std::int64_t>(sum / static_cast<double>(delivered));
      EXPECT_EQ(w.stats.mean_latency_ns(), mean);
      EXPECT_EQ(w.latency_ok, mean <= 1'000'000);
    }
    EXPECT_EQ((w.start_ns - anchor) % kW, 0) << "grid must anchor at the first event";
    total_delivered += w.stats.delivered;
  }
  EXPECT_EQ(total_delivered, events.size());
  EXPECT_EQ(rep->cumulative.delivered, events.size());
  EXPECT_EQ(rep->units_sent, events.size());
  // Everything was delivered before finalize: no loss anywhere.
  EXPECT_EQ(rep->cumulative.lost, 0u);
}

TEST(ConformanceMonitor, OutstandingUnitsBecomeLossesPastTheHorizonAndAtFinalize) {
  unites::ConformanceMonitor mon;
  mantts::QosContract c = latency_contract();
  c.max_latency_ns = -1;
  c.loss_tolerance = 0.0;
  mon.register_contract(c, at(0));

  mon.on_send(kSid, 1, at(0));
  mon.on_send(kSid, 2, at(1'000'000));
  mon.on_delivery(kSid, 1, at(2'000'000), 2'000'000, 100, false, false);
  // Unit 2 never arrives. Horizon is 2 s: a send event 3 s later rolls
  // windows whose close is past send+horizon, declaring it lost.
  mon.on_send(kSid, 3, at(3'500'000'000));
  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  std::uint64_t lost = 0;
  for (const auto& w : rep->windows) lost += w.stats.lost;
  EXPECT_EQ(lost, 1u) << "unit 2 must be charged within the horizon";
  // Unit 3 is young, but finalize ends the session: still owed = lost.
  mon.finalize(kSid, at(3'600'000'000));
  EXPECT_EQ(rep->cumulative.lost, 2u);
  EXPECT_LT(rep->time_in_contract, 1.0);  // the loss windows graded bad
}

TEST(ConformanceMonitor, MulticastFanoutOwesNDeliveriesPerUnit) {
  unites::ConformanceMonitor mon;
  mantts::QosContract c = latency_contract();
  c.max_latency_ns = -1;
  c.loss_tolerance = 0.0;
  mon.register_contract(c, at(0));
  mon.set_fanout(kSid, 3);

  mon.on_send(kSid, 1, at(0));
  mon.on_delivery(kSid, 1, at(1'000'000), 1'000'000, 100, false, false);
  mon.on_delivery(kSid, 1, at(1'100'000), 1'100'000, 100, false, false);
  mon.finalize(kSid, at(10'000'000));
  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->cumulative.delivered, 2u);
  EXPECT_EQ(rep->cumulative.lost, 1u);  // the third copy never landed
  EXPECT_LT(rep->qoe, 1.0);
}

// ---------------------------------------------------------------------------
// Budget, burn rates, hysteresis, health rung
// ---------------------------------------------------------------------------

TEST(ConformanceMonitor, BreachNeedsTwoConsecutiveBadWindows) {
  unites::ConformanceMonitor mon;
  // 200-window contract: 5 bad windows burn half the budget, not all of
  // it, so the health verdict isolates the burn-rate alarm.
  mon.register_contract(latency_contract(/*duration_windows=*/200.0), at(0));
  // bad, good, bad, good, ... : never two consecutive bads.
  for (std::size_t i = 0; i < 10; ++i) feed_window(mon, i, i % 2 == 0);
  mon.finalize(kSid, at(10 * kW));
  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->breaches, 0u);
  EXPECT_EQ(rep->first_breach_ns, -1);
  // ...but the alternating stream burns budget at 10x the contract rate:
  // 2 bad of the trailing 4 windows / 0.05 = fast-burn 10 >= the alarm.
  EXPECT_GE(rep->fast_burn, 10.0);
  EXPECT_EQ(rep->health, unites::ContractHealth::kBurning);
}

TEST(ConformanceMonitor, HysteresisEntersAfterTwoBadsExitsAfterTwoCleans) {
  unites::ConformanceMonitor mon;
  mon.register_contract(latency_contract(), at(0));

  // Windows 0-2 good; 3,4 bad (=> breach at window 4's close); 5 good
  // (still in the episode); 6 good (=> recovery); 7-29 good — long enough
  // that the 16-window slow-burn horizon drains back below its alarm.
  for (std::size_t i = 0; i < 30; ++i) feed_window(mon, i, i == 3 || i == 4);

  // Feeding window 29 closed windows 0..28, so the episode is over.
  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->breaches, 1u);
  EXPECT_EQ(rep->recoveries, 1u);
  // The declaring window is the second consecutive bad: detection latency
  // is exactly two windows from the first out-of-contract window's start.
  EXPECT_EQ(rep->first_breach_ns, 3 * kW + 2 * kW);

  mon.finalize(kSid, at(30 * kW));
  EXPECT_EQ(rep->breaches, 1u);
  EXPECT_EQ(rep->windows_bad, 2u);
  EXPECT_EQ(rep->windows.size(), 30u);
  EXPECT_NEAR(rep->time_in_contract, 1.0 - 2.0 / 30.0, 1e-12);
  // Far from the breach, every burn horizon is clean again.
  EXPECT_EQ(rep->fast_burn, 0.0);
  EXPECT_EQ(rep->slow_burn, 0.0);
  EXPECT_EQ(rep->health, unites::ContractHealth::kInContract);
}

TEST(ConformanceMonitor, ExhaustedBudgetPinsHealthBreached) {
  unites::ConformanceMonitor mon;
  // Contract sized to 20 windows: budget floor is max(1, 0.05*20) = 1 bad
  // window, so the second bad window exhausts it.
  mon.register_contract(latency_contract(/*duration_windows=*/20.0), at(0));
  for (std::size_t i = 0; i < 6; ++i) feed_window(mon, i, i < 2);
  mon.finalize(kSid, at(6 * kW));
  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->budget_consumed, 1.0);
  // The episode recovered, but the budget is gone for good: the rung
  // stays breached so policy can see the contract is unsalvageable.
  EXPECT_EQ(rep->health, unites::ContractHealth::kBreached);
}

TEST(ConformanceMonitor, ReRegistrationKeepsHistoryAndGradesAgainstTheNewBounds) {
  unites::ConformanceMonitor mon;
  mon.register_contract(latency_contract(), at(0));
  for (std::size_t i = 0; i < 3; ++i) feed_window(mon, i, /*bad=*/true);

  // Renegotiated (downgrade ladder / resynthesis): 20 ms is fine now.
  mantts::QosContract looser = latency_contract();
  looser.max_latency_ns = 20'000'000;
  mon.register_contract(looser, at(3 * kW));
  EXPECT_EQ(mon.registrations(kSid), 2u);
  for (std::size_t i = 3; i < 6; ++i) feed_window(mon, i, /*bad=*/true);  // same 10 ms latency
  mon.finalize(kSid, at(6 * kW));

  const unites::SessionConformance* rep = mon.report(kSid);
  ASSERT_NE(rep, nullptr);
  ASSERT_GE(rep->windows.size(), 6u);
  EXPECT_FALSE(rep->windows[0].ok());  // graded under the 1 ms contract
  EXPECT_FALSE(rep->windows[1].ok());
  // Windows close lazily on the next event, so the window straddling the
  // re-registration (window 2 closes when window 3's event arrives) is
  // already graded under the renegotiated bounds — as are all later ones.
  EXPECT_TRUE(rep->windows[2].ok());
  EXPECT_TRUE(rep->windows[3].ok());  // same traffic, new bounds
  EXPECT_TRUE(rep->windows[4].ok());
  EXPECT_EQ(rep->registrations, 2u);
}

TEST(ConformanceMonitor, DisabledMonitorIsANoOp) {
  unites::ConformanceMonitor mon;
  mon.set_enabled(false);
  mon.register_contract(latency_contract(), at(0));
  mon.on_send(kSid, 1, at(0));
  mon.on_delivery(kSid, 1, at(1000), 1000, 100, false, false);
  mon.finalize_all(at(kW));
  EXPECT_EQ(mon.session_count(), 0u);
  EXPECT_EQ(mon.health(kSid), unites::ContractHealth::kNone);
}

TEST(ConformanceMonitor, WindowMetricsLandInTheRepository) {
  unites::MetricRepository repo;
  unites::ConformanceMonitor mon;
  mon.set_repository(&repo);
  mon.register_contract(latency_contract(), at(0));
  for (std::size_t i = 0; i < 5; ++i) feed_window(mon, i, i >= 2);
  mon.finalize(kSid, at(5 * kW));
  EXPECT_GT(repo.systemwide_sum(unites::metrics::kQosWindowOk), 0.0);
  EXPECT_GT(repo.systemwide_sum(unites::metrics::kQosBreach), 0.0);
  EXPECT_GT(repo.systemwide_sum(unites::metrics::kQosTimeInContract), 0.0);
  EXPECT_GT(repo.systemwide_sum(unites::metrics::kQosQoe), 0.0);
}

// ---------------------------------------------------------------------------
// Satellites: metric-name discipline, post-mortem delegation
// ---------------------------------------------------------------------------

TEST(ConformanceMetrics, QosFamilyFollowsTheUnitSuffixDiscipline) {
  for (const char* name :
       {unites::metrics::kQosWindowOk, unites::metrics::kQosWindowLatencyNs,
        unites::metrics::kQosWindowJitterNs, unites::metrics::kQosBudgetBurn,
        unites::metrics::kQosBreach, unites::metrics::kQosRecovery,
        unites::metrics::kQosTimeInContract, unites::metrics::kQosQoe,
        unites::metrics::kQosHealth}) {
    EXPECT_TRUE(unites::unit_suffix_ok(name)) << name;
    EXPECT_EQ(unites::classify_metric(name), unites::MetricClass::kBlackbox) << name;
  }
  EXPECT_EQ(unites::metric_unit(unites::metrics::kQosWindowLatencyNs), "ns");
  EXPECT_EQ(unites::metric_unit(unites::metrics::kQosWindowJitterNs), "ns");
  EXPECT_EQ(unites::metric_unit(unites::metrics::kQosWindowOk), "");
}

TEST(QosReport, VerdictAppendsTimeInContractOnlyForWindowedRuns) {
  app::QosReport r;
  EXPECT_EQ(r.verdict(), "PASS");  // tier-1 Table 1 semantics untouched
  r.windowed = true;
  r.time_in_contract = 0.973;
  EXPECT_EQ(r.verdict(), "PASS [in-contract 97.3%]");
  r.latency_ok = false;
  r.loss_ok = false;
  EXPECT_EQ(r.verdict(), "FAIL(latency,loss) [in-contract 97.3%]");
}

TEST(QosReport, EvaluateQosDelegatesToTheSharedGrader) {
  // The post-mortem evaluator and grade_window() must agree by
  // construction: evaluate_qos folds into a WindowStats and calls the
  // same function the live windows use.
  app::SourceStats src;
  src.units_sent = 10;
  src.bytes_sent = 1000;
  app::SinkStats sink;
  sink.units_received = 9;
  sink.bytes_received = 900;
  sink.first_arrival = sim::SimTime::seconds(1);
  sink.last_arrival = sim::SimTime::seconds(2);
  for (int i = 0; i < 9; ++i) sink.latencies_sec.push_back(0.004);

  mantts::Acd acd;
  acd.quantitative.max_latency = sim::SimTime::milliseconds(5);
  acd.quantitative.loss_tolerance = 0.2;
  acd.qualitative.sequenced_delivery = true;

  const app::QosReport r = app::evaluate_qos(acd, src, sink);
  EXPECT_TRUE(r.latency_ok);
  EXPECT_TRUE(r.loss_ok);  // 10% lost, 20% tolerated
  EXPECT_EQ(r.mean_latency_ns, 4'000'000);
  EXPECT_EQ(r.loss_fraction, 0.1);
  EXPECT_FALSE(r.windowed);

  acd.quantitative.loss_tolerance = 0.05;
  const app::QosReport strict = app::evaluate_qos(acd, src, sink);
  EXPECT_FALSE(strict.loss_ok);

  const unites::WindowStats s = app::cumulative_stats(src, sink);
  EXPECT_EQ(s.delivered, 9u);
  EXPECT_EQ(s.lost, 1u);
  EXPECT_EQ(s.span_ns, sim::SimTime::seconds(1).ns());
}

// ---------------------------------------------------------------------------
// End to end: scenario wiring, MANTTS lifecycle, NMI rung
// ---------------------------------------------------------------------------

TEST(ConformanceScenario, CleanRunStaysInContractAndFeedsEveryExport) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 91); });
  RunOptions opt;
  opt.application = app::Table1App::kVoice;
  opt.duration = sim::SimTime::seconds(4);
  opt.collect_metrics = true;
  const auto out = run_scenario(world, opt);

  ASSERT_TRUE(out.qos.windowed);
  const unites::SessionConformance& c = out.conformance;
  EXPECT_GE(c.windows.size(), 10u);  // ~16 windows over 4 s
  EXPECT_EQ(c.windows_bad, 0u);
  EXPECT_EQ(c.breaches, 0u);
  EXPECT_EQ(c.time_in_contract, 1.0);
  EXPECT_EQ(out.qos.time_in_contract, 1.0);
  EXPECT_EQ(c.health, unites::ContractHealth::kInContract);
  EXPECT_GE(c.registrations, 1u);
  EXPECT_EQ(c.qoe, 1.0);
  // The monitor's fold agrees with the sink (the oracle also checks this).
  EXPECT_EQ(c.cumulative.delivered, out.sink.units_received);
  EXPECT_TRUE(out.oracle.checked_conformance);
  EXPECT_TRUE(out.oracle.ok()) << out.oracle.describe();
  // The verdict string now carries the time-in-contract fraction.
  EXPECT_NE(out.qos.verdict().find("[in-contract 100.0%]"), std::string::npos);
  // qos.* metrics flowed into the world repository, and MANTTS counted
  // the registration.
  EXPECT_GT(world.repository().systemwide_sum(unites::metrics::kQosWindowOk), 0.0);
  EXPECT_GE(world.mantts(0).stats().contracts_registered, 1u);
}

TEST(ConformanceScenario, ContractOverrideBreachesAndRaisesTheNmiRung) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 92); });
  RunOptions opt;
  opt.application = app::Table1App::kVoice;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  // >= 5 s: run_scenario stamps opt.duration into the ACD, and shorter
  // sessions skip adaptation entirely (Section 4.1.1) — no ticks, no rung.
  opt.duration = sim::SimTime::seconds(6);
  // An unmeetable bound: every window grades bad, the budget exhausts,
  // and the adaptation loop must observe the breached rung via the NMI.
  mantts::QosContract c;
  c.max_latency_ns = 1;
  c.max_jitter_ns = -1;
  c.loss_tolerance = 1.0;
  c.sequenced = false;
  c.duplicate_sensitive = false;
  c.duration_ns = opt.duration.ns();
  opt.qos_contract = c;
  const auto out = run_scenario(world, opt);

  ASSERT_TRUE(out.qos.windowed);
  EXPECT_GE(out.conformance.breaches, 1u);
  EXPECT_GE(out.conformance.budget_consumed, 1.0);
  EXPECT_EQ(out.conformance.health, unites::ContractHealth::kBreached);
  EXPECT_GT(out.conformance.first_breach_ns, 0);
  EXPECT_EQ(out.conformance.time_in_contract, 0.0);
  EXPECT_GT(world.mantts(0).stats().contract_breach_ticks, 0u);
}

TEST(ConformanceScenario, ReconfigurationReRegistersTheContract) {
  // The route-failover scenario: the terrestrial path dies, the RTT
  // policy moves the session onto FEC via RECONFIG — and every
  // resynthesis must re-register the contract with the monitor.
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 93); });
  RunOptions opt;
  opt.application = app::Table1App::kManufacturingControl;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(12);
  opt.scale = 0.5;
  world.scheduler().post_after(sim::SimTime::seconds(4), [&] {
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });
  const auto out = run_scenario(world, opt);
  EXPECT_GT(out.reconfigurations, 0u);
  ASSERT_TRUE(out.qos.windowed);
  EXPECT_GE(out.conformance.registrations, 1u + out.reconfigurations);
}

TEST(ConformanceScenario, ContractOverrideSurvivesResynthesis) {
  // The failover scenario above with an explicit contract override: the
  // monitor holds the only copy of the contract, so every resynthesis
  // re-registers the override, never the ACD-derived contract MANTTS
  // registered at open.
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 93); });
  RunOptions opt;
  opt.application = app::Table1App::kManufacturingControl;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(12);
  opt.scale = 0.5;
  mantts::QosContract c;
  c.max_latency_ns = 123'456'789;
  c.loss_tolerance = 0.5;
  opt.qos_contract = c;
  world.scheduler().post_after(sim::SimTime::seconds(4), [&] {
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });
  const auto out = run_scenario(world, opt);
  ASSERT_GT(out.reconfigurations, 0u);
  EXPECT_GE(out.conformance.registrations, 2u + out.reconfigurations);
  EXPECT_EQ(out.conformance.contract.max_latency_ns, 123'456'789);
  EXPECT_EQ(out.conformance.contract.loss_tolerance, 0.5);
}

TEST(ConformanceScenario, HandoverResynthesisReRegistersTheContract) {
  World world([](sim::EventScheduler& s) { return net::make_mobile_wan(s, 3, 3, 7); });
  RunOptions opt;
  opt.application = app::Table1App::kRemoteFileService;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::mobility_rules();
  opt.src = 1;
  opt.multicast_members = {0, 2, 3, 4};
  opt.faults = sim::parse_fault_plan(
      "handover@1.5+0.05:node=0,to=1,mode=mbb;handover@3+0.08:node=0,to=2,mode=bbm");
  opt.blackout_bound = sim::SimTime::seconds(2);
  opt.scale = 2.0;
  opt.duration = sim::SimTime::seconds(5);
  opt.drain = sim::SimTime::seconds(8);
  opt.seed = 5;
  opt.collect_metrics = true;
  const auto out = run_scenario(world, opt);
  EXPECT_EQ(out.mobility.controller.handovers_completed, 2u);
  EXPECT_GE(out.reconfigurations, 1u);
  ASSERT_TRUE(out.qos.windowed);
  EXPECT_GE(out.conformance.registrations, 2u) << "handover resynthesis must re-register";
}

// ---------------------------------------------------------------------------
// Flight recorder: qos-breach arming
// ---------------------------------------------------------------------------

TEST(ConformanceFlight, ExhaustedBudgetOnAFaultFreeRunArmsTheRecorder) {
  const auto dir = scratch_dir("qosbreach");
  SweepConfig sc;
  sc.topology = [](std::uint64_t seed) -> World::TopologyFactory {
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); };
  };
  sc.base.application = app::Table1App::kVoice;
  sc.base.duration = sim::SimTime::seconds(3);
  sc.base.collect_metrics = true;
  mantts::QosContract c;
  c.max_latency_ns = 1;  // unmeetable: the budget exhausts while fault-free
  c.max_jitter_ns = -1;
  c.loss_tolerance = 1.0;
  c.sequenced = false;
  c.duplicate_sensitive = false;
  c.duration_ns = sc.base.duration.ns();
  sc.base.qos_contract = c;
  sc.seeds = {21};
  sc.flight_recorder_dir = dir.string();

  const SweepResult res = run_sweep(sc);
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].violations, 0u) << res.runs[0].violation_detail;
  EXPECT_GE(res.runs[0].qos_budget_consumed, 1.0);
  EXPECT_EQ(res.flight_bundles, 1u);

  const auto bundle_path = dir / "flight-seed21.json";
  ASSERT_TRUE(std::filesystem::exists(bundle_path));
  const std::string bundle = slurp(bundle_path);
  EXPECT_NE(bundle.find("\"reason\":\"qos-breach\""), std::string::npos);
  EXPECT_NE(bundle.find("\"conformance\":{"), std::string::npos);
  EXPECT_NE(bundle.find("\"time_in_contract\":"), std::string::npos);
  EXPECT_NE(bundle.find("\"windows\":["), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ConformanceFlight, HealthyRunDoesNotArm) {
  const auto dir = scratch_dir("healthy");
  SweepConfig sc;
  sc.topology = [](std::uint64_t seed) -> World::TopologyFactory {
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); };
  };
  sc.base.application = app::Table1App::kVoice;
  sc.base.duration = sim::SimTime::seconds(2);
  sc.seeds = {22};
  sc.flight_recorder_dir = dir.string();
  const SweepResult res = run_sweep(sc);
  EXPECT_EQ(res.flight_bundles, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir / "flight-seed22.json"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Determinism: 64 seeds, jobs=1 vs jobs=8, byte identity
// ---------------------------------------------------------------------------

TEST(ConformanceDeterminism, SixtyFourSeedSweepIsJobsInvariant) {
  const auto config = [](std::size_t jobs) {
    SweepConfig sc;
    sc.topology = [](std::uint64_t seed) -> World::TopologyFactory {
      return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); };
    };
    sc.base.application = app::Table1App::kVoice;
    sc.base.duration = sim::SimTime::seconds(2);
    sc.base.drain = sim::SimTime::seconds(1);
    sc.base.collect_metrics = true;
    // A mid-run latency spike makes the conformance plane earn its keep:
    // every seed crosses breach -> recovery, so the determinism gate
    // covers the full verdict machinery, not just clean windows.
    sc.base.faults = sim::parse_fault_plan("delay@0.5+0.5:link=0,add=0.05");
    mantts::QosContract c;
    c.max_latency_ns = 30'000'000;
    c.max_jitter_ns = -1;
    c.loss_tolerance = 1.0;
    c.sequenced = false;
    c.duplicate_sensitive = false;
    c.duration_ns = sc.base.duration.ns();
    sc.base.qos_contract = c;
    sc.capture_trace = true;
    sc.capture_timeline = true;
    sc.jobs = jobs;
    for (std::uint64_t s = 1; s <= 64; ++s) sc.seeds.push_back(s);
    return sc;
  };

  const SweepResult serial = run_sweep(config(1));
  const SweepResult parallel = run_sweep(config(8));

  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  std::size_t breached_seeds = 0;
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    const SweepRunSummary& a = serial.runs[i];
    const SweepRunSummary& b = parallel.runs[i];
    EXPECT_EQ(a.time_in_contract, b.time_in_contract) << "seed " << a.seed;
    EXPECT_EQ(a.qos_windows, b.qos_windows);
    EXPECT_EQ(a.qos_windows_bad, b.qos_windows_bad);
    EXPECT_EQ(a.qos_breaches, b.qos_breaches);
    EXPECT_EQ(a.qos_budget_consumed, b.qos_budget_consumed);
    EXPECT_EQ(a.qoe, b.qoe);
    EXPECT_EQ(a.first_breach_ns, b.first_breach_ns);
    if (a.qos_breaches > 0) ++breached_seeds;
  }
  EXPECT_GT(breached_seeds, 0u) << "the spike must actually exercise the breach path";

  // The merged qos/resource timeline (Chrome counter source) must be
  // byte-identical too, including the qos.* gauge tracks.
  std::ostringstream tl_serial, tl_parallel;
  unites::write_timeline_jsonl(tl_serial, serial.timeline);
  unites::write_timeline_jsonl(tl_parallel, parallel.timeline);
  EXPECT_EQ(tl_serial.str(), tl_parallel.str());
  EXPECT_NE(tl_serial.str().find("qos.budget_burn"), std::string::npos);
  EXPECT_NE(tl_serial.str().find("qos.qoe"), std::string::npos);
}

}  // namespace
}  // namespace adaptive
