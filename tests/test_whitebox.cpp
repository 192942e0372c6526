// Whitebox observability suite (DESIGN.md §11): the UNITES zone profiler
// (RAII scoped timers, hierarchical trees, deterministic merge), causal
// message-lifecycle spans (assembly under retransmission and segue, the
// latency-breakdown metrics), the post-mortem flight recorder, and the
// determinism gate every canonical whitebox export must pass — byte
// identity between --jobs 1 and --jobs 8 over a 64-seed sweep.
#include "adaptive/sweep.hpp"
#include "sim/event_scheduler.hpp"
#include "unites/export.hpp"
#include "unites/flight_recorder.hpp"
#include "unites/profiler.hpp"
#include "unites/spans.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace adaptive {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

sim::SimTime us(std::int64_t v) { return sim::SimTime::microseconds(v); }

/// A profiler wired for unit tests: enabled, clocked by a local scheduler
/// the test can advance with run_until, installed as the thread's current.
struct TestProfiler {
  sim::EventScheduler sched;
  unites::Profiler prof;
  unites::ScopedProfiler scoped;

  TestProfiler() : scoped(prof) {
    prof.enable();
    prof.bind_clock(&sched);
  }
};

/// The test_parallel scenario family: 4-host seeded Ethernet LAN, 1s file
/// transfer — cheap enough for a 64-seed determinism sweep.
SweepConfig sweep_config(std::vector<std::uint64_t> seeds, std::size_t jobs) {
  SweepConfig sc;
  sc.topology = [](std::uint64_t seed) {
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 4, seed); };
  };
  sc.base.application = app::Table1App::kFileTransfer;
  sc.base.mode = RunOptions::Mode::kManntts;
  sc.base.duration = sim::SimTime::seconds(1);
  sc.base.drain = sim::SimTime::seconds(1);
  sc.base.scale = 0.3;
  sc.base.collect_metrics = true;
  sc.seeds = std::move(seeds);
  sc.jobs = jobs;
  return sc;
}

std::vector<std::uint64_t> seed_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = lo; s <= hi; ++s) out.push_back(s);
  return out;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// Fresh per-test scratch directory under the build tree.
std::filesystem::path scratch_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() / ("adaptive_whitebox_" + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

unites::TraceEvent event(const char* name, std::int64_t when_ns, std::uint32_t session,
                         double value, net::NodeId node = 0) {
  unites::TraceEvent e;
  e.when = sim::SimTime(when_ns);
  e.name = name;
  e.category = unites::TraceCategory::kTko;
  e.node = node;
  e.session = session;
  e.value = value;
  return e;
}

// ---------------------------------------------------------------------------
// Profiler: scoped timers, nesting, reentrancy, determinism
// ---------------------------------------------------------------------------

TEST(Profiler, NestedScopesBuildAHierarchicalTreeWithSelfTimes) {
  TestProfiler t;
  {
    unites::ProfileScope alpha("alpha", 7);
    t.sched.run_until(us(10));
    {
      unites::ProfileScope beta("beta");
      t.sched.run_until(us(25));
    }
    {
      unites::ProfileScope beta_again("beta");
      t.sched.run_until(us(30));
    }
  }
  EXPECT_EQ(t.prof.entered(), 3u);

  const unites::ProfileTree tree = t.prof.snapshot();
  const unites::ProfileNode* alpha = tree.find({"session/7", "alpha"});
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->calls, 1u);
  // Self time excludes the children: 30us total minus 15us + 5us in beta.
  EXPECT_EQ(alpha->sim_ns, us(10).ns());

  const unites::ProfileNode* beta = tree.find({"session/7", "alpha", "beta"});
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->calls, 2u);  // the two blocks coalesced into one zone
  EXPECT_EQ(beta->sim_ns, us(20).ns());
}

TEST(Profiler, ReentrantZoneNestsUnderItself) {
  TestProfiler t;
  {
    unites::ProfileScope outer("recurse");
    t.sched.run_until(us(5));
    {
      unites::ProfileScope inner("recurse");
      t.sched.run_until(us(9));
    }
  }
  const unites::ProfileTree tree = t.prof.snapshot();
  const unites::ProfileNode* outer = tree.find({"session/0", "recurse"});
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(outer->sim_ns, us(5).ns());
  const unites::ProfileNode* inner = tree.find({"session/0", "recurse", "recurse"});
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 1u);
  EXPECT_EQ(inner->sim_ns, us(4).ns());
}

TEST(Profiler, RepeatedScopesAccumulateCallsIntoOneZone) {
  TestProfiler t;
  for (int i = 0; i < 100; ++i) {
    UNITES_PROF("hot.zone");
  }
  const unites::ProfileTree tree = t.prof.snapshot();
  const unites::ProfileNode* zone = tree.find({"session/0", "hot.zone"});
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->calls, 100u);
  EXPECT_EQ(zone->sim_ns, 0);  // handlers run in zero virtual time
}

// Top-level zones find their session's root by id, however many sessions
// exist; snapshot() lists the roots by id, and clear() forgets them.
TEST(Profiler, SessionRootsAreFoundByIdAndClearedWithTheTree) {
  TestProfiler t;
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t s = 5000; s > 0; --s) {
      unites::ProfileScope zone("top", s);
    }
  }
  unites::ProfileTree tree = t.prof.snapshot();
  ASSERT_EQ(tree.roots.size(), 5000u);
  EXPECT_EQ(tree.roots.front().name, "session/1");
  EXPECT_EQ(tree.roots.back().name, "session/5000");
  for (const auto& root : tree.roots) {
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0].calls, 2u);
  }
  t.prof.clear();
  { unites::ProfileScope zone("top", 7); }
  tree = t.prof.snapshot();
  ASSERT_EQ(tree.roots.size(), 1u);
  const unites::ProfileNode* top = tree.find({"session/7", "top"});
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->calls, 1u);
}

TEST(Profiler, DisabledOrUnclockedProfilerRecordsNothing) {
  {
    // Enabled but no clock bound (no world alive).
    unites::Profiler prof;
    prof.enable();
    unites::ScopedProfiler scoped(prof);
    UNITES_PROF("ghost");
    EXPECT_EQ(prof.entered(), 0u);
    EXPECT_TRUE(prof.snapshot().empty());
  }
  {
    // Clocked but disabled (the production default).
    sim::EventScheduler sched;
    unites::Profiler prof;
    prof.bind_clock(&sched);
    unites::ScopedProfiler scoped(prof);
    UNITES_PROF("ghost");
    EXPECT_EQ(prof.entered(), 0u);
    EXPECT_TRUE(prof.snapshot().empty());
    EXPECT_EQ(prof.snapshot().zone_count(), 0u);
  }
}

TEST(Profiler, SnapshotCoalescesEqualZoneNamesFromDistinctPointers) {
  // Two equal literals in different buffers — distinct addresses, one zone.
  static const char name_a[] = "dup.zone";
  static const char name_b[] = "dup.zone";
  ASSERT_NE(static_cast<const void*>(name_a), static_cast<const void*>(name_b));
  TestProfiler t;
  {
    unites::ProfileScope s(name_a);
  }
  {
    unites::ProfileScope s(name_b);
  }
  const unites::ProfileTree tree = t.prof.snapshot();
  ASSERT_EQ(tree.roots.size(), 1u);
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
  EXPECT_EQ(tree.roots[0].children[0].name, "dup.zone");
  EXPECT_EQ(tree.roots[0].children[0].calls, 2u);
}

TEST(Profiler, MergeIsOrderIndependentInCanonicalForm) {
  auto build = [](std::initializer_list<const char*> zones) {
    TestProfiler t;
    for (const char* z : zones) {
      unites::ProfileScope s(z);
      t.sched.run_until(t.sched.now() + us(1));
    }
    return t.prof.snapshot();
  };
  const unites::ProfileTree a = build({"x", "y"});
  const unites::ProfileTree b = build({"z", "y"});

  unites::ProfileTree ab = a;
  ab.merge(b);
  unites::ProfileTree ba = b;
  ba.merge(a);
  EXPECT_EQ(unites::profile_to_json(ab, /*include_wall=*/false),
            unites::profile_to_json(ba, /*include_wall=*/false));
  const unites::ProfileNode* y = ab.find({"session/0", "y"});
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->calls, 2u);
  EXPECT_EQ(ab.zone_count(), 3u);
}

TEST(Profiler, ScopedProfilerRestoresThePreviousInstance) {
  sim::EventScheduler sched;
  unites::Profiler outer;
  outer.enable();
  outer.bind_clock(&sched);
  unites::ScopedProfiler outer_scope(outer);
  {
    unites::Profiler inner;
    inner.enable();
    inner.bind_clock(&sched);
    unites::ScopedProfiler inner_scope(inner);
    UNITES_PROF("inner.zone");
    EXPECT_EQ(inner.entered(), 1u);
  }
  UNITES_PROF("outer.zone");
  EXPECT_EQ(outer.entered(), 1u);  // the inner zone did not leak here
  EXPECT_EQ(outer.snapshot().find({"session/0", "inner.zone"}), nullptr);
}

// ---------------------------------------------------------------------------
// Span assembly from synthetic trace streams
// ---------------------------------------------------------------------------

TEST(Spans, AssemblesFullLifecycleWithRetransmissions) {
  const std::uint32_t unit = 42;
  std::vector<unites::TraceEvent> ev;
  ev.push_back(event(unites::lifecycle::kSubmit, 100, /*session=*/3, unit, /*node=*/1));
  ev.push_back(event(unites::lifecycle::kEnqueue, 150, 3, unites::pack_unit_seq(unit, 0), 1));
  ev.push_back(event(unites::lifecycle::kTx, 200, 3, unites::pack_unit_seq(unit, 0), 1));
  ev.push_back(event(unites::lifecycle::kTx, 260, 3, unites::pack_unit_seq(unit, 1), 1));
  // Segment 0 re-emitted: a retransmission, and it moves last_tx forward.
  ev.push_back(event(unites::lifecycle::kTx, 500, 3, unites::pack_unit_seq(unit, 0), 1));
  ev.push_back(event("app.deliver", 900, /*session=unit id*/ unit, 0.0));
  ev.push_back(event("app.playout", 1200, unit, 300.0));

  const auto spans = unites::assemble_spans(ev);
  ASSERT_EQ(spans.size(), 1u);
  const unites::MessageSpan& s = spans[0];
  EXPECT_EQ(s.unit, unit);
  EXPECT_EQ(s.session, 3u);
  EXPECT_EQ(s.src, 1u);
  EXPECT_EQ(s.submit_ns, 100);
  EXPECT_EQ(s.enqueue_ns, 150);
  EXPECT_EQ(s.first_tx_ns, 200);
  EXPECT_EQ(s.last_tx_ns, 500);
  EXPECT_EQ(s.segments, 2u);
  EXPECT_EQ(s.retx, 1u);
  EXPECT_EQ(s.deliver_ns, 900);
  EXPECT_EQ(s.playout_ns, 1200);
  EXPECT_FALSE(s.open());
  EXPECT_EQ(s.queue_ns(), 100);         // submit -> first tx
  EXPECT_EQ(s.retx_ns(), 300);          // first tx -> last tx
  EXPECT_EQ(s.tx_ns(), 400);            // last tx -> deliver
  EXPECT_EQ(s.playout_hold_ns(), 300);  // deliver -> playout
}

TEST(Spans, UndeliveredMessageStaysOpenAndIsExcludedFromBreakdown) {
  std::vector<unites::TraceEvent> ev;
  ev.push_back(event(unites::lifecycle::kSubmit, 100, 1, 7.0));
  ev.push_back(event(unites::lifecycle::kTx, 200, 1, unites::pack_unit_seq(7, 0)));

  const auto spans = unites::assemble_spans(ev);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].open());

  unites::MetricRepository repo;
  unites::record_span_breakdown(spans, repo);
  EXPECT_EQ(repo.series_count(), 0u);  // open spans never pollute metrics
}

TEST(Spans, BreakdownRecordsWhiteboxClassedMetrics) {
  const std::uint32_t unit = 5;
  std::vector<unites::TraceEvent> ev;
  ev.push_back(event(unites::lifecycle::kSubmit, 0, 9, unit, /*node=*/2));
  ev.push_back(event(unites::lifecycle::kTx, 40, 9, unites::pack_unit_seq(unit, 0), 2));
  ev.push_back(event("app.deliver", 100, unit, 0.0));

  unites::MetricRepository repo;
  unites::record_span_breakdown(unites::assemble_spans(ev), repo);

  const unites::MetricKey queue{2, 9, unites::metrics::kMsgQueueNs};
  ASSERT_NE(repo.series(queue), nullptr);
  EXPECT_EQ((*repo.series(queue))[0].value, 40.0);
  EXPECT_EQ(repo.metric_class(queue), unites::MetricClass::kWhitebox);

  std::ostringstream jsonl;
  unites::write_metrics_jsonl(jsonl, repo);
  EXPECT_NE(jsonl.str().find("\"name\":\"msg.queue_ns\",\"class\":\"whitebox\""),
            std::string::npos)
      << jsonl.str();
}

// Regression (PR 5 satellite): MetricRepository::merge used to drop the
// stored MetricClass, so whitebox metrics exported as "blackbox" after a
// sweep fold. The stored class must survive merge and reach the JSONL.
TEST(Spans, MetricClassSurvivesRepositoryMergeAndExport) {
  unites::MetricRepository shard;
  const unites::MetricKey key{1, 1, unites::metrics::kMsgTxNs};
  shard.record(key, sim::SimTime(10), 5.0, unites::MetricClass::kWhitebox);

  unites::MetricRepository merged;
  merged.merge(shard);
  EXPECT_EQ(merged.metric_class(key), unites::MetricClass::kWhitebox);

  std::ostringstream jsonl;
  unites::write_metrics_jsonl(jsonl, merged);
  EXPECT_NE(jsonl.str().find("\"class\":\"whitebox\""), std::string::npos) << jsonl.str();
}

// ---------------------------------------------------------------------------
// End-to-end spans: retransmission and segue survival
// ---------------------------------------------------------------------------

// The dual-path failover scenario (test_integration) reconfigures the live
// session mid-transfer (FEC segue). Lifecycle ids must survive the segue:
// messages submitted before and delivered after the reconfiguration still
// assemble into closed spans, and the profile shows the segue zone.
TEST(SpansEndToEnd, SpansSurviveASegueAndRetransmissionsUnderFailover) {
  unites::TraceRecorder recorder;
  recorder.enable(1 << 20);  // hold the whole 12s run; no ring wrap
  unites::ScopedTraceRecorder scoped(recorder);
  unites::Profiler profiler;
  profiler.enable();
  unites::ScopedProfiler scoped_prof(profiler);

  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 27); });
  RunOptions opt;
  opt.application = app::Table1App::kManufacturingControl;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.duration = sim::SimTime::seconds(12);
  opt.scale = 0.5;
  world.scheduler().schedule_after(sim::SimTime::seconds(4), [&] {
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });
  const RunOutcome out = run_scenario(world, opt);
  ASSERT_GT(out.reconfigurations, 0u);  // the segue actually happened

  const auto spans = unites::assemble_spans(recorder.snapshot());
  ASSERT_FALSE(spans.empty());
  std::size_t closed = 0, with_milestones = 0;
  for (const auto& s : spans) {
    if (!s.open()) ++closed;
    if (s.submit_ns >= 0 && s.enqueue_ns >= 0 && s.first_tx_ns >= 0) ++with_milestones;
  }
  EXPECT_EQ(closed, out.sink.units_received);
  EXPECT_GT(with_milestones, 0u);

  // Whitebox proof the segue ran inside the instrumented zones.
  const unites::ProfileTree tree = profiler.snapshot();
  bool segue_zone = false;
  for (const auto& root : tree.roots) {
    std::vector<const unites::ProfileNode*> stack;
    for (const auto& c : root.children) stack.push_back(&c);
    while (!stack.empty()) {
      const unites::ProfileNode* n = stack.back();
      stack.pop_back();
      if (n->name == "context.segue" && n->calls > 0) segue_zone = true;
      for (const auto& c : n->children) stack.push_back(&c);
    }
  }
  EXPECT_TRUE(segue_zone);

  // Breakdown metrics from these spans are recordable and whitebox-classed.
  unites::MetricRepository repo;
  unites::record_span_breakdown(spans, repo);
  const auto keys = repo.keys();
  ASSERT_FALSE(keys.empty());
  for (const auto& k : keys) {
    EXPECT_EQ(repo.metric_class(k), unites::MetricClass::kWhitebox) << k.name;
  }
}

// A chaos corpus seed whose plan forces an outage: the reliability scheme
// retransmits, and the spans must show it.
TEST(SpansEndToEnd, ChaosOutageSeedProducesRetransmissionSpans) {
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
  sc.seeds = {1};  // corpus seed: outage past the RTO backoff ceiling
  sc.jobs = 1;
  sc.capture_spans = true;
  sc.capture_profile = true;
  sc.trace_capacity = 1 << 20;  // no ring wrap: every tx milestone retained

  const SweepResult res = run_sweep(sc);
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].violations, 0u) << res.runs[0].violation_detail;

  ASSERT_FALSE(res.spans.empty());
  std::uint32_t retx_total = 0;
  for (const auto& s : res.spans) {
    EXPECT_EQ(s.seed, 1u);
    retx_total += s.retx;
  }
  EXPECT_GT(retx_total, 0u);  // the outage forced re-emissions

  // The breakdown histograms rode the canonical fold into merged metrics.
  const auto queue_hist = res.merged.systemwide_histogram(unites::metrics::kMsgQueueNs);
  EXPECT_GT(queue_hist.count(), 0u);

  // The profile attributes work to the reliability scheme that ran.
  EXPECT_GT(res.profile.zone_count(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism gate: canonical whitebox exports, --jobs 1 vs --jobs 8
// ---------------------------------------------------------------------------

TEST(WhiteboxDeterminism, SixtyFourSeedProfileSpanAndMetricExportsAreByteIdentical) {
  const auto seeds = seed_range(1, 64);
  SweepConfig serial_cfg = sweep_config(seeds, 1);
  serial_cfg.capture_profile = true;
  serial_cfg.capture_spans = true;
  SweepConfig parallel_cfg = sweep_config(seeds, 8);
  parallel_cfg.capture_profile = true;
  parallel_cfg.capture_spans = true;

  const SweepResult serial = run_sweep(serial_cfg);
  const SweepResult parallel = run_sweep(parallel_cfg);
  ASSERT_EQ(serial.runs.size(), 64u);

  // Collapsed flamegraph text.
  std::ostringstream collapsed_1, collapsed_8;
  unites::write_profile_collapsed(collapsed_1, serial.profile);
  unites::write_profile_collapsed(collapsed_8, parallel.profile);
  EXPECT_FALSE(collapsed_1.str().empty());
  EXPECT_EQ(collapsed_1.str(), collapsed_8.str());

  // Profile JSON in canonical form (virtual time only, no wall time).
  EXPECT_EQ(unites::profile_to_json(serial.profile, /*include_wall=*/false),
            unites::profile_to_json(parallel.profile, /*include_wall=*/false));
  EXPECT_GT(serial.profile.zone_count(), 0u);

  // Chrome span export.
  std::ostringstream spans_1, spans_8;
  unites::write_spans_chrome(spans_1, serial.spans);
  unites::write_spans_chrome(spans_8, parallel.spans);
  ASSERT_FALSE(serial.spans.empty());
  EXPECT_EQ(spans_1.str(), spans_8.str());

  // Merged metrics JSONL (now carrying the span-breakdown whitebox series).
  std::ostringstream metrics_1, metrics_8;
  unites::write_metrics_jsonl(metrics_1, serial.merged);
  unites::write_metrics_jsonl(metrics_8, parallel.merged);
  EXPECT_EQ(metrics_1.str(), metrics_8.str());
  EXPECT_NE(metrics_1.str().find("msg.queue_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

// Engineered violation: partition the receiving host mid-transfer and
// never heal it. The reliable transfer silently loses the tail and the
// stall never recovers — the oracle flags it, and the observing shard must
// ship a complete post-mortem bundle naming the violated rule and the
// owning mechanism zone.
TEST(FlightRecorder, EngineeredViolationShipsACompleteBundle) {
  const auto dir = scratch_dir("violation");

  SweepConfig sc = sweep_config({77}, 1);
  sim::FaultSpec partition;
  partition.kind = sim::FaultKind::kPartition;
  partition.node = 1;  // the receiving host
  partition.at = sim::SimTime::milliseconds(300);
  partition.duration = sim::SimTime::seconds(60);  // outlives run + drain
  sc.base.faults = sim::FaultPlan{{partition}};
  sc.flight_recorder_dir = dir.string();

  const SweepResult res = run_sweep(sc);
  ASSERT_EQ(res.runs.size(), 1u);
  ASSERT_GT(res.runs[0].violations, 0u) << "the partition should have broken the contract";
  EXPECT_EQ(res.flight_bundles, 1u);

  const auto bundle_path = dir / "flight-seed77.json";
  ASSERT_TRUE(std::filesystem::exists(bundle_path));
  const std::string bundle = slurp(bundle_path);
  EXPECT_NE(bundle.find("\"reason\":\"invariant-violation\""), std::string::npos);
  EXPECT_NE(bundle.find("\"rule\":\"no-silent-loss\""), std::string::npos);
  // The owning zone names the reliability scheme that was accountable.
  EXPECT_NE(bundle.find("\"zone\":\"reliability."), std::string::npos);
  // A complete bundle: config, mechanism lineup, counters, open spans,
  // zone tree, fault plan, trace ring.
  for (const char* key : {"\"session_config\":", "\"context\":", "\"counters\":",
                          "\"open_spans\":", "\"spans_total\":", "\"profile\":",
                          "\"fault_plan\":", "\"trace\":"}) {
    EXPECT_NE(bundle.find(key), std::string::npos) << key;
  }
  // The undelivered tail shows up as open spans, not silence.
  EXPECT_NE(bundle.find("\"open\":true"), std::string::npos);
  EXPECT_NE(bundle.find("partition"), std::string::npos);

  std::filesystem::remove_all(dir);
}

// A clean run with an armed recorder writes nothing.
TEST(FlightRecorder, CleanRunWritesNoBundle) {
  const auto dir = scratch_dir("clean");
  SweepConfig sc = sweep_config({3}, 1);
  sc.flight_recorder_dir = dir.string();
  const SweepResult res = run_sweep(sc);
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_EQ(res.runs[0].violations, 0u);
  EXPECT_EQ(res.flight_bundles, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir / "flight-seed3.json"));
  std::filesystem::remove_all(dir);
}

// A bundle the disk refuses is an error, never a "wrote" line.
TEST(FlightRecorder, FailedWriteThrows) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  const auto dir = scratch_dir("full");
  std::filesystem::create_directories(dir);
  std::filesystem::create_symlink("/dev/full", dir / "flight-seed5.json");
  unites::FlightBundle b;
  b.seed = 5;
  b.reason = "replay";
  EXPECT_THROW((void)unites::FlightRecorder(dir.string()).dump(b), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// Corpus replay: a known-bad chaos seed from tests/corpus/chaos_seeds.txt
// (the watchdog-wedge seed), re-run with flight_record_always so the
// bundle documents the recovered episode. Serial and parallel replays of
// the same seed must produce byte-identical bundles — the flight recorder
// is part of the determinism contract.
TEST(FlightRecorder, ChaosCorpusSeedReplayBundleIsDeterministic) {
  // First congested-wan line of the corpus (the watchdog-wedge seed).
  std::size_t max_faults = 0;
  std::uint64_t corpus_seed = 0;
  {
    const std::string path = std::string(ADAPTIVE_TEST_CORPUS_DIR) + "/chaos_seeds.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot read " << path;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line.substr(0, line.find('#')));
      std::string topology;
      if (fields >> topology >> max_faults >> corpus_seed && topology == "congested-wan") break;
    }
    ASSERT_GT(corpus_seed, 0u) << "no congested-wan seed in " << path;
  }

  auto config_for = [&](const std::filesystem::path& dir, std::size_t jobs) {
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
    sc.chaos = max_faults;
    sc.seeds = {corpus_seed};
    sc.jobs = jobs;
    sc.flight_recorder_dir = dir.string();
    sc.flight_record_always = true;
    return sc;
  };

  const auto dir_serial = scratch_dir("corpus_serial");
  const auto dir_parallel = scratch_dir("corpus_parallel");
  const SweepResult serial = run_sweep(config_for(dir_serial, 1));
  const SweepResult parallel = run_sweep(config_for(dir_parallel, 4));
  EXPECT_EQ(serial.flight_bundles, 1u);
  EXPECT_EQ(parallel.flight_bundles, 1u);

  const std::string bundle_name = "flight-seed" + std::to_string(corpus_seed) + ".json";
  const std::string bundle_serial = slurp(dir_serial / bundle_name);
  const std::string bundle_parallel = slurp(dir_parallel / bundle_name);
  ASSERT_FALSE(bundle_serial.empty());
  EXPECT_EQ(bundle_serial, bundle_parallel);

  // The corpus seed replays clean, so the reason is the replay request —
  // and the bundle still carries the full evidence (plan, zones, trace).
  EXPECT_NE(bundle_serial.find("\"reason\":\"replay\""), std::string::npos);
  EXPECT_NE(bundle_serial.find("\"chaos_plan\":"), std::string::npos);
  EXPECT_NE(bundle_serial.find("\"profile\":"), std::string::npos);
  EXPECT_EQ(serial.runs[0].violations, 0u) << serial.runs[0].violation_detail;

  std::filesystem::remove_all(dir_serial);
  std::filesystem::remove_all(dir_parallel);
}

}  // namespace
}  // namespace adaptive
