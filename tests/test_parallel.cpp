// The sharded scenario engine's headline invariant, test-enforced: for any
// seed set, a parallel sweep's merged UNITES repository and trace stream
// are byte-identical to the serial run's — metric by metric, histogram
// bucket by histogram bucket, trace event by trace event. Plus the
// shared-state regression tests for the global state that had to be
// eliminated to get there (process-global TraceRecorder), and the
// ShardRunner/Rng::fork(stream) building blocks.
#include "adaptive/sweep.hpp"
#include "sim/shard_runner.hpp"
#include "unites/export.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

namespace adaptive {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

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
  sc.capture_trace = true;
  return sc;
}

std::vector<std::uint64_t> seed_range(std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = lo; s <= hi; ++s) out.push_back(s);
  return out;
}

// Metric-by-metric, sample-by-sample, bucket-by-bucket equality.
void expect_repositories_identical(const unites::MetricRepository& a,
                                   const unites::MetricRepository& b) {
  EXPECT_EQ(a.total_samples(), b.total_samples());
  const auto keys_a = a.keys();
  const auto keys_b = b.keys();
  ASSERT_EQ(keys_a.size(), keys_b.size());
  for (std::size_t i = 0; i < keys_a.size(); ++i) EXPECT_EQ(keys_a[i], keys_b[i]);

  for (const auto& key : keys_a) {
    SCOPED_TRACE("metric " + key.name + " host " + std::to_string(key.host) + " conn " +
                 std::to_string(key.connection));
    const auto sa = a.summary(key);
    const auto sb = b.summary(key);
    ASSERT_TRUE(sa.has_value());
    ASSERT_TRUE(sb.has_value());
    EXPECT_EQ(sa->count, sb->count);
    EXPECT_EQ(sa->sum, sb->sum);  // exact: identical op sequence, not just close
    EXPECT_EQ(sa->min, sb->min);
    EXPECT_EQ(sa->max, sb->max);
    EXPECT_EQ(sa->last, sb->last);

    const unites::Series* ser_a = a.series(key);
    const unites::Series* ser_b = b.series(key);
    ASSERT_NE(ser_a, nullptr);
    ASSERT_NE(ser_b, nullptr);
    ASSERT_EQ(ser_a->size(), ser_b->size());
    for (std::size_t i = 0; i < ser_a->size(); ++i) {
      EXPECT_EQ((*ser_a)[i].when, (*ser_b)[i].when);
      EXPECT_EQ((*ser_a)[i].value, (*ser_b)[i].value);
    }

    const unites::Histogram* ha = a.histogram(key);
    const unites::Histogram* hb = b.histogram(key);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->count(), hb->count());
    EXPECT_EQ(ha->sum(), hb->sum());
    const auto buckets_a = ha->nonzero_buckets();
    const auto buckets_b = hb->nonzero_buckets();
    ASSERT_EQ(buckets_a.size(), buckets_b.size());
    for (std::size_t i = 0; i < buckets_a.size(); ++i) {
      EXPECT_EQ(buckets_a[i].lower, buckets_b[i].lower);
      EXPECT_EQ(buckets_a[i].upper, buckets_b[i].upper);
      EXPECT_EQ(buckets_a[i].count, buckets_b[i].count);
    }
  }

  // The exported form must match byte for byte too (what tooling reads).
  std::ostringstream jsonl_a, jsonl_b;
  unites::write_metrics_jsonl(jsonl_a, a);
  unites::write_metrics_jsonl(jsonl_b, b);
  EXPECT_EQ(jsonl_a.str(), jsonl_b.str());
}

void expect_traces_identical(const std::vector<unites::TraceEvent>& a,
                             const std::vector<unites::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when) << "event " << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << "event " << i;
    EXPECT_STREQ(a[i].name, b[i].name) << "event " << i;
    EXPECT_EQ(a[i].category, b[i].category) << "event " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "event " << i;
    EXPECT_EQ(a[i].session, b[i].session) << "event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "event " << i;
  }
  EXPECT_EQ(trace_digest(a), trace_digest(b));
}

void expect_outcomes_identical(const std::vector<SweepRunSummary>& a,
                               const std::vector<SweepRunSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].qos_pass, b[i].qos_pass);
    EXPECT_EQ(a[i].throughput_bps, b[i].throughput_bps);
    EXPECT_EQ(a[i].mean_latency_ns, b[i].mean_latency_ns);
    EXPECT_EQ(a[i].loss_fraction, b[i].loss_fraction);
    EXPECT_EQ(a[i].units_received, b[i].units_received);
    EXPECT_EQ(a[i].reconfigurations, b[i].reconfigurations);
    EXPECT_EQ(a[i].time_in_contract, b[i].time_in_contract);
    EXPECT_EQ(a[i].qos_windows, b[i].qos_windows);
    EXPECT_EQ(a[i].qos_windows_bad, b[i].qos_windows_bad);
    EXPECT_EQ(a[i].qos_breaches, b[i].qos_breaches);
    EXPECT_EQ(a[i].qos_budget_consumed, b[i].qos_budget_consumed);
    EXPECT_EQ(a[i].qoe, b[i].qoe);
    EXPECT_EQ(a[i].first_breach_ns, b[i].first_breach_ns);
  }
}

// ---------------------------------------------------------------------------
// The headline property: serial == parallel, byte for byte
// ---------------------------------------------------------------------------

class ParallelJobs : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelJobs, SixtyFourSeedSweepIsByteIdenticalToSerial) {
  const auto seeds = seed_range(1, 64);
  const SweepResult serial = run_sweep(sweep_config(seeds, 1));
  const SweepResult parallel = run_sweep(sweep_config(seeds, GetParam()));

  ASSERT_EQ(serial.runs.size(), 64u);
  expect_outcomes_identical(serial.runs, parallel.runs);
  expect_repositories_identical(serial.merged, parallel.merged);
  expect_traces_identical(serial.trace, parallel.trace);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
  EXPECT_EQ(serial.trace_events_emitted, parallel.trace_events_emitted);
  EXPECT_GT(serial.trace.size(), 0u);
  EXPECT_GT(serial.merged.total_samples(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Jobs248, ParallelJobs, ::testing::Values(2u, 4u, 8u));

TEST(ParallelSweep, ShardBoundarySeedCountNotDivisibleByJobs) {
  // 7 seeds over 4 jobs (ragged split) and over 8 jobs (more workers than
  // work): both must match serial exactly.
  const auto seeds = seed_range(10, 16);
  const SweepResult serial = run_sweep(sweep_config(seeds, 1));
  for (const std::size_t jobs : {4u, 8u}) {
    const SweepResult parallel = run_sweep(sweep_config(seeds, jobs));
    expect_outcomes_identical(serial.runs, parallel.runs);
    expect_repositories_identical(serial.merged, parallel.merged);
    expect_traces_identical(serial.trace, parallel.trace);
  }
}

TEST(ParallelSweep, ZeroScenarioSweepIsEmpty) {
  SweepConfig sc = sweep_config({}, 4);
  sc.count = 0;
  const SweepResult res = run_sweep(sc);
  EXPECT_TRUE(res.runs.empty());
  EXPECT_TRUE(res.trace.empty());
  EXPECT_EQ(res.merged.total_samples(), 0u);
  EXPECT_EQ(res.merged.series_count(), 0u);
  EXPECT_EQ(res.trace_digest, trace_digest({}));
}

TEST(ParallelSweep, SingleScenarioSweepMatchesSerial) {
  const SweepResult serial = run_sweep(sweep_config({42}, 1));
  const SweepResult parallel = run_sweep(sweep_config({42}, 8));
  ASSERT_EQ(serial.runs.size(), 1u);
  expect_outcomes_identical(serial.runs, parallel.runs);
  expect_repositories_identical(serial.merged, parallel.merged);
  expect_traces_identical(serial.trace, parallel.trace);
}

TEST(ParallelSweep, DerivedSeedsAreAPureFunctionOfBaseSeedAndIndex) {
  SweepConfig sc = sweep_config({}, 2);
  sc.base.duration = sim::SimTime::milliseconds(200);
  sc.base.drain = sim::SimTime::milliseconds(200);
  sc.count = 5;
  sc.base_seed = 99;
  const SweepResult a = run_sweep(sc);
  sc.jobs = 1;
  const SweepResult b = run_sweep(sc);
  ASSERT_EQ(a.runs.size(), 5u);
  std::set<std::uint64_t> distinct;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.runs[i].seed, b.runs[i].seed);
    // Must match the documented derivation exactly.
    EXPECT_EQ(a.runs[i].seed, sim::Rng(99).fork(i).next_u64());
    distinct.insert(a.runs[i].seed);
  }
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(ParseSeedSet, AcceptsRangesAndDistinctListsRejectsEverythingElse) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  struct Accept {
    const char* text;
    std::vector<std::uint64_t> want;
  };
  const std::vector<Accept> accepts = {
      {"7", {7}},
      {"0", {0}},
      {"1,2,3", {1, 2, 3}},
      {"3,1,2", {3, 1, 2}},  // list order is run order
      {"3..5", {3, 4, 5}},
      {"5..5", {5}},
      {"18446744073709551615", {kMax}},
      {"18446744073709551614..18446744073709551615", {kMax - 1, kMax}},
  };
  for (const auto& c : accepts) {
    SCOPED_TRACE(c.text);
    std::string err;
    EXPECT_EQ(parse_seed_set(c.text, &err), c.want);
    EXPECT_TRUE(err.empty()) << err;
  }

  // The 1e6-seed cap: exactly 1e6 seeds parse, one more is refused.
  std::string err;
  const auto million = parse_seed_set("1..1000000", &err);
  ASSERT_EQ(million.size(), 1'000'000u);
  EXPECT_EQ(million.front(), 1u);
  EXPECT_EQ(million.back(), 1'000'000u);

  // Each rejection must name the offending token.
  struct Reject {
    const char* text;
    const char* names;
  };
  const std::vector<Reject> rejects = {
      {"", "empty seed set"},
      {"-1", "'-1'"},
      {"+1", "'+1'"},
      {" 1", "' 1'"},
      {"1 ", "'1 '"},
      {"1, 2", "' 2'"},
      {"18446744073709551616", "'18446744073709551616'"},
      {"99999999999999999999999", "'99999999999999999999999'"},
      {"0x10", "'0x10'"},
      {"1e3", "'1e3'"},
      {"1,2,", "empty seed list item"},
      {",1", "empty seed list item"},
      {"1,,2", "empty seed list item"},
      {"1,1", "duplicate seed '1'"},
      {"4,2,4", "duplicate seed '4'"},
      {"5..-1", "'-1'"},
      {"-1..5", "'-1'"},
      {"1..", "bad range end ''"},
      {"..5", "bad range start ''"},
      {"1..2..3", "'2..3'"},
      {"1..18446744073709551616", "'18446744073709551616'"},
      {"5..1", "range end below start"},
      {"1..1000001", "seed range too large"},
  };
  for (const auto& c : rejects) {
    SCOPED_TRACE(c.text);
    std::string why;
    EXPECT_TRUE(parse_seed_set(c.text, &why).empty());
    EXPECT_NE(why.find(c.names), std::string::npos) << why;
  }
}

// ---------------------------------------------------------------------------
// Building block: ShardRunner
// ---------------------------------------------------------------------------

TEST(ShardRunner, RunsEveryItemExactlyOnceOnPoolThreads) {
  const std::size_t n = 257;  // deliberately not a multiple of jobs
  std::vector<std::atomic<int>> hits(n);
  std::set<std::thread::id> threads_seen;
  std::mutex mu;
  sim::ShardRunner runner(8);
  runner.run(n, [&](std::size_t i) {
    hits[i].fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    threads_seen.insert(std::this_thread::get_id());
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // With jobs > 1 every item runs on a pool worker, never the caller.
  // (How many workers get a slice is the OS scheduler's business — on a
  // single-core host one worker may legitimately drain the whole queue.)
  EXPECT_EQ(threads_seen.count(std::this_thread::get_id()), 0u);
  EXPECT_GE(threads_seen.size(), 1u);
}

TEST(ShardRunner, JobsOneRunsInlineInOrder) {
  std::vector<std::size_t> order;
  sim::ShardRunner runner(1);
  const auto caller = std::this_thread::get_id();
  runner.run(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ShardRunner, FirstExceptionPropagatesAfterJoin) {
  sim::ShardRunner runner(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      runner.run(32,
                 [&](std::size_t i) {
                   if (i == 7) throw std::runtime_error("shard 7 exploded");
                   completed.fetch_add(1);
                 }),
      std::runtime_error);
  // The pool drained the remaining items rather than deadlocking.
  EXPECT_EQ(completed.load(), 31);
}

TEST(ShardRunner, PerItemRngStreamsAreKeyedByItemNotThread) {
  // Record the first draw of every item's stream at jobs=1 and jobs=8;
  // dynamic claiming means different threads own an item across runs, but
  // the stream must not care.
  const std::uint64_t base_seed = 1234;
  std::vector<std::uint64_t> serial(64), parallel(64);
  sim::ShardRunner one(1), eight(8);
  one.run(64, base_seed, [&](std::size_t i, sim::Rng& rng) { serial[i] = rng.next_u64(); });
  eight.run(64, base_seed, [&](std::size_t i, sim::Rng& rng) { parallel[i] = rng.next_u64(); });
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(std::set<std::uint64_t>(serial.begin(), serial.end()).size(), 64u);
}

TEST(Rng, ForkByStreamIsConstAndOrderIndependent) {
  const sim::Rng base(7);
  sim::Rng a = base.fork(3);
  sim::Rng b = base.fork(0);
  sim::Rng c = base.fork(3);  // same stream asked for again, other forks between
  EXPECT_EQ(a.next_u64(), c.next_u64());
  EXPECT_NE(a.next_u64(), b.next_u64());

  // const derivation: forking never perturbs the parent's own sequence.
  sim::Rng x(7), y(7);
  (void)x.fork(123);
  (void)x.fork(456);
  EXPECT_EQ(x.next_u64(), y.next_u64());
}

// ---------------------------------------------------------------------------
// Shared-state regressions: the global state the engine had to eliminate
// ---------------------------------------------------------------------------

// Pre-fix, TraceRecorder::global() was one process-wide ring: two worlds
// tracing on two threads interleaved into a single buffer and the merge
// could never be shard-order independent. Now every shard installs its own
// recorder and sees exactly its own events.
TEST(SharedStateRegression, TraceRecordersAreShardIsolatedAcrossThreads) {
  constexpr int kPerThread = 5000;
  auto worker = [](std::uint32_t session, std::vector<unites::TraceEvent>* out) {
    unites::TraceRecorder recorder;
    recorder.enable();
    unites::ScopedTraceRecorder scoped(recorder);
    for (int i = 0; i < kPerThread; ++i) {
      unites::trace().instant(unites::TraceCategory::kSim, "isolation.test",
                              sim::SimTime::nanoseconds(i), 0, session,
                              static_cast<double>(i));
    }
    *out = recorder.snapshot();
  };
  std::vector<unites::TraceEvent> a, b;
  std::thread ta(worker, 1u, &a);
  std::thread tb(worker, 2u, &b);
  ta.join();
  tb.join();

  ASSERT_EQ(a.size(), static_cast<std::size_t>(kPerThread));
  ASSERT_EQ(b.size(), static_cast<std::size_t>(kPerThread));
  for (int i = 0; i < kPerThread; ++i) {
    EXPECT_EQ(a[i].session, 1u);
    EXPECT_EQ(b[i].session, 2u);
    EXPECT_EQ(a[i].value, static_cast<double>(i));  // in-order, nothing foreign
    EXPECT_EQ(b[i].value, static_cast<double>(i));
  }
}

TEST(SharedStateRegression, ScopedTraceRecorderRestoresThePreviousRecorder) {
  unites::TraceRecorder outer;
  outer.enable();
  unites::ScopedTraceRecorder outer_scope(outer);
  unites::trace().instant(unites::TraceCategory::kSim, "outer", sim::SimTime::zero());
  {
    unites::TraceRecorder inner;
    inner.enable();
    unites::ScopedTraceRecorder inner_scope(inner);
    unites::trace().instant(unites::TraceCategory::kSim, "inner", sim::SimTime::zero());
    EXPECT_EQ(inner.size(), 1u);
  }
  unites::trace().instant(unites::TraceCategory::kSim, "outer-again", sim::SimTime::zero());
  EXPECT_EQ(outer.size(), 2u);  // inner event did not leak here
}

TEST(SharedStateRegression, ThreadDefaultRecorderDoesNotLeakAcrossThreads) {
  // Enabling tracing on a worker thread's default recorder must not flip
  // the main thread's recorder on (pre-fix they were the same object).
  ASSERT_FALSE(unites::trace().enabled());
  std::thread([] {
    unites::trace().enable();
    unites::trace().instant(unites::TraceCategory::kSim, "worker-only", sim::SimTime::zero());
    EXPECT_EQ(unites::trace().size(), 1u);
  }).join();
  EXPECT_FALSE(unites::trace().enabled());
  EXPECT_EQ(unites::trace().size(), 0u);
}

// Audit guard: BufferPool stats are per-host instance state; two worlds
// running scenarios on two threads must not bleed copy accounting into
// each other (that would also break the byte-identical merge above).
TEST(SharedStateRegression, BufferPoolAccountingStaysPerWorld) {
  auto run_one = [](std::uint64_t seed, std::uint64_t* copies) {
    World world([seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 4, seed); });
    RunOptions opt;
    opt.application = app::Table1App::kFileTransfer;
    opt.duration = sim::SimTime::milliseconds(500);
    opt.drain = sim::SimTime::milliseconds(500);
    opt.scale = 0.3;
    opt.seed = seed;
    (void)run_scenario(world, opt);
    // Allocation counters, not copy counters: the zero-copy datapath can
    // legitimately finish a sender-side run with zero recorded copies, but
    // every run allocates segments.
    *copies = world.host(0).buffers().stats().allocated_bytes;
  };
  std::uint64_t alone = 0;
  run_one(5, &alone);

  std::uint64_t with_neighbor = 0, neighbor = 0;
  std::thread ta(run_one, 5, &with_neighbor);
  std::thread tb(run_one, 6, &neighbor);
  ta.join();
  tb.join();
  EXPECT_GT(alone, 0u);
  EXPECT_EQ(alone, with_neighbor);  // the neighbor world changed nothing
}

}  // namespace
}  // namespace adaptive
