// Sharded sweeps: run one configuration over many seeds, in parallel,
// with results that are byte-identical to a serial run.
//
// Each seed gets its own shard: a private World (its own scheduler,
// topology, hosts, metric repository and trace ring), so shards share
// *nothing* mutable. The merge step then folds per-shard repositories,
// trace buffers, and run records in ascending seed-index order — a fixed
// canonical order — so the merged report does not depend on which thread
// finished first or how many threads ran (DESIGN.md §9). fold_shards is
// that machinery; run_sweep (scenarios) and run_city_sweep (city.hpp) are
// two shard bodies over it. A body that wants a trace enables its World's
// ring and yields a snapshot of it.
#pragma once

#include "adaptive/scenario.hpp"
#include "sim/chaos.hpp"
#include "sim/shard_runner.hpp"
#include "unites/profiler.hpp"
#include "unites/repository.hpp"
#include "unites/sampler.hpp"
#include "unites/spans.hpp"
#include "unites/trace.hpp"

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace adaptive {

struct SweepConfig {
  /// Builds the per-seed topology factory (topologies are seeded, so each
  /// shard's network noise is an independent stream).
  std::function<World::TopologyFactory(std::uint64_t seed)> topology;

  /// Per-run options; `seed` is overwritten for every run.
  RunOptions base;

  /// Explicit seed list. If empty, `count` seeds are derived from
  /// `base_seed` (see sweep_seeds).
  std::vector<std::uint64_t> seeds;
  std::size_t count = 0;
  std::uint64_t base_seed = 1;

  /// Worker threads (1 = serial).
  std::size_t jobs = 1;

  /// Record each shard World's UNITES trace ring (at `trace_capacity`
  /// events) and merge the streams.
  bool capture_trace = false;
  std::size_t trace_capacity = unites::TraceRecorder::kDefaultCapacity;

  /// Whitebox profiler: install a shard-local Profiler per seed and merge
  /// the zone trees in seed order. Canonical (calls + sim_ns) values are
  /// independent of `jobs`; wall time is excluded from merged exports.
  bool capture_profile = false;

  /// Assemble causal message-lifecycle spans from each shard's trace ring
  /// (implies trace recording for the shard even when capture_trace is
  /// off) and record per-message latency-breakdown metrics.
  bool capture_spans = false;

  /// Attach a unites::Sampler to every shard (period `timeline_period`)
  /// and merge the per-seed resource timelines in canonical seed order,
  /// each point stamped with its seed — jobs=1 and jobs=8 are
  /// byte-identical (DESIGN §12).
  bool capture_timeline = false;
  sim::SimTime timeline_period = sim::SimTime::milliseconds(100);

  /// Non-empty: arm a post-mortem flight recorder. Any seed whose run
  /// violates a delivery invariant — or stalls without recovering — dumps
  /// a JSON bundle to this directory (one file per seed).
  std::string flight_recorder_dir;
  /// Dump a bundle for every seed, verdict or not (corpus replay).
  bool flight_record_always = false;

  /// Chaos mode: > 0 means each shard derives a randomized adversarial
  /// FaultPlan for its seed (ChaosPlanGenerator, up to `chaos` faults) and
  /// arms it in place of base.faults. Plans are pure functions of the
  /// seed, so sweep results stay independent of `jobs`.
  std::size_t chaos = 0;
  /// Shaping knobs for generated plans; link/host counts and the horizon
  /// are sized from each shard's world and run options.
  sim::ChaosProfile chaos_profile;
};

/// Cheap per-run record kept for every seed (full RunOutcomes would pin
/// every latency vector in memory across a large sweep).
struct SweepRunSummary {
  std::uint64_t seed = 0;
  bool qos_pass = false;
  bool refused = false;
  double throughput_bps = 0.0;
  std::int64_t mean_latency_ns = 0;
  double loss_fraction = 0.0;
  std::uint64_t units_received = 0;
  std::uint32_t reconfigurations = 0;
  /// Invariant-oracle verdict (see oracle.hpp).
  std::uint64_t violations = 0;
  std::string violation_detail;  ///< oracle describe(); empty when clean
  std::string chaos_plan;        ///< generated plan text (chaos mode only)
  /// Resource plane (harvest-time snapshot; see unites/resource.hpp).
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t pool_high_water_bytes = 0;
  std::uint64_t session_high_water_bytes = 0;
  std::uint64_t sessions = 0;   ///< live sessions at harvest
  std::uint64_t units_sent = 0; ///< source units (denominator for copies/msg)
  // Survivability plane (zero/empty unless the run armed mobility).
  std::uint64_t handovers = 0;          ///< completed handovers
  std::uint64_t membership_events = 0;  ///< joins + leaves applied
  double blackout_max_sec = 0.0;
  std::vector<double> blackouts_sec;    ///< raw samples (sweep-level p99)
  std::uint64_t stragglers_dropped = 0;
  std::uint64_t anchors_sent = 0;
  std::uint64_t resyntheses = 0;
  bool synthesis_current = true;
  // Conformance plane (DESIGN §16; defaults when the monitor was off).
  double time_in_contract = 1.0;
  std::uint64_t qos_windows = 0;      ///< graded windows
  std::uint64_t qos_windows_bad = 0;  ///< windows out of contract
  std::uint64_t qos_breaches = 0;     ///< breach episodes entered
  double qos_budget_consumed = 0.0;   ///< >= 1.0 = error budget exhausted
  double qoe = 1.0;                   ///< continuity proxy, [0, 1]
  std::int64_t first_breach_ns = -1;  ///< -1 = never breached
};

/// Size a chaos profile to a concrete world + run: targets only links the
/// injector can resolve, only hosts that exist, windows inside the
/// workload horizon, at most `max_faults` specs. run_sweep applies this to
/// every shard; tests replaying a corpus seed use it so a replay derives
/// the exact plan the sweep ran.
[[nodiscard]] sim::ChaosProfile size_chaos_profile(sim::ChaosProfile base, const World& world,
                                                   const RunOptions& opt,
                                                   std::size_t max_faults);

struct SweepResult {
  /// All shard repositories folded in seed order.
  unites::MetricRepository merged;
  /// All shard trace streams concatenated in seed order (each stream is in
  /// its shard's emission order). Empty unless capture_trace.
  std::vector<unites::TraceEvent> trace;
  std::uint64_t trace_events_emitted = 0;
  /// FNV-1a digest over the canonical trace stream; byte-identical runs
  /// have equal digests.
  std::uint64_t trace_digest = 0;
  std::vector<SweepRunSummary> runs;  ///< seed order
  /// All shard zone trees merged in seed order. Empty unless
  /// capture_profile (or a flight recorder forced per-shard profiling).
  unites::ProfileTree profile;
  /// All shard message spans concatenated in seed order, each stamped with
  /// its seed. Empty unless capture_spans.
  std::vector<unites::MessageSpan> spans;
  /// All shard resource timelines concatenated in seed order, each point
  /// stamped with its seed. Empty unless capture_timeline.
  unites::Timeline timeline;
  /// Flight-recorder bundles written during this sweep.
  std::size_t flight_bundles = 0;
};

/// Stable digest of a trace stream: FNV-1a 64 over every event's fields in
/// stream order. Two streams digest equal iff they are field-identical.
[[nodiscard]] std::uint64_t trace_digest(const std::vector<unites::TraceEvent>& events);

/// Parse a CLI seed set: either an inclusive range "A..B" (at most 1e6
/// seeds) or a comma list "a,b,c" of distinct seeds. Every seed is plain
/// decimal digits that fit in 64 bits: no sign, no whitespace, no empty
/// list item. Returns empty and names the bad token through `error` on
/// malformed input.
[[nodiscard]] std::vector<std::uint64_t> parse_seed_set(const std::string& text,
                                                        std::string* error = nullptr);

/// The seeds a sweep runs: `seeds` when non-empty, else `count` seeds
/// derived from `base_seed` via sim::Rng::fork(index) — shard-id-keyed
/// streams, so seed i is a pure function of (base_seed, i).
[[nodiscard]] std::vector<std::uint64_t> sweep_seeds(std::vector<std::uint64_t> seeds,
                                                     std::size_t count, std::uint64_t base_seed);

/// What a shard body hands to fold_shards besides its run record. Each
/// stream is concatenated in seed order; an empty one contributes nothing.
struct ShardYield {
  unites::MetricRepository repo;  ///< the shard World's repository
  std::vector<unites::TraceEvent> trace;
  std::uint64_t trace_emitted = 0;
  std::vector<unites::MessageSpan> spans;  ///< stamped with the shard's seed
  unites::Timeline timeline;               ///< stamped with the shard's seed
};

/// The canonical fold of one sharded sweep.
template <typename Run>
struct ShardFold {
  /// All shard repositories folded in seed order.
  unites::MetricRepository merged;
  /// All yielded trace streams concatenated in seed order (each stream is
  /// in its shard's emission order).
  std::vector<unites::TraceEvent> trace;
  std::uint64_t trace_events_emitted = 0;
  /// trace_digest(trace).
  std::uint64_t trace_digest = 0;
  std::vector<unites::MessageSpan> spans;  ///< seed order
  unites::Timeline timeline;               ///< seed order
  std::vector<Run> runs;                   ///< seed order
};

/// Run `body(seed, yield) -> Run` once per seed on a sim::ShardRunner
/// pool of `jobs` workers, then fold the yields and run records in
/// ascending seed order (each shard's buffers are appended once into
/// presized results). The result is independent of `jobs`.
template <typename Run, typename Body>
[[nodiscard]] ShardFold<Run> fold_shards(const std::vector<std::uint64_t>& seeds,
                                         std::size_t jobs, Body&& body) {
  ShardFold<Run> out;
  out.runs.resize(seeds.size());
  std::vector<ShardYield> yields(seeds.size());
  sim::ShardRunner(jobs).run(seeds.size(),
                             [&](std::size_t i) { out.runs[i] = body(seeds[i], yields[i]); });
  std::size_t events = 0;
  std::size_t span_count = 0;
  for (const auto& y : yields) {
    events += y.trace.size();
    span_count += y.spans.size();
  }
  out.trace.reserve(events);
  out.spans.reserve(span_count);
  for (auto& y : yields) {
    out.merged.merge(y.repo);
    out.trace.insert(out.trace.end(), y.trace.begin(), y.trace.end());
    out.trace_events_emitted += y.trace_emitted;
    out.spans.insert(out.spans.end(), y.spans.begin(), y.spans.end());
    out.timeline.insert(out.timeline.end(), std::make_move_iterator(y.timeline.begin()),
                        std::make_move_iterator(y.timeline.end()));
  }
  out.trace_digest = trace_digest(out.trace);
  return out;
}

/// Run the sweep. Shards execute on a sim::ShardRunner pool with
/// cfg.jobs workers; the result is independent of cfg.jobs.
[[nodiscard]] SweepResult run_sweep(const SweepConfig& cfg);

}  // namespace adaptive
