// City-scale session plane (DESIGN §14): one World, very many sessions.
//
// The paper's target deployment is "a metropolitan area" of hosts each
// running many concurrent multimedia sessions (Section 1). run_city is
// the driver for that shape: it ramps a configurable number of sessions
// up across every host pair, holds them under open/close churn while each
// session carries timestamped application messages, then tears everything
// down and verifies the session plane released what it held. The numbers
// it returns — synthesis-cache hit rate, peak concurrent sessions, pinned
// bytes per session, end-to-end latency percentiles under churn — are the
// session-plane trajectory scalars bench_city gates on.
//
// run_city_sweep shards the same driver over seeds through run_sweep's
// fold (fold_shards): per-seed Worlds that share nothing, each with its
// own trace ring, and a canonical ascending-seed fold, so jobs=1 and
// jobs=8 produce byte-identical merged results (DESIGN §9).
#pragma once

#include "adaptive/sweep.hpp"
#include "mantts/synthesis_cache.hpp"
#include "tko/session_table.hpp"
#include "unites/histogram.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace adaptive {

struct CityOptions {
  /// Driver-side opens held concurrently at peak. Each open creates one
  /// active session plus its passive mirror on the destination host, so
  /// the transport-layer concurrency is about twice this.
  std::size_t sessions = 1024;
  /// Close-oldest + open-new cycles spread across the hold phase.
  std::size_t churn_cycles = 0;
  /// Timestamped messages each session sends (first at open, the rest
  /// every `message_gap`).
  std::size_t messages_per_session = 2;
  std::size_t message_bytes = 64;  ///< clamped up to the 8-byte timestamp
  sim::SimTime message_gap = sim::SimTime::milliseconds(50);
  /// Distinct ACD shapes cycled across opens. 1 = homogeneous (the
  /// synthesis cache should serve nearly every open after the first);
  /// higher values force proportionally more Stage I/II misses.
  std::size_t acd_variants = 1;
  sim::SimTime ramp = sim::SimTime::seconds(1);   ///< opens spread over this
  sim::SimTime hold = sim::SimTime::seconds(1);   ///< churn + traffic window
  sim::SimTime drain = sim::SimTime::seconds(1);  ///< closes + reaping window
  /// Closed-session linger before the transport reaps the slot
  /// (AdaptiveTransport::set_session_reaper). zero() disables reaping.
  sim::SimTime reap_linger = sim::SimTime::milliseconds(20);
  std::uint64_t seed = 1;
  /// Scripted impairments, armed relative to the driver's start.
  std::optional<sim::FaultPlan> faults;
  /// Record per-host synthesis-cache counters into the World repository
  /// at harvest time (keys: metrics::kSynthCache*).
  bool record_metrics = true;
};

struct CityOutcome {
  std::uint64_t opened = 0;
  std::uint64_t refused = 0;
  std::uint64_t closed = 0;
  std::uint64_t reaped = 0;  ///< transport table slots freed by the reaper
  /// Peak driver-side open sessions (active endpoints only).
  std::size_t peak_active = 0;
  /// Transport-layer sessions live at the mid-hold sample (active +
  /// passive, summed over every host) — the "concurrent sessions in one
  /// World" headline.
  std::size_t peak_transport_sessions = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t send_rejected = 0;
  std::uint64_t messages_delivered = 0;
  /// End-to-end message latency (send stamp -> sink delivery), ns.
  unites::Histogram latency_ns;
  /// Stage I/II memoization, summed over every host's MANTTS entity.
  mantts::SynthesisCacheStats cache;
  double cache_hit_rate = 0.0;
  /// Session-table datapath counters, summed over hosts (max_probe is the
  /// max across hosts).
  tko::SessionTableStats table;
  /// Buffer-pool gauge before the first open and after the drain: equal
  /// values mean teardown released every pinned payload byte.
  std::uint64_t pool_live_bytes_baseline = 0;
  std::uint64_t pool_live_bytes_final = 0;
  std::uint64_t pool_high_water_bytes = 0;  ///< summed per-host peaks
  /// Mid-hold resource snapshot: pinned payload bytes across all live
  /// sessions (gauge + per-session peaks) and the session count seen.
  std::uint64_t peak_session_live_bytes = 0;
  std::uint64_t peak_session_high_water_bytes = 0;
  std::size_t peak_snapshot_sessions = 0;
  /// peak_session_high_water_bytes / peak_snapshot_sessions — the
  /// mem.bytes_per_session trajectory scalar.
  double bytes_per_session = 0.0;
  /// Transport-table slots still occupied after the drain (0 when the
  /// reaper is on and the drain outlasts reap_linger).
  std::size_t residual_sessions = 0;
};

/// Drive one World through ramp -> churn/hold -> teardown. The World must
/// have at least two hosts; sessions are opened round-robin from host
/// k%N to host (k+1)%N. Runs the scheduler through ramp+hold+drain.
[[nodiscard]] CityOutcome run_city(World& world, const CityOptions& opt);

/// Per-host session capacity a city of `opt.sessions` needs (active +
/// passive + churn margin) — pass to World's ResourceLimits.
[[nodiscard]] mantts::ResourceLimits city_limits(const CityOptions& opt);

/// Run the city driver once per seed, each on its own 8-host ethernet LAN
/// seeded by that seed, through fold_shards: results are independent of
/// `jobs` (same fold contract as run_sweep). `capture_trace` enables each
/// shard World's trace ring at the default capacity and merges them.
[[nodiscard]] ShardFold<CityOutcome> run_city_sweep(const CityOptions& base,
                                                    const std::vector<std::uint64_t>& seeds,
                                                    std::size_t jobs, bool capture_trace);

}  // namespace adaptive
