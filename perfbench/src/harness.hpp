// Shared machinery of the repository benchmark: clocks, the statistics the
// report is built from, benchmark-owned spans, layer attribution of a
// traced run, and the per-World counter harvest.
//
// Everything here observes the library from outside: it reads public
// stats, opens UNITES profiler zones around the benchmark's own calls, and
// times those calls. Nothing is added to the library.
#pragma once

#include "adaptive/world.hpp"
#include "unites/profiler.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

[[nodiscard]] double wall_now();     ///< steady clock, seconds
[[nodiscard]] double cpu_now();      ///< process user+sys CPU, seconds (all threads)
[[nodiscard]] double peak_rss_mb();  ///< ru_maxrss of this process, MiB
void busy_wait_ns(std::uint64_t ns);

/// Wall and CPU windows over one timed phase. Both clocks are read at the
/// same two points, so the windows cover the timed phase and nothing else.
class TimedPhase {
public:
  void start();
  void stop();
  [[nodiscard]] double wall_s() const { return wall_end_ - wall_start_; }
  [[nodiscard]] double cpu_s() const { return cpu_end_ - cpu_start_; }

private:
  double wall_start_ = 0, wall_end_ = 0, cpu_start_ = 0, cpu_end_ = 0;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank quantile of ascending `sorted` data: the value at 1-based
/// rank ceil(q * n). q in (0, 1].
[[nodiscard]] double quantile_nearest_rank(const std::vector<double>& sorted, double q);

/// Samples strictly above rank ceil(q * n) — how many lie beyond the
/// nearest-rank q-quantile.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double q);

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
inline constexpr std::uint64_t kTailSamples = 10;

struct TailPercentile {
  double percentile = 0;  ///< e.g. 99.9
  double value = 0;
  std::uint64_t beyond = 0;
  std::uint64_t samples = 0;
};

/// The highest percentile of the ladder 99.99 / 99.9 / 99 / 90 / 50 that
/// still has at least kTailSamples samples beyond it; nullopt when none.
[[nodiscard]] std::optional<TailPercentile> highest_supported_tail(
    const std::vector<double>& sorted);

/// p99.9 when at least kTailSamples samples lie beyond it, else nullopt.
[[nodiscard]] std::optional<double> p999_if_supported(const std::vector<double>& sorted);

/// Units delivered / units owed. Owed counts every unit a receiver should
/// have got: multicast owes one delivery per receiver, and a refused open
/// still owes its units.
[[nodiscard]] double success_fraction(double delivered, double owed);

/// Units owed by one sender: units attempted x receivers.
[[nodiscard]] double units_owed(double units_attempted, double receivers);

// ---------------------------------------------------------------------------
// Benchmark spans
// ---------------------------------------------------------------------------

/// Process-wide switches of the benchmark's own instrumentation.
struct TraceSwitch {
  bool on = false;  ///< traced run: record per-call span samples
  /// Busy-wait injected into the benchmark-owned delivery callback per
  /// delivered unit (sensitivity self-check; 0 in normal runs).
  std::uint64_t inject_deliver_ns = 0;
  /// Inclusive duration of each benchmark call, microseconds, by span name.
  std::map<std::string, std::vector<double>> call_us;
};
[[nodiscard]] TraceSwitch& trace_switch();

/// A span around one benchmark call into a layer. It is a UNITES profiler
/// zone (so library zones opened inside it are subtracted from its self
/// time, and its own time is subtracted from any enclosing library zone),
/// and in a traced run it also records the call's inclusive duration.
/// Outside a traced run the profiler is disabled and the zone is one
/// predicted branch.
class Span {
public:
  explicit Span(const char* zone);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  adaptive::unites::ProfileScope scope_;
  const char* zone_;
  double start_ = 0;
};

// ---------------------------------------------------------------------------
// Layer attribution
// ---------------------------------------------------------------------------

/// Layers whose self time a traced run reports, in report order.
[[nodiscard]] const std::vector<std::string>& timed_layers();

/// The layer a profiler zone belongs to ("" = not attributed to a layer).
/// Library zones are grouped by module prefix; benchmark spans are named
/// "bench.<layer>.<call>".
[[nodiscard]] std::string layer_of_zone(std::string_view zone);

/// Sum every zone's self wall time per layer, milliseconds.
[[nodiscard]] std::map<std::string, double> layer_self_ms(
    const adaptive::unites::ProfileTree& tree);

struct Attribution {
  std::map<std::string, double> layer_ms;  ///< every timed layer present
  double unattributed_ms = 0;
  double unattributed_share = 0;
};

/// Split a traced total (wall, or CPU for a parallel workload) into the
/// layers' self times and the unattributed remainder; the parts sum to
/// the total by construction.
[[nodiscard]] Attribution attribute(double traced_total_ms,
                                    const std::map<std::string, double>& layer_ms);

// ---------------------------------------------------------------------------
// Counter harvest
// ---------------------------------------------------------------------------

/// Exact, deterministic results of one pass, by metric name. Repeated
/// passes over the same inputs must produce identical maps.
using Exact = std::map<std::string, double>;

/// Counters of whole Worlds (scheduler, links, hosts, transports, MANTTS).
struct WorldCounts {
  double events = 0;
  double link_packets = 0, link_bytes = 0, drops = 0, corrupted = 0;
  double allocations = 0, copies = 0, copied_bytes = 0;
  double pool_high_water_bytes = 0;  ///< max over Worlds of the per-host sum
  double instructions = 0, interrupts = 0;
  double table_finds = 0, table_probe_steps = 0, table_rehashes = 0;
  double cache_hits = 0, cache_misses = 0;
  double opens = 0, renegotiations = 0, reconfig_retries = 0, renegotiation_failures = 0,
         policy_firings = 0;

  void add(adaptive::World& world);
};

/// Counters of the sessions a workload graded.
struct SessionCounts {
  double pdus_sent = 0, data_sent = 0, retransmissions = 0;
  double checksum_failures = 0, watchdog_stalls = 0, watchdog_recoveries = 0, segues = 0;

  void add(adaptive::tko::TransportSession& s);
};

/// Write the per-layer count metrics that every workload reports.
void put_layer_counts(Exact& out, const WorldCounts& w, const SessionCounts& s, double units,
                      double payload_bytes);

/// Write vt.latency_p50_ms, vt.latency_p999_ms (when >= kTailSamples lie
/// beyond it), the highest supported tail percentile and the sample count
/// from ascending per-unit latencies in milliseconds.
void put_latency(Exact& out, const std::vector<double>& sorted_ms);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct IterationResult {
  double wall_s = 0;  ///< timed phase
  double cpu_s = 0;   ///< timed phase, process CPU
  double units = 0;   ///< application units delivered, once per receiver
  double owed = 0;    ///< application units owed
  Exact exact;
  /// Traced passes only: the UNITES profile of the timed phase, and the
  /// time of the export spans, which run outside any World's clock.
  adaptive::unites::ProfileTree profile;
  double export_ms = 0;
};

struct SetupSample {
  double setup_s = 0;
  double world_build_s = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One fresh set-up, built and torn down.
  virtual SetupSample setup_once() = 0;
  /// One full pass. `traced` switches the UNITES profiler on for the timed
  /// phase; outputs must not depend on it.
  virtual IterationResult iterate(bool traced) = 0;
  /// Worker threads of the timed phase.
  [[nodiscard]] virtual std::size_t workers() const { return 1; }
  /// Checks the work content of a pass against the workload definition;
  /// returns "" when it matches.
  [[nodiscard]] virtual std::string check_work_content(const IterationResult& r) const = 0;
  /// Extra determinism checks that need their own passes (media_chaos:
  /// one worker against two). Returns "" when they pass.
  [[nodiscard]] virtual std::string check_parallel_determinism() { return ""; }
  /// Traced run only: extra per-layer metrics with no untraced source
  /// (counter replays, capture-off passes).
  virtual void trace_extras(double untraced_wall_s, Exact& per_layer, std::string* error) {
    (void)untraced_wall_s, (void)per_layer, (void)error;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_bulk_atm(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_city_churn(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_media_chaos(std::uint64_t seed);

}  // namespace perfbench
