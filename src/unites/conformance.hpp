// Live QoS-conformance plane (DESIGN §16): streaming contract monitors.
//
// The post-mortem evaluator (app/qos_evaluator) grades a finished run once;
// a session can spend most of its lifetime out of contract and still pass.
// The ConformanceMonitor instead folds every delivery/playout event into
// tumbling virtual-time windows (250 ms) as the session runs,
// producing per-window conformance verdict vectors, an SLO error-budget /
// burn-rate track, and a scalar QoE continuity proxy. Verdicts flow four
// ways: qos.* metrics into the repository, kConformance breach/recovery
// events into the trace ring, a "conformance" section into breach-armed
// flight bundles, and a contract-health rung (in contract / burning /
// breached) that the MANTTS adaptation tick reads.
//
// Determinism contract: everything here derives from virtual time and the
// event stream only. Windows close lazily as events arrive (plus one
// finalize at harvest), per-session state lives in ordered maps, and all
// exports iterate in key order — a shard's qos timeline and verdicts are a
// pure function of (scenario, seed), byte-identical for any job count.
//
// The shared grade_window() is the *only* place contract comparison logic
// lives: the post-mortem evaluator delegates its cumulative verdict here,
// so live windows and end-of-run grading can never disagree.
#pragma once

#include "mantts/qos_contract.hpp"
#include "sim/time.hpp"
#include "unites/sampler.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adaptive::unites {

class MetricRepository;

/// Contract-health rung read by MANTTS adaptation (ordered by severity).
enum class ContractHealth : std::uint8_t {
  kNone = 0,     ///< no contract registered for the session
  kInContract,   ///< budget intact, no burn alarm
  kBurning,      ///< error budget burning faster than the alarm rate
  kBreached,     ///< in a breach episode, or budget exhausted
};
[[nodiscard]] const char* to_string(ContractHealth h);

/// Raw per-window fold, pre-verdict. One-pass: mean and jitter (stddev)
/// come from (count, sum, sum-of-squares) so a window never stores its
/// samples. The cumulative evaluator folds the whole run into one of
/// these and grades it with the same function live windows use.
struct WindowStats {
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;  ///< loss denominator (delivered + lost at source)
  std::uint64_t lost = 0;
  std::uint64_t late = 0;  ///< delivered past the latency bound / playout late drops
  std::uint64_t misordered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bytes = 0;
  double sum_latency_ns = 0.0;
  double sum_sq_latency_ns = 0.0;  ///< sum of squared latencies (ns^2)
  std::int64_t max_latency_ns = 0;
  std::int64_t span_ns = 0;  ///< time base for throughput

  void add_latency(std::int64_t latency_ns);
  [[nodiscard]] std::int64_t mean_latency_ns() const;
  [[nodiscard]] std::int64_t jitter_ns() const;  ///< stddev of the fold
  [[nodiscard]] double loss_fraction() const;
  [[nodiscard]] double throughput_bps() const;
};

/// One closed window's conformance verdict vector.
struct WindowVerdict {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< exclusive; < start+window for the final partial
  WindowStats stats;
  bool latency_ok = true;
  bool jitter_ok = true;
  bool loss_ok = true;
  bool order_ok = true;
  bool duplicates_ok = true;
  bool throughput_ok = true;

  [[nodiscard]] bool ok() const {
    return latency_ok && jitter_ok && loss_ok && order_ok && duplicates_ok && throughput_ok;
  }
  /// First failing dimension as a static-lifetime string ("latency",
  /// "jitter", "loss", "order", "dup", "throughput"); "ok" when clean.
  [[nodiscard]] const char* worst() const;
};

/// Grade `s` against `c` into `out` (verdict booleans only; out.stats must
/// already hold `s`). Dimensions with no evidence are vacuously true:
/// latency needs >= 1 sample, jitter >= 2, throughput only when
/// `grade_throughput` (full windows of contracts with a floor).
void grade_window(const mantts::QosContract& c, const WindowStats& s, bool grade_throughput,
                  WindowVerdict& out);

/// Conformance window length.
inline constexpr sim::SimTime kConformanceWindow = sim::SimTime::milliseconds(250);
/// Consecutive bad windows to enter a breach episode / clean windows to
/// leave it (hysteresis, so one marginal window cannot flap the rung).
inline constexpr int kBreachEnterWindows = 2;
inline constexpr int kBreachExitWindows = 2;
/// An outstanding unit older than this at a window close is declared lost
/// (charged to that window). Must exceed retransmission chains or clean
/// reliable runs read false loss; finalize() ignores it.
inline constexpr sim::SimTime kLossHorizon = sim::SimTime::seconds(2);
/// Multi-window burn-rate detection: fraction of bad windows over the
/// trailing short/long window, divided by the contract's budget fraction.
/// Alarm thresholds per the SRE fast/slow-burn pattern.
inline constexpr std::size_t kFastBurnWindows = 4;
inline constexpr std::size_t kSlowBurnWindows = 16;
inline constexpr double kFastBurnAlarm = 10.0;
inline constexpr double kSlowBurnAlarm = 2.0;

/// Everything the monitor knows about one session, exported at harvest.
struct SessionConformance {
  mantts::QosContract contract;
  std::uint64_t registrations = 0;  ///< contract (re-)registrations seen
  std::vector<WindowVerdict> windows;
  std::uint64_t windows_bad = 0;
  /// Fraction of graded windows in contract; 1.0 when none were graded.
  double time_in_contract = 1.0;
  /// Error budget consumed: bad windows / (budget_fraction * expected
  /// windows over the contract duration); >= 1.0 = exhausted.
  double budget_consumed = 0.0;
  double fast_burn = 0.0;  ///< trailing-window burn rates at last close
  double slow_burn = 0.0;
  std::uint64_t breaches = 0;    ///< breach episodes entered
  std::uint64_t recoveries = 0;  ///< episodes exited via clean windows
  std::int64_t first_breach_ns = -1;  ///< close time of the declaring window
  ContractHealth health = ContractHealth::kNone;
  /// QoE continuity proxy: 1 - (lost + 0.5*late) / units expected, in
  /// [0, 1]. Late = delivered past the latency bound or dropped at playout.
  double qoe = 1.0;
  WindowStats cumulative;  ///< whole-run fold (all windows + open tail)
  std::uint64_t units_sent = 0;

  [[nodiscard]] std::string to_json() const;
};

class ConformanceMonitor {
public:
  /// Disabled: registration and every feed become early-return no-ops
  /// (the bench_fig6_unites overhead gate measures exactly this delta).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// qos.* metrics land here as windows close (optional).
  void set_repository(MetricRepository* repo) { repo_ = repo; }

  /// Register (or re-register, on resynthesis) the contract a session is
  /// held to. Re-registration keeps the window history — the session is
  /// still the same promise to the application — but later windows grade
  /// against the new bounds.
  void register_contract(const mantts::QosContract& c, sim::SimTime now);
  [[nodiscard]] bool has_contract(std::uint32_t session) const;
  [[nodiscard]] std::uint64_t registrations(std::uint32_t session) const;

  /// Multicast fan-out: each sent unit owes `n` deliveries (default 1).
  void set_fanout(std::uint32_t session, std::uint64_t n);

  // --- event feeds (no-ops for sessions without a contract) -------------
  /// Source submitted one application unit (starts the window grid).
  void on_send(std::uint32_t session, std::uint32_t unit, sim::SimTime now);
  /// Sink accepted one unit. `duplicate`/`misordered` mirror the sink's
  /// own bookkeeping so both graders count identically.
  void on_delivery(std::uint32_t session, std::uint32_t unit, sim::SimTime now,
                   std::int64_t latency_ns, std::uint64_t bytes, bool duplicate,
                   bool misordered);
  /// Raw delivered bytes with no unit header (continuation fragments);
  /// feeds window throughput only. Wired from the TKO delivery tap.
  void on_bytes(std::uint32_t session, sim::SimTime now, std::uint64_t bytes);
  /// Playout buffer outcome for one unit: a late drop charges the QoE
  /// proxy and the current window's late count.
  void on_playout_late(std::uint32_t session, sim::SimTime now);

  /// Close the open window (partial, throughput ungraded), declare every
  /// still-outstanding unit lost, and freeze the report. Idempotent.
  void finalize(std::uint32_t session, sim::SimTime now);
  void finalize_all(sim::SimTime now);

  [[nodiscard]] const SessionConformance* report(std::uint32_t session) const;
  [[nodiscard]] ContractHealth health(std::uint32_t session) const;
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  /// Append qos.* gauge points for every monitored session (key order) —
  /// the Sampler's extra-gauge hook, so qos tracks ride the resource
  /// timeline and its Chrome counter exports.
  void capture_timeline(sim::SimTime when, Timeline& out) const;

private:
  struct Outstanding {
    std::int64_t sent_ns = 0;
    std::uint64_t remaining = 1;  ///< deliveries still owed (fan-out)
  };
  struct State {
    SessionConformance rep;
    std::uint64_t fanout = 1;
    bool started = false;      ///< grid anchors at the first event
    bool finalized = false;
    std::int64_t window_start = 0;
    std::int64_t last_event_ns = 0;
    WindowStats cur;           ///< open window fold
    int consecutive_bad = 0;
    int consecutive_ok = 0;
    bool in_breach = false;
    bool budget_announced = false;  ///< qos.budget_exhausted emitted
    std::uint64_t lost_units = 0;
    std::uint64_t late_units = 0;
    std::map<std::uint32_t, Outstanding> outstanding;  ///< unit -> owed
  };

  State* feed_target(std::uint32_t session, sim::SimTime now);
  void roll(State& st, std::int64_t now_ns);
  void close_window(State& st, std::int64_t end_ns, bool partial);
  void declare_losses(State& st, std::int64_t before_ns);
  void update_budget(State& st, std::int64_t at_ns, const WindowVerdict& v);
  void refresh_qoe(State& st);

  MetricRepository* repo_ = nullptr;
  bool enabled_ = true;
  std::map<std::uint32_t, State> sessions_;
};

}  // namespace adaptive::unites
