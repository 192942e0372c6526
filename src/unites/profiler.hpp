// UNITES whitebox profiler: per-mechanism execution accounting.
//
// The paper's whitebox metric class calls for "per-function instruction
// counts" and timing attribution inside synthesized configurations —
// numbers a blackbox observer can never produce. This profiler is the
// repo's answer: every mechanism handler, MANTTS stage, link path, and
// playout step opens an RAII ProfileScope (via UNITES_PROF / UNITES_PROF_S)
// and the scopes nest into a hierarchical zone tree — a flamegraph of the
// protocol stack, per session, with call counts, self virtual time, and
// self wall time per zone.
//
// Two timebases, two roles:
//  * `sim_ns` (virtual) and `calls` are pure functions of the scenario and
//    seed, so they survive the sharded engine's determinism gate: a merged
//    profile is byte-identical for --jobs 1 and --jobs 8. (Handlers run in
//    zero virtual time by design, so sim_ns doubles as an assertion that
//    no zone accidentally spans a scheduler wait.)
//  * `wall_ns` is real host time — the perf signal — and is therefore
//    nondeterministic. Canonical exports exclude it (include_wall=false);
//    single-run profiles may include it.
//
// Thread model (DESIGN.md §11.1): no process-global profiler. Unlike the
// trace ring, which each World owns, the profiler is reached per thread
// through Profiler::current(), which the repository benchmark calls: each
// thread has a default instance, and a shard worker installs a shard-local
// one with ScopedProfiler, so N worlds on N threads profile into N
// disjoint trees with no locking. Zones are a single predicted branch
// when the current profiler is disabled or has no bound clock.
#pragma once

#include "sim/time.hpp"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace adaptive::sim {
class EventScheduler;
}

namespace adaptive::unites {

namespace detail {
/// Raw wall timestamp for scope timing. Wall time is a diagnostic signal
/// (excluded from canonical exports), so the cheapest monotonic-ish
/// counter wins: rdtsc on x86 (~7ns vs ~25ns for clock_gettime); ticks
/// are converted to nanoseconds at snapshot time with a calibrated
/// factor. Elsewhere, fall back to steady_clock nanoseconds.
#if defined(__x86_64__) || defined(__i386__)
inline std::uint64_t wall_ticks() { return __builtin_ia32_rdtsc(); }
#else
inline std::uint64_t wall_ticks() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

/// Record the tick/steady-clock anchor pair used to calibrate tick→ns
/// conversion. Idempotent; Profiler::enable() calls it so the calibration
/// interval spans the whole profiled run.
void anchor_wall_calibration();
}  // namespace detail

/// One aggregated zone in a profile snapshot. Children are sorted by name
/// and coalesced by string content, so snapshots of the same run are
/// byte-identical regardless of string-literal addresses or thread count.
struct ProfileNode {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t sim_ns = 0;    ///< self (exclusive) virtual time
  std::uint64_t wall_ns = 0;  ///< self (exclusive) wall time — nondeterministic
  std::vector<ProfileNode> children;

  /// Fold `other` into this node (same name assumed): counts and times
  /// add, children merge recursively by name.
  void merge(const ProfileNode& other);
};

/// A full profile: one root per session (named "session/<id>"; id 0 holds
/// zones opened outside any session scope), sorted by session id.
struct ProfileTree {
  std::vector<ProfileNode> roots;

  [[nodiscard]] bool empty() const { return roots.empty(); }
  void merge(const ProfileTree& other);
  /// Total zone count (excluding the synthetic session roots).
  [[nodiscard]] std::size_t zone_count() const;
  /// Walk roots/children by exact names; nullptr when absent.
  [[nodiscard]] const ProfileNode* find(std::initializer_list<std::string_view> path) const;
  /// Collapsed-stack export ("root;child;grandchild <weight>" per line),
  /// the input format flamegraph renderers consume. `wall` selects wall
  /// nanoseconds as the weight (perf profile; nondeterministic), otherwise
  /// call counts (deterministic). Zones with zero weight are omitted.
  [[nodiscard]] std::string to_folded(bool wall = true) const;
};

class ProfileScope;

class Profiler {
public:
  /// The calling thread's current profiler: the innermost instance
  /// installed with ScopedProfiler, else the thread's default one.
  [[nodiscard]] static Profiler& current();

  /// Install `p` (nullptr = revert to the thread default) as the calling
  /// thread's current profiler; returns the previous override. Prefer
  /// ScopedProfiler.
  static Profiler* install(Profiler* p);

  void enable() {
    enabled_ = true;
    detail::anchor_wall_calibration();
  }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Virtual-time source. World binds its scheduler on construction and
  /// unbinds on destruction; zones no-op while no clock is bound, so an
  /// enabled profiler still costs one branch outside any world.
  void bind_clock(const sim::EventScheduler* clock) { clock_ = clock; }
  [[nodiscard]] const sim::EventScheduler* clock() const { return clock_; }

  /// Zones record only when enabled AND clocked.
  [[nodiscard]] bool active() const { return enabled_ && clock_ != nullptr; }

  /// Zones entered (scope opens) since enable()/clear().
  [[nodiscard]] std::uint64_t entered() const { return entered_; }

  /// Deterministic aggregated snapshot (see ProfileTree). Open scopes are
  /// included with their counts so far (calls counts completed exits).
  [[nodiscard]] ProfileTree snapshot() const;

  void clear();

  ~Profiler();
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

private:
  friend class ProfileScope;

  /// Live accumulation node. Children are keyed by the zone's string
  /// pointer (fast path); snapshot() coalesces by content.
  struct Node {
    const char* name = "";
    Node* parent = nullptr;
    std::uint64_t calls = 0;
    std::int64_t sim_ns = 0;
    std::uint64_t wall_ticks = 0;  ///< converted to ns at snapshot time
    std::uint32_t session = 0;  ///< session roots only
    std::vector<std::unique_ptr<Node>> children;  ///< insertion order
  };

  [[nodiscard]] Node* open(const char* zone, std::uint32_t session);
  void close(Node* n);
  [[nodiscard]] std::int64_t sim_now_ns() const;
  [[nodiscard]] static ProfileNode snapshot_node(const Node& n, double ns_per_tick);

  bool enabled_ = false;
  const sim::EventScheduler* clock_ = nullptr;
  std::unordered_map<std::uint32_t, std::unique_ptr<Node>> roots_;  ///< session roots by id
  Node* cursor_ = nullptr;                    ///< innermost open zone
  ProfileScope* top_scope_ = nullptr;
  std::uint64_t entered_ = 0;
};

/// RAII zone timer. Construction is a cheap branch when the thread's
/// current profiler is inactive; otherwise the scope opens a zone under
/// the innermost open scope (or under the session root when top-level)
/// and, on destruction, charges self time = elapsed - time spent in child
/// scopes.
class ProfileScope {
public:
  explicit ProfileScope(const char* zone, std::uint32_t session = 0) {
    Profiler& p = Profiler::current();
    if (p.active()) enter(p, zone, session);
  }
  ~ProfileScope() {
    if (node_ != nullptr) leave();
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

private:
  void enter(Profiler& p, const char* zone, std::uint32_t session);
  void leave();

  Profiler* prof_ = nullptr;
  Profiler::Node* node_ = nullptr;
  ProfileScope* parent_ = nullptr;
  std::int64_t sim_start_ = 0;
  std::uint64_t wall_start_ = 0;  ///< detail::wall_ticks units
  std::int64_t child_sim_ = 0;
  std::uint64_t child_wall_ = 0;  ///< detail::wall_ticks units
};

/// RAII install of a profiler as the calling thread's current one (shard
/// isolation).
class ScopedProfiler {
public:
  explicit ScopedProfiler(Profiler& p) : prev_(Profiler::install(&p)) {}
  ~ScopedProfiler() { Profiler::install(prev_); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

private:
  Profiler* prev_;
};

// Zone macros: the one-line instrumentation hook every mechanism handler
// uses. UNITES_PROF opens an anonymous scope inheriting the enclosing
// session; UNITES_PROF_S pins the session id (use at session entry points
// like transport send/rx so nested mechanism zones group under it).
#define UNITES_PROF_CAT2(a, b) a##b
#define UNITES_PROF_CAT(a, b) UNITES_PROF_CAT2(a, b)
#define UNITES_PROF(zone) \
  ::adaptive::unites::ProfileScope UNITES_PROF_CAT(unites_prof_scope_, __LINE__)(zone)
#define UNITES_PROF_S(zone, session) \
  ::adaptive::unites::ProfileScope UNITES_PROF_CAT(unites_prof_scope_, __LINE__)(zone, session)

}  // namespace adaptive::unites
