// Post-mortem flight recorder: when a run dies wrong, ship the evidence.
//
// PR 4's chaos engine can detect an invariant violation or a liveness
// stall, but until now the verdict arrived naked — one describe() line,
// with the trace ring, profile, and mechanism state already destroyed
// with the shard. A FlightBundle is everything a human (or a regression
// harness) needs to replay the failure without re-running it: the
// violated invariants and the mechanism zone that owns each one, the
// last-N trace ring, still-open message spans, the whitebox zone tree,
// mechanism counters, the session's final configuration and mechanism
// lineup, and the fault-plan window state that was in force.
//
// Bundles are plain JSON, one file per seed, written by the shard that
// observed the failure (seed-named files, so parallel shards never
// contend). Content derives from virtual time only (include_wall=false),
// so a bundle is byte-identical no matter how many jobs the sweep used.
#pragma once

#include "unites/profiler.hpp"
#include "unites/spans.hpp"
#include "unites/trace.hpp"

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace adaptive::unites {

/// One violated invariant plus the mechanism zone accountable for it
/// (e.g. no-silent-loss → "reliability.gbn"). The caller maps rules to
/// zones — the recorder records, it does not diagnose.
struct FlightViolation {
  std::string rule;
  std::string detail;
  std::string zone;
};

struct FlightBundle {
  std::uint64_t seed = 0;
  /// Why the recorder fired: "invariant-violation", "watchdog-stall",
  /// "qos-breach" (conformance budget exhausted on a fault-free run), or
  /// "replay" (forced dump of a clean run for corpus archaeology).
  std::string reason;
  std::vector<FlightViolation> violations;
  std::string session_config;  ///< final SessionConfig::describe()
  std::string context;         ///< mechanism lineup (Context::describe())
  std::string fault_plan;      ///< armed plan text (window schedule)
  std::string chaos_plan;      ///< generated chaos plan text (chaos mode)
  /// Mechanism counters: pre-rendered metrics JSONL (one object per line).
  std::string metrics_jsonl;
  /// Resource-plane snapshot at harvest time: pre-rendered JSON object
  /// (ResourceSnapshot::to_json()), empty when not captured.
  std::string resource_json;
  /// QoS-conformance report for the graded session: pre-rendered JSON
  /// object (SessionConformance::to_json()), empty when no contract was
  /// monitored. Breach-armed bundles ("qos-breach") always carry one.
  std::string conformance_json;
  std::vector<TraceEvent> trace;  ///< last-N ring at shard end
  std::vector<MessageSpan> open_spans;
  std::uint64_t spans_total = 0;  ///< all assembled spans, open + closed
  ProfileTree profile;
};

class FlightRecorder {
public:
  /// Bundles land in `dir` (created on first dump).
  explicit FlightRecorder(std::string dir) : dir_(std::move(dir)) {}

  /// Write `b` to "<dir>/flight-seed<seed>.json"; returns the path.
  /// Throws std::runtime_error if the directory or file cannot be
  /// created or the file cannot be fully written.
  std::string dump(const FlightBundle& b) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Render the bundle JSON (what dump() writes).
  static void write_bundle(std::ostream& out, const FlightBundle& b);

private:
  std::string dir_;
};

}  // namespace adaptive::unites
