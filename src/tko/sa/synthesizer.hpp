// TKO_Synthesizer: Stage III of the MANTTS transformation (Figure 2,
// Section 4.2.2).
//
// Receives a Session Configuration Specification and instantiates the
// TKO_Context: one concrete mechanism per slot, composed and ready to
// attach to a session. A template-cache hit skips the planning/validation
// work (and is charged fewer CPU instructions in virtual time), which is
// what makes pre-assembled templates reduce connection-configuration
// latency — measured by bench_fig5_synthesis.
#pragma once

#include "tko/sa/config.hpp"
#include "tko/sa/context.hpp"
#include "tko/sa/templates.hpp"
#include "unites/trace.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace adaptive::tko::sa {

/// Virtual-time CPU cost of a full dynamic synthesis vs. a template hit.
/// A prevalidated synthesis (MANTTS synthesis-cache hit: Stage I/II were
/// skipped and the SCS was validated when the cache entry was built)
/// pays only mechanism instantiation — cheaper than even a template hit,
/// which still runs the cache comparison against the full config.
inline constexpr std::uint64_t kSynthesisInstr = 25'000;
inline constexpr std::uint64_t kTemplateHitInstr = 3'000;
inline constexpr std::uint64_t kPrevalidatedInstr = 1'500;

struct SynthesizerStats {
  std::uint64_t synthesized = 0;
  std::uint64_t template_hits = 0;
  std::uint64_t prevalidated = 0;  ///< MANTTS synthesis-cache fast path
  std::uint64_t validation_failures = 0;
};

class Synthesizer {
public:
  /// `cache` may be null (always full dynamic synthesis).
  explicit Synthesizer(TemplateCache* cache = nullptr) : cache_(cache) {}

  /// Validate `cfg` and build the mechanism table. Throws
  /// std::invalid_argument on inconsistent configurations. The returned
  /// context still needs attach_all() by the owning session. Pass
  /// `prevalidated` when the caller guarantees `cfg` already passed
  /// validate() (MANTTS synthesis-cache hit): validation is skipped and
  /// the cheaper kPrevalidatedInstr cost is charged.
  [[nodiscard]] std::unique_ptr<Context> synthesize(const SessionConfig& cfg,
                                                    bool prevalidated = false);

  /// CPU instructions to charge for the most recent synthesize() call
  /// (template hits are cheaper).
  [[nodiscard]] std::uint64_t last_cost_instr() const { return last_cost_; }

  /// Configuration sanity rules (also used by MANTTS Stage II to reject
  /// nonsense SCSs before they reach TKO). Returns the problems found.
  [[nodiscard]] static std::vector<std::string> validate(const SessionConfig& cfg);

  /// Build a single mechanism for one slot from the SCS (segue support:
  /// MANTTS synthesizes just the replacement object).
  [[nodiscard]] static std::unique_ptr<Mechanism> make_mechanism(MechanismSlot slot,
                                                                 const SessionConfig& cfg);

  [[nodiscard]] const SynthesizerStats& stats() const { return stats_; }

  /// Trace identity: the owning transport supplies its World's trace ring,
  /// virtual time and its node id, so synthesize() can stamp
  /// "tko.synthesize" trace events. Without a ring the synthesizer stays
  /// silent on the trace timeline.
  void set_trace_identity(unites::TraceRecorder& ring, std::function<sim::SimTime()> clock,
                          net::NodeId node) {
    trace_ = &ring;
    clock_ = std::move(clock);
    node_ = node;
  }

private:
  /// A kTko instant stamped with the transport's clock and node.
  void trace(const char* name, double value, const char* detail) const {
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->instant(unites::TraceCategory::kTko, name, clock_(), node_, 0, value, detail);
    }
  }

  TemplateCache* cache_;
  SynthesizerStats stats_;
  std::uint64_t last_cost_ = kSynthesisInstr;
  unites::TraceRecorder* trace_ = nullptr;
  std::function<sim::SimTime()> clock_;
  net::NodeId node_ = 0;
};

}  // namespace adaptive::tko::sa
