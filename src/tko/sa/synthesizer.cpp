#include "tko/sa/synthesizer.hpp"

#include "tko/sa/ack_strategy.hpp"
#include "tko/sa/connection_mgmt.hpp"
#include "tko/sa/error_detection.hpp"
#include "tko/sa/reliability.hpp"
#include "tko/sa/sequencing.hpp"
#include "tko/sa/transmission_ctrl.hpp"

#include "unites/profiler.hpp"

#include <stdexcept>

namespace adaptive::tko::sa {

std::vector<std::string> Synthesizer::validate(const SessionConfig& cfg) {
  std::vector<std::string> problems;
  if (cfg.segment_bytes == 0) problems.emplace_back("segment_bytes must be positive");
  if (cfg.segment_bytes > 60'000) problems.emplace_back("segment_bytes exceeds PDU payload limit");
  if (cfg.window_pdus == 0 && (cfg.transmission == TransmissionScheme::kSlidingWindow ||
                               cfg.transmission == TransmissionScheme::kWindowAndRate ||
                               cfg.transmission == TransmissionScheme::kSlowStart)) {
    problems.emplace_back("windowed transmission requires window_pdus >= 1");
  }
  if (cfg.transmission == TransmissionScheme::kRateControl &&
      cfg.inter_pdu_gap <= sim::SimTime::zero()) {
    problems.emplace_back("rate control requires a positive inter_pdu_gap");
  }
  const bool retransmitting = cfg.recovery == RecoveryScheme::kGoBackN ||
                              cfg.recovery == RecoveryScheme::kSelectiveRepeat;
  if (retransmitting && cfg.ack == AckScheme::kNone) {
    problems.emplace_back("retransmission-based recovery requires acknowledgments");
  }
  if (retransmitting && cfg.transmission == TransmissionScheme::kUnlimited) {
    problems.emplace_back("retransmission requires bounded in-flight data (pick a window)");
  }
  if (cfg.recovery == RecoveryScheme::kForwardErrorCorrection && cfg.fec_group_size == 0) {
    problems.emplace_back("FEC requires a positive group size");
  }
  if (cfg.recovery == RecoveryScheme::kForwardErrorCorrection && cfg.fec_group_size > 64) {
    problems.emplace_back("FEC group size beyond 64 makes recovery latency exceed retransmission");
  }
  if (cfg.message_oriented && !cfg.ordered_delivery) {
    problems.emplace_back("message-oriented delivery requires ordered delivery");
  }
  if (cfg.message_oriented && !retransmitting) {
    problems.emplace_back(
        "message-oriented delivery requires full reliability (a lost segment would"
        " desynchronize TSDU framing)");
  }
  if (retransmitting && cfg.detection == DetectionScheme::kNone) {
    problems.emplace_back("retransmission without error detection cannot see corrupted PDUs");
  }
  return problems;
}

std::unique_ptr<Mechanism> Synthesizer::make_mechanism(MechanismSlot slot,
                                                       const SessionConfig& cfg) {
  switch (slot) {
    case MechanismSlot::kConnection: return make_connection_mgmt(cfg);
    case MechanismSlot::kTransmission: return make_transmission_ctrl(cfg);
    case MechanismSlot::kReliability: return make_reliability(cfg);
    case MechanismSlot::kErrorDetection: return make_error_detection(cfg.detection);
    case MechanismSlot::kAckStrategy: return make_ack_strategy(cfg);
    case MechanismSlot::kSequencing: return make_sequencing(cfg);
    case MechanismSlot::kSlotCount: break;
  }
  throw std::invalid_argument("Synthesizer::make_mechanism: bad slot");
}

std::unique_ptr<Context> Synthesizer::synthesize(const SessionConfig& cfg, bool prevalidated) {
  UNITES_PROF("mantts.synthesize");
  const TemplateEntry* tpl =
      (!prevalidated && cache_ != nullptr) ? cache_->lookup(cfg) : nullptr;
  if (prevalidated) {
    // MANTTS synthesis-cache hit: Stage I/II were skipped upstream and the
    // SCS was validated when the entry was built; instantiation only, no
    // template comparison either.
    ++stats_.prevalidated;
    last_cost_ = kPrevalidatedInstr;
  } else if (tpl != nullptr) {
    // Pre-assembled: planning/validation was done when the template was
    // built; instantiation only.
    ++stats_.template_hits;
    last_cost_ = kTemplateHitInstr;
  } else {
    const auto problems = validate(cfg);
    if (!problems.empty()) {
      ++stats_.validation_failures;
      trace("tko.synthesize_failed", static_cast<double>(problems.size()), nullptr);
      std::string msg = "SCS validation failed:";
      for (const auto& p : problems) msg += " [" + p + "]";
      throw std::invalid_argument(msg);
    }
    last_cost_ = kSynthesisInstr;
  }
  ++stats_.synthesized;
  trace("tko.synthesize", static_cast<double>(last_cost_),
        prevalidated ? "cache-hit" : (tpl != nullptr ? "template-hit" : "full-synthesis"));

  auto ctx = std::make_unique<Context>();
  for (std::size_t i = 0; i < static_cast<std::size_t>(MechanismSlot::kSlotCount); ++i) {
    ctx->install(make_mechanism(static_cast<MechanismSlot>(i), cfg));
  }
  return ctx;
}

}  // namespace adaptive::tko::sa
