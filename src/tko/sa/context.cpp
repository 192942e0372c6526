#include "tko/sa/context.hpp"

#include "unites/profiler.hpp"

#include <stdexcept>

namespace adaptive::tko::sa {

void Context::install(std::unique_ptr<Mechanism> m) {
  if (m == nullptr) throw std::invalid_argument("Context::install: null mechanism");
  const auto idx = static_cast<std::size_t>(m->slot());
  slots_[idx] = std::move(m);
}

bool Context::complete() const {
  for (const auto& s : slots_) {
    if (s == nullptr) return false;
  }
  return true;
}

void Context::attach_all(SessionCore& core) {
  if (!complete()) throw std::logic_error("Context::attach_all: empty mechanism slot");
  core_ = &core;
  for (auto& s : slots_) s->attach(core);
  rewire();
}

void Context::rewire() {
  reliability().wire(&ack_strategy(), &sequencing());
}

Mechanism& Context::segue(std::unique_ptr<Mechanism> next) {
  if (next == nullptr) throw std::invalid_argument("Context::segue: null mechanism");
  if (core_ == nullptr) throw std::logic_error("Context::segue: context not attached");
  UNITES_PROF_S("context.segue", core_->session_id());
  const auto idx = static_cast<std::size_t>(next->slot());
  Mechanism* old = slots_[idx].get();
  if (old == nullptr) throw std::logic_error("Context::segue: slot was never installed");

  next->attach(*core_);

  // Typed state transfer, per slot family.
  switch (next->slot()) {
    case MechanismSlot::kConnection:
      static_cast<ConnectionMgmt&>(*next).segue_from(static_cast<ConnectionMgmt&>(*old));
      break;
    case MechanismSlot::kTransmission:
      static_cast<TransmissionCtrl&>(*next).segue_from(static_cast<TransmissionCtrl&>(*old));
      break;
    case MechanismSlot::kReliability:
      static_cast<ReliabilityMgmt&>(*next).segue_from(static_cast<ReliabilityMgmt&>(*old));
      break;
    case MechanismSlot::kErrorDetection:
      static_cast<ErrorDetection&>(*next).segue_from(static_cast<ErrorDetection&>(*old));
      break;
    case MechanismSlot::kAckStrategy:
      static_cast<AckStrategy&>(*next).segue_from(static_cast<AckStrategy&>(*old));
      break;
    case MechanismSlot::kSequencing:
      static_cast<Sequencing&>(*next).segue_from(static_cast<Sequencing&>(*old));
      break;
    case MechanismSlot::kSlotCount:
      throw std::logic_error("Context::segue: bad slot");
  }

  slots_[idx] = std::move(next);
  rewire();
  ++reconfigurations_;
  core_->count("context.segue");
  core_->trace_event("tko.segue", static_cast<double>(reconfigurations_),
                     to_string(static_cast<MechanismSlot>(idx)));
  return *slots_[idx];
}

ConnectionMgmt& Context::connection() const {
  return static_cast<ConnectionMgmt&>(*slot(MechanismSlot::kConnection));
}
TransmissionCtrl& Context::transmission() const {
  return static_cast<TransmissionCtrl&>(*slot(MechanismSlot::kTransmission));
}
ReliabilityMgmt& Context::reliability() const {
  return static_cast<ReliabilityMgmt&>(*slot(MechanismSlot::kReliability));
}
ErrorDetection& Context::detection() const {
  return static_cast<ErrorDetection&>(*slot(MechanismSlot::kErrorDetection));
}
AckStrategy& Context::ack_strategy() const {
  return static_cast<AckStrategy&>(*slot(MechanismSlot::kAckStrategy));
}
Sequencing& Context::sequencing() const {
  return static_cast<Sequencing&>(*slot(MechanismSlot::kSequencing));
}

std::string Context::describe() const {
  std::string out;
  for (const auto& s : slots_) {
    if (!out.empty()) out += " / ";
    out += s == nullptr ? "<empty>" : std::string(s->name());
  }
  return out;
}

}  // namespace adaptive::tko::sa
