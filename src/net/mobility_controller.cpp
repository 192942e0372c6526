#include "net/mobility_controller.hpp"

#include <algorithm>

namespace adaptive::net {

MobilityController::MobilityController(Network& net, std::vector<NodeId> hosts, NodeId mobile,
                                       std::vector<LinkId> attachments)
    : net_(net), hosts_(std::move(hosts)), mobile_(mobile), attachments_(std::move(attachments)) {}

MobilityController::Scheduled::Scheduled(MobilityController& mc, Step step,
                                         const sim::FaultSpec& spec, std::size_t from,
                                         std::size_t to)
    : step(step),
      spec(spec),
      from(from),
      to(to),
      timer(mc.net_.scheduler(), [&mc, this] { mc.fire(*this); }) {}

void MobilityController::arm(const sim::FaultPlan& plan) {
  for (const auto& spec : plan.faults) {
    switch (spec.kind) {
      case sim::FaultKind::kHandover:
        schedule(Scheduled::Step::kHandoverBegin, spec, spec.at);
        break;
      case sim::FaultKind::kGroupJoin:
      case sim::FaultKind::kGroupLeave:
        schedule(Scheduled::Step::kMembership, spec, spec.at);
        break;
      default: break;  // impairment kinds belong to the FaultInjector
    }
  }
}

void MobilityController::schedule(Scheduled::Step step, const sim::FaultSpec& spec,
                                  sim::SimTime delay, std::size_t from, std::size_t to) {
  scheduled_.emplace_back(*this, step, spec, from, to).timer.arm_after(delay);
}

void MobilityController::fire(const Scheduled& s) {
  switch (s.step) {
    case Scheduled::Step::kHandoverBegin: begin_handover(s.spec); break;
    case Scheduled::Step::kHandoverEnd: finish_handover(s.spec, s.from, s.to); break;
    case Scheduled::Step::kMembership: apply_membership(s.spec); break;
  }
}

void MobilityController::begin_handover(const sim::FaultSpec& spec) {
  if (spec.node >= hosts_.size() || hosts_[spec.node] != mobile_ ||
      spec.to_attachment >= attachments_.size()) {
    ++stats_.unresolved_targets;
    return;
  }
  const std::size_t to = spec.to_attachment;
  // The parser rejects contradictory windows, but a directly scripted plan
  // can still collide with an in-flight transition — and a handover to the
  // attachment already serving the host would be a no-op route flap.
  if (in_transition_ || to == active_) {
    ++stats_.handovers_skipped;
    return;
  }
  in_transition_ = true;
  ++stats_.handovers_started;
  const std::size_t from = active_;
  if (spec.make_before_break) {
    net_.set_link_pair_up(attachments_[to], true);  // overlap: both up
  } else {
    net_.set_link_pair_up(attachments_[from], false);  // blackout starts
  }
  // TraceEvent::detail must be a static-lifetime string (see
  // FaultInjector::trace), so the trace carries the mode as a literal.
  trace("net.handover.begin", static_cast<double>(to), spec.make_before_break ? "mbb" : "bbm");
  if (on_handover_begin_) on_handover_begin_(spec);
  schedule(Scheduled::Step::kHandoverEnd, spec, spec.duration, from, to);
}

void MobilityController::finish_handover(const sim::FaultSpec& spec, std::size_t from,
                                         std::size_t to) {
  if (spec.make_before_break) {
    net_.set_link_pair_up(attachments_[from], false);  // old path dies
  } else {
    net_.set_link_pair_up(attachments_[to], true);  // blackout ends
  }
  active_ = to;
  in_transition_ = false;
  ++stats_.handovers_completed;
  trace("net.handover.end", static_cast<double>(to), spec.make_before_break ? "mbb" : "bbm");
  if (on_handover_) on_handover_(spec);
}

void MobilityController::apply_membership(const sim::FaultSpec& spec) {
  if (spec.node >= hosts_.size() || !has_group_) {
    ++stats_.unresolved_targets;
    return;
  }
  const NodeId host = hosts_[spec.node];
  const bool joining = spec.kind == sim::FaultKind::kGroupJoin;
  const auto& members = net_.group_members(group_);
  const bool is_member = std::find(members.begin(), members.end(), host) != members.end();
  if (joining == is_member) return;  // no-op (already in the target state)
  if (joining) {
    net_.join_group(group_, host);
    ++stats_.joins;
  } else {
    net_.leave_group(group_, host);
    ++stats_.leaves;
  }
  trace(joining ? "net.group.join" : "net.group.leave", static_cast<double>(spec.node), nullptr);
  if (on_membership_) on_membership_(host, joining);
}

}  // namespace adaptive::net
