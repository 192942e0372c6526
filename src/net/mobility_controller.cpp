#include "net/mobility_controller.hpp"

#include "unites/trace.hpp"

#include <algorithm>

namespace adaptive::net {

MobilityController::MobilityController(Network& net, std::vector<NodeId> hosts, NodeId mobile,
                                       std::vector<LinkId> attachments)
    : net_(net), hosts_(std::move(hosts)), mobile_(mobile), attachments_(std::move(attachments)) {}

MobilityController::~MobilityController() {
  for (auto& h : scheduled_) h.cancel();
}

void MobilityController::arm(const sim::FaultPlan& plan) {
  for (const auto& spec : plan.faults) {
    switch (spec.kind) {
      case sim::FaultKind::kHandover: schedule_handover(spec); break;
      case sim::FaultKind::kGroupJoin:
      case sim::FaultKind::kGroupLeave: schedule_membership(spec); break;
      default: break;  // impairment kinds belong to the FaultInjector
    }
  }
}

void MobilityController::schedule_handover(const sim::FaultSpec& spec) {
  scheduled_.push_back(
      net_.scheduler().schedule_after(spec.at, [this, spec] { begin_handover(spec); }));
}

void MobilityController::schedule_membership(const sim::FaultSpec& spec) {
  scheduled_.push_back(
      net_.scheduler().schedule_after(spec.at, [this, spec] { apply_membership(spec); }));
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
  net_.monitor().record(NetEventKind::kRouteChange);
  // TraceEvent::detail must be a static-lifetime string (see
  // FaultInjector::record), so the trace carries the mode as a literal.
  unites::trace().instant(unites::TraceCategory::kNet, "net.handover.begin",
                          net_.scheduler().now(), 0, 0, static_cast<double>(to),
                          spec.make_before_break ? "mbb" : "bbm");
  if (on_handover_begin_) on_handover_begin_(spec);
  scheduled_.push_back(net_.scheduler().schedule_after(
      spec.duration, [this, spec, from, to] { finish_handover(spec, from, to); }));
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
  net_.monitor().record(NetEventKind::kRouteChange);
  unites::trace().instant(unites::TraceCategory::kNet, "net.handover.end",
                          net_.scheduler().now(), 0, 0, static_cast<double>(to),
                          spec.make_before_break ? "mbb" : "bbm");
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
  net_.monitor().record(NetEventKind::kRouteChange);
  unites::trace().instant(unites::TraceCategory::kNet,
                          joining ? "net.group.join" : "net.group.leave", net_.scheduler().now(),
                          0, 0, static_cast<double>(spec.node), nullptr);
  if (on_membership_) on_membership_(host, joining);
}

}  // namespace adaptive::net
