// Mobility controller: executes the mobility-control events of a
// sim::FaultPlan against a live Network.
//
// Where the FaultInjector impairs links, the MobilityController *moves*
// endpoints: a handover re-homes the topology's mobile host from its
// current attachment link to another one mid-stream, and join/leave
// events churn the scenario multicast group's membership. Both flow
// through Network::set_link_pair_up / join_group / leave_group, so SPF
// and the multicast trees recompute exactly as they would for a fault —
// the NMI then sees the new path (route_version bump) and MANTTS
// re-synthesizes. The controller's set_link_pair_up calls are its choice
// of attachment and nothing more: a pair a fault outage holds down (a
// partition of the mobile host) stays down until the last hold ends, and
// then carries traffic only if the controller still has it set up. Two
// handover disciplines:
//
//  * make-before-break (mode=mbb): the target attachment comes up at the
//    window start, both stay up for the transition window, then the old
//    one drops — in-flight data on the old path drains while new traffic
//    can already use the new one.
//  * break-before-make (mode=bbm): the old attachment drops at the window
//    start, the host is dark for the window, then the target comes up —
//    the worst case the survivability oracle's blackout bound polices.
//
// Scheduled callbacks capture `this`; the controller owns their timers,
// so destroying it cancels everything unfired (as with FaultInjector).
#pragma once

#include "net/network.hpp"
#include "sim/fault_plan.hpp"

#include <deque>
#include <functional>
#include <vector>

namespace adaptive::net {

class MobilityController {
public:
  /// `hosts` maps plan host index -> NodeId (the topology's host list);
  /// `mobile` is the host that moves; `attachments` are the candidate
  /// attachment links (forward ids), attachments[active] currently up.
  MobilityController(Network& net, std::vector<NodeId> hosts, NodeId mobile,
                     std::vector<LinkId> attachments);
  MobilityController(const MobilityController&) = delete;
  MobilityController& operator=(const MobilityController&) = delete;

  /// The scenario multicast group join/leave events operate on. Unset
  /// means membership events are unresolved (counted, not fatal).
  void set_group(NodeId group) { group_ = group; has_group_ = true; }

  /// Fired when a handover transition window opens (link state already
  /// flipped: mbb has both attachments up, bbm has gone dark). Blackout
  /// measurement starts here.
  using HandoverObserver = std::function<void(const sim::FaultSpec&)>;
  void set_handover_begin_observer(HandoverObserver fn) { on_handover_begin_ = std::move(fn); }

  /// Fired when a handover completes (new attachment is the active one;
  /// for mbb the old link is already down). Sessions re-anchor
  /// retransmission state here.
  void set_handover_observer(HandoverObserver fn) { on_handover_ = std::move(fn); }

  /// Fired after a membership change took effect (`joined` = direction).
  using MembershipObserver = std::function<void(NodeId host, bool joined)>;
  void set_membership_observer(MembershipObserver fn) { on_membership_ = std::move(fn); }

  /// Schedule every mobility event in `plan` (relative to the current sim
  /// time); non-mobility kinds are ignored. Events whose targets do not
  /// resolve are counted, not fatal.
  void arm(const sim::FaultPlan& plan);

  [[nodiscard]] std::size_t active_attachment() const { return active_; }

  struct Stats {
    std::uint64_t handovers_started = 0;
    std::uint64_t handovers_completed = 0;
    std::uint64_t handovers_skipped = 0;  ///< in-flight collision or no-op target
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t unresolved_targets = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  /// One scheduled mobility step. It owns its timer, which points back at
  /// it; destroying the controller cancels whatever has not fired.
  struct Scheduled {
    enum class Step { kHandoverBegin, kHandoverEnd, kMembership };
    Scheduled(MobilityController& mc, Step step, const sim::FaultSpec& spec, std::size_t from = 0,
              std::size_t to = 0);
    Step step;
    sim::FaultSpec spec;
    std::size_t from;  ///< kHandoverEnd: the attachments it moves between
    std::size_t to;
    sim::Timer timer;
  };

  void schedule(Scheduled::Step step, const sim::FaultSpec& spec, sim::SimTime delay,
                std::size_t from = 0, std::size_t to = 0);
  void fire(const Scheduled& s);
  void begin_handover(const sim::FaultSpec& spec);
  void finish_handover(const sim::FaultSpec& spec, std::size_t from, std::size_t to);
  void apply_membership(const sim::FaultSpec& spec);
  /// A kNet trace event in the network's ring, stamped with now.
  void trace(const char* name, double value, const char* detail) {
    net_.trace().instant(unites::TraceCategory::kNet, name, net_.scheduler().now(), 0, 0, value,
                         detail);
  }

  Network& net_;
  std::vector<NodeId> hosts_;
  NodeId mobile_ = 0;
  std::vector<LinkId> attachments_;
  std::size_t active_ = 0;
  bool in_transition_ = false;
  NodeId group_ = 0;
  bool has_group_ = false;
  HandoverObserver on_handover_begin_;
  HandoverObserver on_handover_;
  MembershipObserver on_membership_;
  std::deque<Scheduled> scheduled_;  ///< every scheduled step, fired or not
  Stats stats_;
};

}  // namespace adaptive::net
