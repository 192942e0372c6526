// The Network: topology container, route manager, and injection point.
//
// Owns every node and link, keeps one RouteTable (unicast first hops and
// per-source multicast trees) that hosts and switches forward from,
// recomputes it when topology or membership changes — once per batch of
// changes inside a RouteBatch — and exposes the path queries (MTU, idle
// latency, hop list) that MANTTS Stage II consults when turning a TSC
// into an SCS. It also owns its World's UNITES trace ring, which every
// emitter built on this network records into.
//
// It is the one owner of link-pair state. A pair carries traffic only
// while it is set up (set_link_pair_up: the topology builder, the
// mobility controller's attachment choice, scripts) and no fault outage
// holds it down (hold_pair_down / release_pair: the fault injector's
// windows). Each writer changes only its own reason, so neither undoes
// the other.
#pragma once

#include "net/link.hpp"
#include "net/monitor.hpp"
#include "net/multicast.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/random.hpp"
#include "unites/trace.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace adaptive::net {

/// What MANTTS Stage II reads off one src -> dst path, gathered in one
/// walk: path() and the path_* values of the same pair.
struct PathSample {
  std::vector<NodeId> nodes;  ///< path(src, dst); empty if unreachable
  std::size_t mtu = 0;
  sim::SimTime idle_latency = sim::SimTime::zero();
  sim::Rate bottleneck = sim::Rate::bps(0);
  double bit_error_rate = 0.0;
  double congestion = 0.0;
};

class Network {
public:
  Network(sim::EventScheduler& sched, std::uint64_t seed = 1);
  Network(const Network&) = delete;  // switches and links point back into it
  Network& operator=(const Network&) = delete;

  /// Defers route computation while alive: connect, link up/down and
  /// group join/leave inside a batch mark routes stale, and the outermost
  /// batch recomputes once when it closes if anything changed. Batches
  /// nest. Outside any batch those calls recompute at once.
  class RouteBatch {
  public:
    explicit RouteBatch(Network& net) : net_(net) { ++net_.batch_depth_; }
    ~RouteBatch() {
      if (--net_.batch_depth_ == 0 && net_.routes_stale_) net_.recompute_routes();
    }
    RouteBatch(const RouteBatch&) = delete;
    RouteBatch& operator=(const RouteBatch&) = delete;

  private:
    Network& net_;
  };

  // --- topology construction -------------------------------------------
  NodeId add_host(std::string name);
  NodeId add_switch(std::string name, const SwitchConfig& cfg = {});

  /// Create a bidirectional link (two unidirectional Links with the same
  /// config). Returns (a->b, b->a) link ids.
  std::pair<LinkId, LinkId> connect(NodeId a, NodeId b, const LinkConfig& cfg);

  /// Recompute every route now. connect/join/leave call it, and so does a
  /// pair whose carried state flips (at the close of a RouteBatch when
  /// inside one); nodes added by add_host/add_switch get routes at the
  /// next computation.
  void recompute_routes();

  // --- dynamic behaviour -------------------------------------------------
  /// Set a bidirectional link pair up or down. Both directions carry
  /// traffic while the pair is set up and no outage holds it down.
  void set_link_pair_up(LinkId forward_id, bool up);

  /// Hold the pair down for one fault outage window, whatever it is set
  /// to; release_pair ends one hold. Releasing a pair that no hold covers
  /// throws std::logic_error.
  void hold_pair_down(LinkId forward_id);
  void release_pair(LinkId forward_id);

  // --- multicast / broadcast ---------------------------------------------
  NodeId create_group() { return groups_.create_group(); }

  /// The all-hosts group (Section 2.1's "broadcast (distributed name
  /// resolution)" service): every host is a member automatically; a
  /// packet sent to this address reaches every other host.
  [[nodiscard]] NodeId broadcast_address() const { return broadcast_group_; }
  void join_group(NodeId group, NodeId host);
  void leave_group(NodeId group, NodeId host);
  [[nodiscard]] const std::vector<NodeId>& group_members(NodeId group) const {
    return groups_.members(group);
  }

  // --- traffic --------------------------------------------------------
  /// Inject a packet at its source host. For multicast destinations the
  /// packet is replicated along the source-rooted tree.
  void inject(Packet&& p);

  /// Attach the receive path of a host (its NIC).
  void set_host_rx(NodeId host, HostNode::RxFn fn);

  // --- queries ---------------------------------------------------------
  [[nodiscard]] Link& link(LinkId id);
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Node sequence currently routing src -> dst (empty if unreachable).
  [[nodiscard]] std::vector<NodeId> path(NodeId src, NodeId dst) const;

  /// Smallest MTU along the current src -> dst path (0 if unreachable).
  [[nodiscard]] std::size_t path_mtu(NodeId src, NodeId dst) const;

  /// Idle one-way latency of a `bytes`-sized packet along the path.
  [[nodiscard]] sim::SimTime path_idle_latency(NodeId src, NodeId dst, std::size_t bytes) const;

  /// path() and every path_* value of src -> dst from one walk.
  [[nodiscard]] PathSample sample_path(NodeId src, NodeId dst, std::size_t bytes) const;

  /// The forwarding state of the last route computation.
  [[nodiscard]] const RouteTable& routes() const { return routes_; }

  /// Bottleneck (minimum) bandwidth along the path.
  [[nodiscard]] sim::Rate path_bottleneck(NodeId src, NodeId dst) const;

  /// Highest output-queue utilization along the current path, in [0,1] —
  /// the congestion signal the NMI samples.
  [[nodiscard]] double path_congestion(NodeId src, NodeId dst) const;

  /// Worst bit-error rate along the path.
  [[nodiscard]] double path_bit_error_rate(NodeId src, NodeId dst) const;

  [[nodiscard]] NetworkMonitor& monitor() { return monitor_; }
  [[nodiscard]] const NetworkMonitor& monitor() const { return monitor_; }

  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }

  /// The trace ring of everything built on this network: its links, the
  /// hosts and their transports and MANTTS entities, the fault injector
  /// and the mobility controller. Disabled and unallocated until enable().
  [[nodiscard]] unites::TraceRecorder& trace() { return trace_; }

private:
  /// Why a link pair does or does not carry traffic.
  struct PairState {
    bool up = true;           ///< set_link_pair_up's last word
    std::uint32_t holds = 0;  ///< open fault outage windows
  };
  [[nodiscard]] PairState& pair_state(LinkId forward_id);
  /// Bring both links of the pair to `up && holds == 0`, rerouting only
  /// when that flips.
  void apply_pair(LinkId forward_id);
  /// Recompute now, or at the close of the open batch.
  void routes_changed();
  [[nodiscard]] PathSample fold_path(NodeId src, NodeId dst, std::size_t bytes,
                                     bool with_nodes) const;

  sim::EventScheduler& sched_;
  sim::Rng rng_;
  unites::TraceRecorder trace_;
  NetworkMonitor monitor_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> is_host_;  ///< by node id
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<PairState> pairs_;  ///< by forward link id / 2
  Adjacency adjacency_;
  MulticastGroups groups_;
  NodeId broadcast_group_ = 0;
  RouteTable routes_;
  int batch_depth_ = 0;
  bool routes_stale_ = false;
  std::uint64_t next_packet_id_ = 1;
};

}  // namespace adaptive::net
