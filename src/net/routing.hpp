// Shortest-path route computation over the link graph.
//
// One computation runs Dijkstra once from every node over dense arrays
// indexed by node id. It keeps, for every (node, destination), the
// predecessor link on the shortest path and the first link out of the
// node; the per-(group, source) multicast trees are read off the same
// predecessor arrays. Forwarding and path queries are lookups into the
// result, separated from the Network container so route/tree logic is
// unit-testable without simulated time.
#pragma once

#include "net/link.hpp"
#include "net/multicast.hpp"
#include "net/packet.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace adaptive::net {

/// Directed adjacency: for each node id, its outgoing links in connect()
/// order (the order ties are broken in).
using Adjacency = std::vector<std::vector<Link*>>;

/// Cost of crossing a link: propagation delay plus serialization of a
/// nominal 1000-byte packet, so both latency and bandwidth shape routes.
[[nodiscard]] double link_cost(const Link& l);

class RouteTable {
public:
  /// Route nodes 0..adj.size()-1 over the links that are up now, and
  /// build every (group, source-host) tree of `groups`. Ties between
  /// equal-cost paths go to the path whose predecessor is settled first:
  /// the heap pops (distance, node id) in order, links are relaxed in
  /// adjacency order, and a link replaces a predecessor only when it is
  /// strictly shorter.
  void compute(const Adjacency& adj, const std::vector<bool>& is_host,
               const MulticastGroups& groups);

  /// Nodes the last computation covered; nodes added since have no routes.
  [[nodiscard]] std::size_t node_count() const { return n_; }

  /// First link of the at -> dst path; nullptr when dst is unreachable,
  /// dst == at, or either node is not covered.
  [[nodiscard]] Link* first_hop(NodeId at, NodeId dst) const {
    return at < n_ && dst < n_ ? first_hop_[at * n_ + dst] : nullptr;
  }

  /// Links a packet from `src` to `group` is replicated onto at node `at`
  /// (the source host itself or a switch of the tree); empty when none.
  [[nodiscard]] std::span<Link* const> multicast_outs(NodeId group, NodeId src, NodeId at) const;

  /// Call `on_link` for every link of the src -> dst path, from dst back
  /// to src. Returns whether dst is reachable (src == dst counts, with no
  /// links).
  template <typename Fn>
  bool walk(NodeId src, NodeId dst, Fn&& on_link) const {
    if (src >= n_ || dst >= n_) return false;
    const Link* const* pred = &pred_[src * n_];
    if (src != dst && pred[dst] == nullptr) return false;
    for (NodeId cur = dst; cur != src;) {
      const Link& l = *pred[cur];
      on_link(l);
      cur = l.from();
    }
    return true;
  }

private:
  struct McastEntry {
    NodeId group;
    NodeId src;
    NodeId at;
    std::uint32_t begin;  ///< [begin, end) of mcast_links_
    std::uint32_t end;
  };

  std::size_t n_ = 0;
  std::vector<Link*> pred_;       ///< [src * n_ + v]: last link of the src -> v path
  std::vector<Link*> first_hop_;  ///< [src * n_ + v]: first link of the src -> v path
  std::vector<McastEntry> mcast_;  ///< sorted by (group, src, at)
  std::vector<Link*> mcast_links_;
};

}  // namespace adaptive::net
