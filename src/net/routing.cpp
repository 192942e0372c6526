#include "net/routing.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>

namespace adaptive::net {

double link_cost(const Link& l) {
  const auto& cfg = l.config();
  return static_cast<double>(cfg.propagation_delay.ns()) +
         static_cast<double>(cfg.bandwidth.transmission_time(1000).ns());
}

void RouteTable::compute(const Adjacency& adj, const std::vector<bool>& is_host,
                         const MulticastGroups& groups) {
  n_ = adj.size();
  pred_.assign(n_ * n_, nullptr);
  first_hop_.assign(n_ * n_, nullptr);
  std::vector<double> dist;
  std::vector<char> done;
  std::vector<std::pair<double, NodeId>> heap;
  for (NodeId src = 0; src < n_; ++src) {
    Link** pred = &pred_[src * n_];
    Link** first = &first_hop_[src * n_];
    dist.assign(n_, std::numeric_limits<double>::infinity());
    done.assign(n_, 0);
    dist[src] = 0.0;
    heap.assign(1, {0.0, src});
    while (!heap.empty()) {
      std::ranges::pop_heap(heap, std::greater<>{});
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (done[u] != 0) continue;
      done[u] = 1;
      for (Link* l : adj[u]) {
        if (!l->is_up()) continue;
        const NodeId v = l->to();
        const double nd = d + link_cost(*l);
        if (nd < dist[v]) {
          dist[v] = nd;
          pred[v] = l;
          first[v] = u == src ? l : first[u];  // u is settled: its first hop is final
          heap.emplace_back(nd, v);
          std::ranges::push_heap(heap, std::greater<>{});
        }
      }
    }
  }

  // Each (group, source host) tree is the union of the member paths,
  // climbed from each member until it meets the source or a node already
  // in the tree. Out-lists are grouped by the node that replicates onto
  // them, in link-id order: fan-out order is a pure function of the
  // topology. Only the source and switches forward; a host the tree
  // crosses keeps the packet.
  mcast_.clear();
  mcast_links_.clear();
  std::vector<std::uint32_t> in_tree(n_, 0);
  std::uint32_t tree = 0;
  std::vector<Link*> links;
  for (const NodeId group : groups.groups()) {
    const auto& members = groups.members(group);
    for (NodeId src = 0; src < n_; ++src) {
      if (!is_host[src]) continue;
      Link* const* pred = &pred_[src * n_];
      ++tree;
      links.clear();
      for (const NodeId m : members) {
        if (m == src || m >= n_) continue;
        for (NodeId cur = m; cur != src && in_tree[cur] != tree;) {
          Link* l = pred[cur];
          if (l == nullptr) break;  // unreachable member
          in_tree[cur] = tree;
          links.push_back(l);
          cur = l->from();
        }
      }
      std::ranges::sort(links, {}, [](const Link* l) { return std::pair(l->from(), l->id()); });
      for (std::size_t i = 0; i < links.size();) {
        const NodeId at = links[i]->from();
        const auto begin = static_cast<std::uint32_t>(mcast_links_.size());
        for (; i < links.size() && links[i]->from() == at; ++i) mcast_links_.push_back(links[i]);
        const auto end = static_cast<std::uint32_t>(mcast_links_.size());
        if (at == src || !is_host[at]) {
          mcast_.push_back({group, src, at, begin, end});
        } else {
          mcast_links_.resize(begin);
        }
      }
    }
  }
}

std::span<Link* const> RouteTable::multicast_outs(NodeId group, NodeId src, NodeId at) const {
  const auto key = std::tuple(group, src, at);
  const auto it = std::ranges::lower_bound(
      mcast_, key, {}, [](const McastEntry& e) { return std::tuple(e.group, e.src, e.at); });
  if (it == mcast_.end() || std::tuple(it->group, it->src, it->at) != key) return {};
  return {mcast_links_.data() + it->begin, it->end - it->begin};
}

}  // namespace adaptive::net
