#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace adaptive::net {

Network::Network(sim::EventScheduler& sched, std::uint64_t seed) : sched_(sched), rng_(seed) {
  broadcast_group_ = groups_.create_group();
}

NodeId Network::add_host(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<HostNode>(id, std::move(name)));
  adjacency_[id];
  groups_.join(broadcast_group_, id);  // every host hears broadcasts
  return id;
}

NodeId Network::add_switch(std::string name, const SwitchConfig& cfg) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<SwitchNode>(id, std::move(name), cfg, sched_));
  adjacency_[id];
  return id;
}

std::pair<LinkId, LinkId> Network::connect(NodeId a, NodeId b, const LinkConfig& cfg) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  auto make = [&](NodeId from, NodeId to) -> LinkId {
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(std::make_unique<Link>(id, from, to, cfg, sched_, rng_.fork()));
    Link* l = links_.back().get();
    l->set_deliver([this, to](Packet&& p) {
      Node& n = *nodes_[to];
      if (dynamic_cast<HostNode*>(&n) != nullptr) {
        monitor_.record(NetEventKind::kDeliver);
      }
      n.receive(std::move(p));
    });
    l->set_on_drop([this](const Packet&, const char*) { monitor_.record(NetEventKind::kDrop); });
    adjacency_[from].push_back(l);
    return id;
  };
  const LinkId fwd = make(a, b);
  const LinkId rev = make(b, a);
  recompute_routes();
  return {fwd, rev};
}

void Network::set_link_pair_up(LinkId forward_id, bool up) {
  if (forward_id + 1 >= links_.size()) {
    throw std::invalid_argument("Network::set_link_pair_up: unknown link");
  }
  // connect() always creates the pair adjacently: forward at even index.
  Link& f = *links_[forward_id];
  Link& r = *links_[forward_id ^ 1u];
  f.set_up(up);
  r.set_up(up);
  recompute_routes();
}

void Network::join_group(NodeId group, NodeId host) {
  if (groups_.join(group, host)) recompute_routes();
}

void Network::leave_group(NodeId group, NodeId host) {
  if (groups_.leave(group, host)) recompute_routes();
}

void Network::recompute_routes() {
  install_unicast_routes();
  install_multicast_routes();
  monitor_.record(NetEventKind::kRouteChange);
}

void Network::install_unicast_routes() {
  spf_.clear();
  for (const auto& node : nodes_) {
    spf_[node->id()] = shortest_paths(adjacency_, node->id());
  }
  for (const auto& node : nodes_) {
    auto* sw = dynamic_cast<SwitchNode*>(node.get());
    if (sw == nullptr) continue;
    sw->clear_routes();
    const SpfResult& spf = spf_[sw->id()];
    for (const auto& dst : nodes_) {
      if (dst->id() == sw->id()) continue;
      auto links = extract_path_links(spf, sw->id(), dst->id());
      if (!links.empty()) sw->set_unicast_route(dst->id(), links.front());
    }
  }
}

void Network::install_multicast_routes() {
  host_mcast_.clear();
  for (NodeId group : groups_.groups()) {
    const auto& members = groups_.members(group);
    // Any host may be a source; build a tree per (group, source-host).
    for (const auto& src_node : nodes_) {
      if (dynamic_cast<HostNode*>(src_node.get()) == nullptr) continue;
      const NodeId src = src_node->id();
      std::vector<NodeId> others;
      for (NodeId m : members) {
        if (m != src) others.push_back(m);
      }
      if (others.empty()) continue;
      auto tree = multicast_tree(adjacency_, src, others);
      for (auto& [node_id, outs] : tree) {
        if (node_id == src) {
          host_mcast_[{group, src}] = outs;
        } else if (auto* sw = dynamic_cast<SwitchNode*>(nodes_[node_id].get())) {
          sw->set_multicast_routes(group, src, outs);
        }
      }
    }
  }
}

void Network::inject(Packet&& p) {
  p.id = next_packet_id_++;
  p.injected_at_ns = sched_.now().ns();
  const NodeId src = p.src.node;
  if (src >= nodes_.size()) throw std::invalid_argument("Network::inject: unknown source");
  if (is_multicast(p.dst.node)) {
    auto it = host_mcast_.find({p.dst.node, src});
    if (it == host_mcast_.end() || it->second.empty()) {
      monitor_.record(NetEventKind::kDrop);
      return;
    }
    const auto& outs = it->second;
    for (std::size_t i = 0; i + 1 < outs.size(); ++i) outs[i]->transmit(Packet(p));
    outs.back()->transmit(std::move(p));
    return;
  }
  auto spf_it = spf_.find(src);
  if (spf_it == spf_.end()) throw std::logic_error("Network::inject: routes not computed");
  auto links = extract_path_links(spf_it->second, src, p.dst.node);
  if (links.empty()) {
    monitor_.record(NetEventKind::kDrop);
    return;
  }
  links.front()->transmit(std::move(p));
}

void Network::set_host_rx(NodeId host, HostNode::RxFn fn) {
  auto* h = dynamic_cast<HostNode*>(nodes_.at(host).get());
  if (h == nullptr) throw std::invalid_argument("Network::set_host_rx: node is not a host");
  h->set_rx(std::move(fn));
}

Link& Network::link(LinkId id) { return *links_.at(id); }
const Link& Network::link(LinkId id) const { return *links_.at(id); }

Node& Network::node(NodeId id) { return *nodes_.at(id); }

std::vector<NodeId> Network::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (dynamic_cast<const HostNode*>(n.get()) != nullptr) out.push_back(n->id());
  }
  return out;
}

std::vector<Link*> Network::path_links(NodeId src, NodeId dst) const {
  auto it = spf_.find(src);
  if (it == spf_.end()) return {};
  return extract_path_links(it->second, src, dst);
}

std::vector<NodeId> Network::path(NodeId src, NodeId dst) const {
  auto it = spf_.find(src);
  if (it == spf_.end()) return {};
  return extract_path(it->second, src, dst);
}

std::size_t Network::path_mtu(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  if (links.empty()) return 0;
  std::size_t mtu = SIZE_MAX;
  for (const Link* l : links) mtu = std::min(mtu, l->config().mtu_bytes);
  return mtu;
}

sim::SimTime Network::path_idle_latency(NodeId src, NodeId dst, std::size_t bytes) const {
  const auto links = path_links(src, dst);
  sim::SimTime t = sim::SimTime::zero();
  for (const Link* l : links) t += l->idle_latency(bytes);
  return t;
}

sim::Rate Network::path_bottleneck(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  if (links.empty()) return sim::Rate::bps(0);
  sim::Rate r = sim::Rate::gbps(1e9);
  for (const Link* l : links) r = std::min(r, l->config().bandwidth);
  return r;
}

double Network::path_congestion(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  double c = 0.0;
  for (const Link* l : links) c = std::max(c, l->queue_utilization());
  return c;
}

double Network::path_bit_error_rate(NodeId src, NodeId dst) const {
  const auto links = path_links(src, dst);
  double b = 0.0;
  for (const Link* l : links) b = std::max(b, l->worst_case_ber());
  return b;
}

}  // namespace adaptive::net
