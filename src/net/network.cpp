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
  is_host_.push_back(true);
  adjacency_.emplace_back();
  groups_.join(broadcast_group_, id);  // every host hears broadcasts
  return id;
}

NodeId Network::add_switch(std::string name, const SwitchConfig& cfg) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<SwitchNode>(id, std::move(name), cfg, sched_, routes_));
  is_host_.push_back(false);
  adjacency_.emplace_back();
  return id;
}

std::pair<LinkId, LinkId> Network::connect(NodeId a, NodeId b, const LinkConfig& cfg) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  auto make = [&](NodeId from, NodeId to) -> LinkId {
    const LinkId id = static_cast<LinkId>(links_.size());
    links_.push_back(std::make_unique<Link>(id, from, to, cfg, sched_, rng_.fork(), trace_));
    Link* l = links_.back().get();
    l->set_deliver([this, n = nodes_[to].get(), to_host = is_host_[to]](Packet&& p) {
      if (to_host) monitor_.record(NetEventKind::kDeliver);
      n->receive(std::move(p));
    });
    l->set_on_drop([this](const Packet&, const char*) { monitor_.record(NetEventKind::kDrop); });
    adjacency_[from].push_back(l);
    return id;
  };
  const LinkId fwd = make(a, b);
  const LinkId rev = make(b, a);
  pairs_.emplace_back();
  routes_changed();
  return {fwd, rev};
}

Network::PairState& Network::pair_state(LinkId forward_id) {
  if (forward_id / 2 >= pairs_.size()) {
    throw std::invalid_argument("Network: unknown link pair");
  }
  // connect() always creates the pair adjacently: forward at even index.
  return pairs_[forward_id / 2];
}

void Network::apply_pair(LinkId forward_id) {
  const PairState& s = pairs_[forward_id / 2];
  const bool carries = s.up && s.holds == 0;
  Link& f = *links_[forward_id];
  if (f.is_up() == carries) return;
  f.set_up(carries);
  links_[forward_id ^ 1u]->set_up(carries);
  routes_changed();
}

void Network::set_link_pair_up(LinkId forward_id, bool up) {
  pair_state(forward_id).up = up;
  apply_pair(forward_id);
}

void Network::hold_pair_down(LinkId forward_id) {
  ++pair_state(forward_id).holds;
  apply_pair(forward_id);
}

void Network::release_pair(LinkId forward_id) {
  PairState& s = pair_state(forward_id);
  if (s.holds == 0) throw std::logic_error("Network::release_pair: no hold to release");
  --s.holds;
  apply_pair(forward_id);
}

void Network::join_group(NodeId group, NodeId host) {
  if (groups_.join(group, host)) routes_changed();
}

void Network::leave_group(NodeId group, NodeId host) {
  if (groups_.leave(group, host)) routes_changed();
}

void Network::routes_changed() {
  if (batch_depth_ > 0) {
    routes_stale_ = true;
  } else {
    recompute_routes();
  }
}

void Network::recompute_routes() {
  routes_.compute(adjacency_, is_host_, groups_);
  routes_stale_ = false;
  monitor_.record(NetEventKind::kRouteChange);
}

void Network::inject(Packet&& p) {
  p.id = next_packet_id_++;
  p.injected_at_ns = sched_.now().ns();
  const NodeId src = p.src.node;
  if (src >= nodes_.size()) throw std::invalid_argument("Network::inject: unknown source");
  if (is_multicast(p.dst.node)) {
    const auto outs = routes_.multicast_outs(p.dst.node, src, src);
    if (outs.empty()) {
      monitor_.record(NetEventKind::kDrop);
      return;
    }
    for (std::size_t i = 0; i + 1 < outs.size(); ++i) outs[i]->transmit(Packet(p));
    outs.back()->transmit(std::move(p));
    return;
  }
  if (src >= routes_.node_count()) throw std::logic_error("Network::inject: routes not computed");
  Link* out = routes_.first_hop(src, p.dst.node);
  if (out == nullptr) {
    monitor_.record(NetEventKind::kDrop);
    return;
  }
  out->transmit(std::move(p));
}

void Network::set_host_rx(NodeId host, HostNode::RxFn fn) {
  auto* h = dynamic_cast<HostNode*>(nodes_.at(host).get());
  if (h == nullptr) throw std::invalid_argument("Network::set_host_rx: node is not a host");
  h->set_rx(std::move(fn));
}

Link& Network::link(LinkId id) { return *links_.at(id); }

PathSample Network::fold_path(NodeId src, NodeId dst, std::size_t bytes, bool with_nodes) const {
  PathSample s;
  std::size_t hops = 0;
  std::size_t mtu = SIZE_MAX;
  sim::Rate bottleneck = sim::Rate::gbps(1e9);
  const bool reachable = routes_.walk(src, dst, [&](const Link& l) {
    ++hops;
    if (with_nodes) s.nodes.push_back(l.to());
    mtu = std::min(mtu, l.config().mtu_bytes);
    s.idle_latency += l.idle_latency(bytes);
    bottleneck = std::min(bottleneck, l.config().bandwidth);
    s.bit_error_rate = std::max(s.bit_error_rate, l.worst_case_ber());
    s.congestion = std::max(s.congestion, l.queue_utilization());
  });
  if (reachable && with_nodes) {
    s.nodes.push_back(src);
    std::ranges::reverse(s.nodes);
  }
  if (hops > 0) {  // a path of no links (src == dst) reads like an unreachable one
    s.mtu = mtu;
    s.bottleneck = bottleneck;
  }
  return s;
}

PathSample Network::sample_path(NodeId src, NodeId dst, std::size_t bytes) const {
  return fold_path(src, dst, bytes, true);
}

std::vector<NodeId> Network::path(NodeId src, NodeId dst) const {
  return fold_path(src, dst, 0, true).nodes;
}

std::size_t Network::path_mtu(NodeId src, NodeId dst) const {
  return fold_path(src, dst, 0, false).mtu;
}

sim::SimTime Network::path_idle_latency(NodeId src, NodeId dst, std::size_t bytes) const {
  return fold_path(src, dst, bytes, false).idle_latency;
}

sim::Rate Network::path_bottleneck(NodeId src, NodeId dst) const {
  return fold_path(src, dst, 0, false).bottleneck;
}

double Network::path_congestion(NodeId src, NodeId dst) const {
  return fold_path(src, dst, 0, false).congestion;
}

double Network::path_bit_error_rate(NodeId src, NodeId dst) const {
  return fold_path(src, dst, 0, false).bit_error_rate;
}

}  // namespace adaptive::net
