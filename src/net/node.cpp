#include "net/node.hpp"

namespace adaptive::net {

void SwitchNode::receive(Packet&& p) {
  ++p.hop_count;
  if (cfg_.processing_delay > sim::SimTime::zero()) {
    sched_.post_after(cfg_.processing_delay,
                      [this, p = std::move(p)]() mutable { forward(std::move(p)); });
  } else {
    forward(std::move(p));
  }
}

void SwitchNode::forward(Packet&& p) {
  if (is_multicast(p.dst.node)) {
    const auto outs = routes_.multicast_outs(p.dst.node, p.src.node, id());
    if (outs.empty()) {
      ++no_route_drops_;
      return;
    }
    ++forwarded_;
    for (std::size_t i = 0; i + 1 < outs.size(); ++i) {
      outs[i]->transmit(Packet(p));  // replicate
    }
    outs.back()->transmit(std::move(p));
    return;
  }
  Link* out = routes_.first_hop(id(), p.dst.node);
  if (out == nullptr) {
    ++no_route_drops_;
    return;
  }
  ++forwarded_;
  out->transmit(std::move(p));
}

}  // namespace adaptive::net
