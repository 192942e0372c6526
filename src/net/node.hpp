// Simulated network nodes: hosts (transport endpoints) and switches
// (intermediate switching nodes, the congestion points of Section 2.1).
#pragma once

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/time.hpp"

#include <functional>
#include <string>

namespace adaptive::net {

class Node {
public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// A packet has finished traversing a link into this node.
  virtual void receive(Packet&& p) = 0;

private:
  NodeId id_;
  std::string name_;
};

/// End system: hands arriving packets to the attached network interface.
class HostNode final : public Node {
public:
  using RxFn = std::function<void(Packet&&)>;

  using Node::Node;

  void set_rx(RxFn fn) { rx_ = std::move(fn); }
  void receive(Packet&& p) override {
    if (rx_) rx_(std::move(p));
  }

private:
  RxFn rx_;
};

struct SwitchConfig {
  /// Per-packet forwarding latency inside the switch.
  sim::SimTime processing_delay = sim::SimTime::microseconds(2);
};

/// Intermediate switching node: forwards from the Network's route table,
/// the first-hop entry for unicast and the (group, source) out-list for
/// multicast.
class SwitchNode final : public Node {
public:
  SwitchNode(NodeId id, std::string name, const SwitchConfig& cfg, sim::EventScheduler& sched,
             const RouteTable& routes)
      : Node(id, std::move(name)), cfg_(cfg), sched_(sched), routes_(routes) {}

  void receive(Packet&& p) override;

  [[nodiscard]] std::uint64_t forwarded_packets() const { return forwarded_; }
  [[nodiscard]] std::uint64_t no_route_drops() const { return no_route_drops_; }

private:
  void forward(Packet&& p);

  SwitchConfig cfg_;
  sim::EventScheduler& sched_;
  const RouteTable& routes_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t no_route_drops_ = 0;
};

}  // namespace adaptive::net
