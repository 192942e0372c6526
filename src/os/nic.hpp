// Network interface: the host's attachment to the simulated network.
//
// Charges the per-packet interrupt cost on both transmit and receive
// (Section 2.2(A): "host interfaces typically generate interrupts for every
// transmitted and received packet") before handing packets onward.
#pragma once

#include "net/network.hpp"
#include "os/cpu_model.hpp"

#include <functional>
#include <vector>

namespace adaptive::os {

/// Interface capabilities — the paper's §3(B) remedy category 3:
/// "migrate some or all of the protocol processing activities to
/// off-board processors to reduce CPU interrupts and operating system
/// context/process switching on the host computer."
struct NicConfig {
  /// Packets per interrupt (1 = classic per-packet interrupts). Buffered
  /// packets are delivered together after one interrupt charge.
  std::uint32_t interrupt_coalescing = 1;
  /// A partial batch is flushed after this long (bounds added latency).
  sim::SimTime coalesce_timeout = sim::SimTime::microseconds(500);
  /// Checksum computation/verification happens on the adapter at line
  /// rate: the transport charges no host CPU for error detection.
  bool checksum_offload = false;
};

class Nic {
public:
  using RxFn = std::function<void(net::Packet&&)>;

  Nic(net::Network& net, net::NodeId node, CpuModel& cpu, const NicConfig& cfg = {});

  /// Transmit: interrupt cost (possibly amortized over a batch), then
  /// injection into the network.
  void send(net::Packet&& p);

  /// Set the upward delivery path (the host's port demultiplexer).
  void set_rx(RxFn fn) { rx_ = std::move(fn); }

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] const NicConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t tx_packets() const { return tx_; }
  [[nodiscard]] std::uint64_t rx_packets() const { return rx_count_; }

  /// MTU toward `dst` on the current route (0 if unreachable).
  [[nodiscard]] std::size_t mtu_to(net::NodeId dst) const { return net_.path_mtu(node_, dst); }

private:
  void on_wire_rx(net::Packet&& p);
  void flush_tx();
  void flush_rx();

  net::Network& net_;
  net::NodeId node_;
  CpuModel& cpu_;
  NicConfig cfg_;
  RxFn rx_;
  std::uint64_t tx_ = 0;
  std::uint64_t rx_count_ = 0;
  std::vector<net::Packet> tx_batch_;
  std::vector<net::Packet> rx_batch_;
  sim::Timer tx_flush_timer_;  ///< flushes a partial batch after coalesce_timeout
  sim::Timer rx_flush_timer_;
};

}  // namespace adaptive::os
