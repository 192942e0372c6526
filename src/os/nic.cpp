#include "os/nic.hpp"

namespace adaptive::os {

Nic::Nic(net::Network& net, net::NodeId node, CpuModel& cpu, const NicConfig& cfg)
    : net_(net),
      node_(node),
      cpu_(cpu),
      cfg_(cfg),
      tx_flush_timer_(net.scheduler(), [this] { flush_tx(); }),
      rx_flush_timer_(net.scheduler(), [this] { flush_rx(); }) {
  net_.set_host_rx(node_, [this](net::Packet&& p) { on_wire_rx(std::move(p)); });
}

void Nic::send(net::Packet&& p) {
  ++tx_;
  p.src.node = node_;
  if (cfg_.interrupt_coalescing <= 1) {
    cpu_.run_interrupt([this, p = std::move(p)]() mutable { net_.inject(std::move(p)); });
    return;
  }
  tx_batch_.push_back(std::move(p));
  if (tx_batch_.size() >= cfg_.interrupt_coalescing) {
    tx_flush_timer_.cancel();
    flush_tx();
  } else if (!tx_flush_timer_.pending()) {
    tx_flush_timer_.arm_after(cfg_.coalesce_timeout);
  }
}

void Nic::flush_tx() {
  if (tx_batch_.empty()) return;
  // One interrupt covers the whole batch (descriptor-ring style).
  cpu_.run_interrupt([this, batch = std::move(tx_batch_)]() mutable {
    for (auto& p : batch) net_.inject(std::move(p));
  });
  tx_batch_.clear();
  tx_batch_.reserve(cfg_.interrupt_coalescing);
}

void Nic::on_wire_rx(net::Packet&& p) {
  ++rx_count_;
  if (cfg_.interrupt_coalescing <= 1) {
    cpu_.run_interrupt([this, p = std::move(p)]() mutable {
      if (rx_) rx_(std::move(p));
    });
    return;
  }
  rx_batch_.push_back(std::move(p));
  if (rx_batch_.size() >= cfg_.interrupt_coalescing) {
    rx_flush_timer_.cancel();
    flush_rx();
  } else if (!rx_flush_timer_.pending()) {
    rx_flush_timer_.arm_after(cfg_.coalesce_timeout);
  }
}

void Nic::flush_rx() {
  if (rx_batch_.empty()) return;
  cpu_.run_interrupt([this, batch = std::move(rx_batch_)]() mutable {
    for (auto& p : batch) {
      if (rx_) rx_(std::move(p));
    }
  });
  rx_batch_.clear();
  rx_batch_.reserve(cfg_.interrupt_coalescing);
}

}  // namespace adaptive::os
