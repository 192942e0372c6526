// Network monitor: the observation surface behind the MANTTS Network
// Monitor Interface (MANTTS-NMI, Section 4.1) and the UNITES traffic
// monitors (Section 4.3).
//
// It counts drops, host deliveries and route computations network-wide
// and answers the recent loss rate. In the real system this information
// would come from switch management agents; in the simulator the monitor
// reads switch state directly — the data is the same either way. Injected
// faults are not counted here: the fault injector's stats and its
// net.fault.* trace instants are their ground truth.
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>

namespace adaptive::net {

enum class NetEventKind { kDrop, kDeliver, kRouteChange };

class NetworkMonitor {
public:
  void record(NetEventKind kind);

  [[nodiscard]] std::uint64_t total_drops() const { return drops_; }
  [[nodiscard]] std::uint64_t total_deliveries() const { return deliveries_; }
  /// Route computations (Network::recompute_routes), nothing else.
  [[nodiscard]] std::uint64_t route_changes() const { return route_changes_; }

  /// Drop fraction over the most recent kLossWindow drop/deliver outcomes.
  [[nodiscard]] double recent_loss_rate() const;

  static constexpr std::size_t kLossWindow = 256;

private:
  std::uint64_t drops_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t route_changes_ = 0;
  /// Ring of the last kLossWindow outcomes, set bit = drop. Outcome n
  /// (counting drops and deliveries from 0) lives in slot n % kLossWindow.
  std::bitset<kLossWindow> window_;
};

}  // namespace adaptive::net
