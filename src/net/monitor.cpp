#include "net/monitor.hpp"

#include <algorithm>

namespace adaptive::net {

void NetworkMonitor::record(NetEventKind kind) {
  switch (kind) {
    case NetEventKind::kDrop:
      window_[(drops_ + deliveries_) % kLossWindow] = true;
      ++drops_;
      break;
    case NetEventKind::kDeliver:
      window_[(drops_ + deliveries_) % kLossWindow] = false;
      ++deliveries_;
      break;
    case NetEventKind::kRouteChange: ++route_changes_; break;
  }
}

double NetworkMonitor::recent_loss_rate() const {
  const auto outcomes = std::min<std::uint64_t>(drops_ + deliveries_, kLossWindow);
  return outcomes == 0 ? 0.0
                       : static_cast<double>(window_.count()) / static_cast<double>(outcomes);
}

}  // namespace adaptive::net
