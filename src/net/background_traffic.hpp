// Cross-traffic generator used to create controlled congestion at
// intermediate switching nodes (queue overflows — the paper's Section 3
// trigger for switching retransmission mechanisms).
//
// An on/off Markov-modulated source: exponentially distributed burst and
// idle periods; during a burst, fixed-size datagrams at a constant rate.
#pragma once

#include "net/network.hpp"
#include "sim/random.hpp"

#include <cstdint>

namespace adaptive::net {

struct BackgroundTrafficConfig {
  Address src;
  Address dst;
  sim::Rate burst_rate = sim::Rate::mbps(1);
  std::size_t packet_bytes = 1000;
  sim::SimTime mean_burst = sim::SimTime::milliseconds(100);
  sim::SimTime mean_idle = sim::SimTime::milliseconds(100);
  /// mean_idle == zero() and always_on => constant bit-rate cross traffic.
  bool always_on = false;
};

class BackgroundTraffic {
public:
  BackgroundTraffic(Network& net, const BackgroundTrafficConfig& cfg, std::uint64_t seed);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }

private:
  void enter_burst();
  void send_one();

  Network& net_;
  BackgroundTrafficConfig cfg_;
  sim::Rng rng_;
  bool running_ = false;
  sim::SimTime burst_end_ = sim::SimTime::zero();
  sim::Timer idle_timer_;  ///< ends an idle period
  sim::Timer send_timer_;  ///< paces sends within a burst
  std::uint64_t sent_ = 0;
};

}  // namespace adaptive::net
