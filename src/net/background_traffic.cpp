#include "net/background_traffic.hpp"

namespace adaptive::net {

BackgroundTraffic::BackgroundTraffic(Network& net, const BackgroundTrafficConfig& cfg,
                                     std::uint64_t seed)
    : net_(net),
      cfg_(cfg),
      rng_(seed),
      idle_timer_(net.scheduler(), [this] { enter_burst(); }),
      send_timer_(net.scheduler(), [this] { send_one(); }) {}

void BackgroundTraffic::start() {
  if (running_) return;
  running_ = true;
  enter_burst();
}

void BackgroundTraffic::stop() {
  running_ = false;
  idle_timer_.cancel();
  send_timer_.cancel();
}

void BackgroundTraffic::enter_burst() {
  if (!running_) return;
  auto& sched = net_.scheduler();
  if (cfg_.always_on) {
    burst_end_ = sim::SimTime::infinity();
  } else {
    burst_end_ = sched.now() + sim::SimTime::seconds(rng_.exponential(cfg_.mean_burst.sec()));
  }
  send_one();
}

void BackgroundTraffic::send_one() {
  if (!running_) return;
  auto& sched = net_.scheduler();
  if (sched.now() >= burst_end_) {
    const auto idle = sim::SimTime::seconds(rng_.exponential(cfg_.mean_idle.sec()));
    idle_timer_.arm_after(idle);
    return;
  }
  Packet p;
  p.src = cfg_.src;
  p.dst = cfg_.dst;
  p.payload = tko::Message::filled(cfg_.packet_bytes, 0xBB);
  net_.inject(std::move(p));
  ++sent_;
  const auto gap = cfg_.burst_rate.transmission_time(cfg_.packet_bytes + Packet::kNetworkHeaderBytes);
  send_timer_.arm_after(gap);
}

}  // namespace adaptive::net
