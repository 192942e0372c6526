// Unidirectional link with an output-port queue.
//
// Models the three network properties the paper's Section 2.1 enumerates:
// channel speed (serialization delay), bit-error rate (payload corruption),
// and congestion (finite FIFO queue with tail drop). Link parameters are
// taken from the paper's survey of 1992-era networks: 10 Mbps Ethernet,
// 100 Mbps FDDI, 155/622 Mbps ATM, copper BER ~1e-4, fiber BER ~1e-9,
// MTUs of 1500 / 4500 / 9188 bytes.
#pragma once

#include "net/packet.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "unites/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

namespace adaptive::net {

using LinkId = std::uint32_t;

struct LinkConfig {
  sim::Rate bandwidth = sim::Rate::mbps(10);
  sim::SimTime propagation_delay = sim::SimTime::microseconds(5);
  double bit_error_rate = 0.0;
  std::size_t mtu_bytes = 1500;
  std::size_t queue_capacity_packets = 64;

  /// Gilbert-Elliott burst errors: the link alternates between a good
  /// state (the base bit_error_rate) and a bad state (burst_error_rate),
  /// with per-packet transition probabilities. Real media corrupt in
  /// bursts, which is what makes single-parity FEC groups fail and what
  /// interleaving/group sizing must fight.
  double p_good_to_bad = 0.0;   ///< 0 disables the burst process
  double p_bad_to_good = 0.3;
  double burst_error_rate = 0.0;

  /// Adversarial wire mutations (chaos engine): per-packet probabilities,
  /// applied at delivery time after the bit-error process. All default to
  /// 0 (off); the FaultInjector arms them for kWireMutate episodes.
  double corrupt_probability = 0.0;   ///< contiguous burst bit-flips
  double duplicate_probability = 0.0; ///< deliver an extra copy
  double reorder_probability = 0.0;   ///< hold the packet for extra delay
  double truncate_probability = 0.0;  ///< drop trailing payload bytes
};

struct LinkStats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t mtu_drops = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t down_drops = 0;
  std::uint64_t bad_state_packets = 0;  ///< packets sent during error bursts
  std::uint64_t corrupted = 0;   ///< adversarial burst bit-flips applied
  std::uint64_t duplicated = 0;  ///< adversarial duplicate deliveries
  std::uint64_t reordered = 0;   ///< adversarial reorder holds
  std::uint64_t truncated = 0;   ///< adversarial payload truncations
};

class Link {
public:
  /// `deliver` is invoked at the receiving node when a packet finishes
  /// propagation.
  using DeliverFn = std::function<void(Packet&&)>;

  /// `trace` is the ring of the network that builds the link.
  Link(LinkId id, NodeId from, NodeId to, const LinkConfig& cfg,
       sim::EventScheduler& sched, sim::Rng rng, unites::TraceRecorder& trace);

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] NodeId from() const { return from_; }
  [[nodiscard]] NodeId to() const { return to_; }
  [[nodiscard]] const LinkConfig& config() const { return cfg_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }

  /// Replace the link parameters in place (fault injection: latency
  /// spikes, bandwidth drops, burst-loss episodes). In-flight packets
  /// keep the serialization/propagation times computed at transmit time;
  /// later packets see the new parameters.
  void set_config(const LinkConfig& cfg) { cfg_ = cfg; }

  /// Worst bit-error rate this link can exhibit: the burst-state BER when
  /// a Gilbert-Elliott process is armed, the base BER otherwise. Path
  /// health queries use this — a bursty link is unhealthy even while it
  /// happens to sit in the good state.
  [[nodiscard]] double worst_case_ber() const {
    return cfg_.p_good_to_bad > 0.0 ? std::max(cfg_.bit_error_rate, cfg_.burst_error_rate)
                                    : cfg_.bit_error_rate;
  }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Hook observed on every congestion/MTU/error drop (monitor wiring).
  using DropFn = std::function<void(const Packet&, const char* reason)>;
  void set_on_drop(DropFn fn) { on_drop_ = std::move(fn); }

  /// Enqueue a packet for transmission. Drops (with stats) when the queue
  /// is full, the packet exceeds the MTU, or the link is down.
  void transmit(Packet&& p);

  /// Current queue occupancy in packets — congestion signal for monitors.
  [[nodiscard]] std::size_t queue_depth() const { return queued_ + (busy_ ? 1 : 0); }

  /// Fraction of the queue in use, in [0, 1].
  [[nodiscard]] double queue_utilization() const {
    return static_cast<double>(queue_depth()) /
           static_cast<double>(cfg_.queue_capacity_packets);
  }

  /// Whether the link carries traffic. Network decides it per pair.
  [[nodiscard]] bool is_up() const { return up_; }

  /// One-way latency for a packet of `bytes` through an idle link.
  [[nodiscard]] sim::SimTime idle_latency(std::size_t bytes) const {
    return cfg_.bandwidth.transmission_time(bytes) + cfg_.propagation_delay;
  }

private:
  friend class Network;  // the one owner of link-pair state

  /// Taking a link down drops queued and future packets until it comes
  /// back up, and aborts the serialization in flight: that packet is
  /// dropped as link-down when it would have arrived.
  void set_up(bool up);
  void start_transmission();
  void apply_bit_errors(Packet& p);
  /// Final delivery step: applies any armed wire mutations (truncate,
  /// corrupt, duplicate, reorder) and hands the packet(s) to deliver_.
  void deliver_mutated(Packet&& p);
  void drop(const Packet& p, const char* reason);
  /// A kNet trace event stamped with now and this link's sending node;
  /// a non-zero `duration` makes it a span.
  void trace(const char* name, double value, const char* detail = nullptr,
             sim::SimTime duration = sim::SimTime::zero()) {
    trace_.span(unites::TraceCategory::kNet, name, sched_.now(), duration, from_, 0, value,
                detail);
  }

  LinkId id_;
  NodeId from_;
  NodeId to_;
  LinkConfig cfg_;
  sim::EventScheduler& sched_;
  sim::Rng rng_;
  unites::TraceRecorder& trace_;
  DeliverFn deliver_;
  DropFn on_drop_;
  /// Per-priority FIFOs, highest priority served first ("priorities for
  /// message delivery", Section 4.1.1). A full port prefers dropping the
  /// lowest-priority queued packet over an arriving higher-priority one.
  std::map<std::uint8_t, std::deque<Packet>, std::greater<>> queues_;
  std::size_t queued_ = 0;
  bool busy_ = false;
  bool up_ = true;
  /// Counts up->down transitions; a serialization that sees it change
  /// was cut off by one.
  std::uint32_t down_transitions_ = 0;
  bool burst_state_bad_ = false;
  LinkStats stats_;
};

}  // namespace adaptive::net
