#include "net/link.hpp"

#include "unites/profiler.hpp"

#include <cmath>

namespace adaptive::net {

Link::Link(LinkId id, NodeId from, NodeId to, const LinkConfig& cfg,
           sim::EventScheduler& sched, sim::Rng rng, unites::TraceRecorder& trace)
    : id_(id), from_(from), to_(to), cfg_(cfg), sched_(sched), rng_(rng), trace_(trace) {}

void Link::drop(const Packet& p, const char* reason) {
  trace("net.drop", static_cast<double>(p.size_bytes()), reason);
  if (on_drop_) on_drop_(p, reason);
}

void Link::transmit(Packet&& p) {
  UNITES_PROF("net.link.transmit");
  if (!up_) {
    ++stats_.down_drops;
    drop(p, "link-down");
    return;
  }
  if (p.size_bytes() > cfg_.mtu_bytes + Packet::kNetworkHeaderBytes) {
    ++stats_.mtu_drops;
    drop(p, "mtu-exceeded");
    return;
  }
  if (queued_ >= cfg_.queue_capacity_packets) {
    // Full port: an arriving higher-priority packet displaces the lowest-
    // priority queued one; otherwise the arrival is the victim.
    auto lowest = queues_.rbegin();
    while (lowest != queues_.rend() && lowest->second.empty()) ++lowest;
    if (lowest != queues_.rend() && lowest->first < p.priority) {
      ++stats_.queue_drops;
      drop(lowest->second.back(), "queue-overflow");
      lowest->second.pop_back();
      --queued_;
    } else {
      ++stats_.queue_drops;
      drop(p, "queue-overflow");
      return;
    }
  }
  queues_[p.priority].push_back(std::move(p));
  ++queued_;
  if (!busy_) start_transmission();
}

void Link::start_transmission() {
  if (queued_ == 0 || !up_) {
    busy_ = false;
    return;
  }
  UNITES_PROF("net.link.start_transmission");
  busy_ = true;
  auto it = queues_.begin();
  while (it->second.empty()) ++it;  // highest non-empty priority class
  Packet p = std::move(it->second.front());
  it->second.pop_front();
  --queued_;

  const auto tx_time = cfg_.bandwidth.transmission_time(p.size_bytes());
  ++stats_.tx_packets;
  stats_.tx_bytes += p.size_bytes();
  trace("net.tx", static_cast<double>(p.size_bytes()), nullptr, tx_time);

  // After serialization completes, the next queued packet may start, and
  // this one propagates to the far end. A down transition in between
  // aborted this serialization: its completion neither restarts the wire
  // (set_up(true) may already have) nor delivers the cut-off packet, which
  // is dropped when it would have arrived.
  sched_.post_after(tx_time, [this, epoch = down_transitions_, p = std::move(p)]() mutable {
    const bool cut = epoch != down_transitions_;
    sched_.post_after(cfg_.propagation_delay, [this, cut, p = std::move(p)]() mutable {
      if (cut || !up_) {
        ++stats_.down_drops;
        drop(p, "link-down");
        return;
      }
      apply_bit_errors(p);
      deliver_mutated(std::move(p));
    });
    if (!cut) start_transmission();
  });
}

void Link::apply_bit_errors(Packet& p) {
  // Gilbert-Elliott state evolution (per packet).
  if (cfg_.p_good_to_bad > 0.0) {
    if (burst_state_bad_) {
      if (rng_.bernoulli(cfg_.p_bad_to_good)) burst_state_bad_ = false;
    } else if (rng_.bernoulli(cfg_.p_good_to_bad)) {
      burst_state_bad_ = true;
    }
    if (burst_state_bad_) ++stats_.bad_state_packets;
  }
  const double ber = burst_state_bad_ ? cfg_.burst_error_rate : cfg_.bit_error_rate;
  if (ber <= 0.0 || p.payload.empty()) return;
  const double bits = static_cast<double>(p.payload.size()) * 8.0;
  // P(at least one bit error) = 1 - (1 - ber)^bits.
  const double p_err = 1.0 - std::pow(1.0 - ber, bits);
  if (!rng_.bernoulli(p_err)) return;
  ++stats_.bit_errors;
  p.bit_error = true;
  // Flip a uniformly chosen payload bit; flip more for very high BER links.
  // The copy-on-write view unshares the wire image only when a clone (the
  // sender's retransmission store, a duplicate) still aliases it.
  auto bytes = p.payload.mutable_bytes();
  const int flips = ber >= 1e-5 ? 3 : 1;
  for (int i = 0; i < flips; ++i) {
    const auto bit = rng_.uniform_int(0, bits > 1 ? static_cast<std::uint64_t>(bits) - 1 : 0);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

void Link::deliver_mutated(Packet&& p) {
  if (!deliver_) return;
  const bool armed = cfg_.corrupt_probability > 0.0 || cfg_.duplicate_probability > 0.0 ||
                     cfg_.reorder_probability > 0.0 || cfg_.truncate_probability > 0.0;
  if (!armed) {
    deliver_(std::move(p));
    return;
  }
  // Draws happen in a fixed order per packet so a seeded run replays the
  // exact same mutation schedule.
  if (cfg_.truncate_probability > 0.0 && !p.payload.empty() &&
      rng_.bernoulli(cfg_.truncate_probability)) {
    p.payload.truncate(rng_.uniform_int(0, p.payload.size() - 1));
    ++stats_.truncated;
    trace("net.mutate", static_cast<double>(p.payload.size()), "truncate");
  }
  if (cfg_.corrupt_probability > 0.0 && !p.payload.empty() &&
      rng_.bernoulli(cfg_.corrupt_probability)) {
    // Contiguous burst of 1..8 bit flips — the adversary real checksums
    // must catch (see the burst-detection tests over tko/checksum.hpp).
    const std::uint64_t bits = static_cast<std::uint64_t>(p.payload.size()) * 8;
    const std::uint64_t len = rng_.uniform_int(1, 8);
    const std::uint64_t first = rng_.uniform_int(0, bits - 1);
    auto bytes = p.payload.mutable_bytes();
    for (std::uint64_t b = first; b < first + len && b < bits; ++b) {
      bytes[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
    }
    p.bit_error = true;
    ++stats_.corrupted;
    trace("net.mutate", static_cast<double>(len), "corrupt");
  }
  if (cfg_.duplicate_probability > 0.0 && rng_.bernoulli(cfg_.duplicate_probability)) {
    ++stats_.duplicated;
    trace("net.mutate", static_cast<double>(p.size_bytes()), "duplicate");
    deliver_(Packet(p));
  }
  if (cfg_.reorder_probability > 0.0 && rng_.bernoulli(cfg_.reorder_probability)) {
    ++stats_.reordered;
    const auto hold = sim::SimTime::microseconds(
        static_cast<std::int64_t>(rng_.uniform_int(200, 3000)));
    trace("net.mutate", static_cast<double>(hold.ns()), "reorder");
    sched_.post_after(hold, [this, p = std::move(p)]() mutable {
      if (deliver_) deliver_(std::move(p));
    });
    return;
  }
  deliver_(std::move(p));
}

void Link::set_up(bool up) {
  if (up_ && !up) ++down_transitions_;
  up_ = up;
  if (!up_) {
    for (auto& [_, q] : queues_) {
      for (auto& p : q) {
        ++stats_.down_drops;
        drop(p, "link-down");
      }
      q.clear();
    }
    queued_ = 0;
    busy_ = false;
  } else if (!busy_) {
    start_transmission();
  }
}

}  // namespace adaptive::net
