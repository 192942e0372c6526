#include "mantts/synthesis_cache.hpp"

#include <bit>
#include <cmath>

namespace adaptive::mantts {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= kFnvPrime;
  }
}

void fnv_f64(std::uint64_t& h, double v) { fnv_u64(h, std::bit_cast<std::uint64_t>(v)); }

std::uint8_t octave(double v) {
  if (v < 1.0) return 0;
  return static_cast<std::uint8_t>(std::min(63.0, std::floor(std::log2(v))));
}

/// Loss-rate decision bands mirroring derive_scs's thresholds (0.01 /
/// 0.05 / 0.2): within a band, the pipeline's loss-driven choices are
/// identical, so band identity is the right cache granularity.
std::uint8_t loss_band(double loss) {
  if (loss <= 0.0) return 0;
  if (loss < 0.01) return 1;
  if (loss < 0.05) return 2;
  if (loss < 0.2) return 3;
  return 4;
}

std::uint8_t ber_decade(double ber) {
  if (ber <= 0.0) return 0;
  const double d = -std::floor(std::log10(ber));
  return static_cast<std::uint8_t>(std::clamp(d, 1.0, 15.0));
}

}  // namespace

SynthesisKey make_synthesis_key(const Acd& acd, const NetworkStateDescriptor& net) {
  SynthesisKey k;

  // ACD fingerprint: every input Stage I/II reads, nothing else. Bit
  // patterns, not values, so -0.0 vs 0.0 style aliasing cannot collide
  // distinct configurations.
  std::uint64_t h = kFnvOffset;
  const QuantitativeQos& q = acd.quantitative;
  fnv_f64(h, q.average_throughput.bits_per_sec());
  fnv_f64(h, q.peak_throughput.bits_per_sec());
  fnv_u64(h, static_cast<std::uint64_t>(q.max_latency.ns()));
  fnv_u64(h, static_cast<std::uint64_t>(q.max_jitter.ns()));
  fnv_f64(h, q.loss_tolerance);
  fnv_u64(h, static_cast<std::uint64_t>(q.duration.ns()));
  fnv_f64(h, q.burst_factor);
  const QualitativeQos& ql = acd.qualitative;
  std::uint64_t bools = 0;
  bools |= static_cast<std::uint64_t>(ql.sequenced_delivery) << 0;
  bools |= static_cast<std::uint64_t>(ql.duplicate_sensitive) << 1;
  bools |= static_cast<std::uint64_t>(ql.explicit_connection) << 2;
  bools |= static_cast<std::uint64_t>(ql.realtime) << 3;
  bools |= static_cast<std::uint64_t>(ql.isochronous) << 4;
  bools |= static_cast<std::uint64_t>(ql.conversational) << 5;
  bools |= static_cast<std::uint64_t>(ql.priority_delivery) << 6;
  bools |= static_cast<std::uint64_t>(ql.priority) << 8;
  fnv_u64(h, bools);
  k.acd_fnv = h;

  k.route_version = net.route_version;
  k.mtu = static_cast<std::uint32_t>(net.mtu);
  k.rtt_octave = octave(static_cast<double>(net.rtt.ns()));
  k.bottleneck_octave = octave(net.bottleneck.bits_per_sec());
  k.congestion_quarter =
      static_cast<std::uint8_t>(std::clamp(net.congestion, 0.0, 1.0) * 4.0);
  k.loss_band = loss_band(net.recent_loss_rate);
  k.ber_decade = ber_decade(net.bit_error_rate);
  k.flags = static_cast<std::uint8_t>((net.reachable ? 1 : 0) | (net.degraded ? 2 : 0) |
                                      (acd.wants_multicast() ? 4 : 0));
  return k;
}

const SynthesisCache::Entry* SynthesisCache::lookup(const SynthesisKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh: move to front
  return &it->second->second;
}

void SynthesisCache::insert(const SynthesisKey& key, Tsc tsc,
                            const tko::sa::SessionConfig& scs) {
  ++stats_.insertions;
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = Entry{tsc, scs};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    ++stats_.evictions;
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(key, Entry{tsc, scs});
  index_.emplace(key, lru_.begin());
}

bool SynthesisCache::invalidate(const SynthesisKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  ++stats_.invalidations;
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

std::vector<SynthesisKey> SynthesisCache::eviction_order() const {
  std::vector<SynthesisKey> out;
  out.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) out.push_back(it->first);
  return out;
}

}  // namespace adaptive::mantts
