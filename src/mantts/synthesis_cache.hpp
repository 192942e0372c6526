// MANTTS synthesis-result cache (the paper's Section 4 template cache,
// made to pay off at session-plane scale).
//
// Stage I (classify) and Stage II (derive_scs) are pure functions of the
// ACD's QoS vector and the network state descriptor. A metro-scale world
// opens 10^5..10^6 sessions whose ACDs come from a handful of application
// templates over a handful of path classes — re-running the
// mechanism-selection pipeline for every one of them is pure waste. This
// cache memoizes (Tsc, SessionConfig) by a *synthesis key*:
//
//   - the ACD side is an exact fingerprint (FNV-1a over every Stage I/II
//     input field: the quantitative and qualitative QoS vectors plus the
//     multicast fan-out bit). Remote addresses are deliberately excluded —
//     path characteristics live in the descriptor, so sessions toward
//     different hosts on equivalent paths share entries.
//   - the descriptor side is *quantized*: RTT and bottleneck bandwidth to
//     octaves, congestion to quarters (the derive_scs decision thresholds
//     sit at 0.25/0.5), loss rate and BER to the decision bands, MTU and
//     route_version exact, plus the reachable/degraded bits. Quantization
//     keeps dynamic-state jitter from shattering the key space while any
//     delta that could change mechanism selection still misses.
//
// Eviction is strict LRU with a deterministic total order (a monotonic
// use-stamp per entry, no wall clock, no address-based tie-breaks), so
// cache behavior — and therefore every downstream metric — is
// reproducible for any seed and job count. Renegotiation invalidates: a
// RECONFIG or retarget means the cached derivation no longer describes
// what the pipeline would produce, so the entry is dropped rather than
// served stale (DESIGN §14).
#pragma once

#include "mantts/acd.hpp"
#include "mantts/nmi.hpp"
#include "mantts/tsc.hpp"
#include "tko/sa/config.hpp"

#include <compare>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

namespace adaptive::mantts {

struct SynthesisKey {
  std::uint64_t acd_fnv = 0;  ///< exact ACD-side fingerprint
  std::uint64_t route_version = 0;
  std::uint32_t mtu = 0;
  std::uint8_t rtt_octave = 0;         ///< floor(log2(rtt ns)), 0 when zero
  std::uint8_t bottleneck_octave = 0;  ///< floor(log2(bps)), 0 when zero
  std::uint8_t congestion_quarter = 0;
  std::uint8_t loss_band = 0;  ///< derive_scs decision band index
  std::uint8_t ber_decade = 0;  ///< min(15, -floor(log10(ber))), 0 for ber=0
  std::uint8_t flags = 0;       ///< reachable | degraded<<1 | multicast<<2

  auto operator<=>(const SynthesisKey&) const = default;
};

[[nodiscard]] SynthesisKey make_synthesis_key(const Acd& acd,
                                              const NetworkStateDescriptor& net);

struct SynthesisCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

class SynthesisCache {
public:
  static constexpr std::size_t kDefaultCapacity = 128;
  explicit SynthesisCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Entry {
    Tsc tsc = Tsc::kNonRealTimeNonIsochronous;
    tko::sa::SessionConfig scs;
  };

  /// Null on miss. A hit refreshes the entry's LRU position. Counts.
  [[nodiscard]] const Entry* lookup(const SynthesisKey& key);

  /// Install (or refresh) the derivation for `key`, evicting the
  /// least-recently-used entry when at capacity.
  void insert(const SynthesisKey& key, Tsc tsc, const tko::sa::SessionConfig& scs);

  /// Drop the entry (renegotiation/retarget made it stale). False when absent.
  bool invalidate(const SynthesisKey& key);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const SynthesisCacheStats& stats() const { return stats_; }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = stats_.hits + stats_.misses;
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) / static_cast<double>(total);
  }

  /// Keys in eviction order (next victim first). Tests pin this.
  [[nodiscard]] std::vector<SynthesisKey> eviction_order() const;

private:
  // LRU list: front = most recent, back = next victim. The map carries
  // list iterators; std::map keeps key iteration deterministic too.
  using LruList = std::list<std::pair<SynthesisKey, Entry>>;
  std::size_t capacity_;
  LruList lru_;
  std::map<SynthesisKey, LruList::iterator> index_;
  SynthesisCacheStats stats_;
};

}  // namespace adaptive::mantts
