// Buffer allocation facade with copy and lifetime accounting.
//
// The pool supports the two buffer-management "representations" MANTTS
// negotiates (Section 4.1.1): fixed-size (allocations rounded up to a
// block size, enabling cheap reuse) and variable-size (exact allocation).
//
// Every allocation is also tracked through to its free: the pool's stats
// carry live bytes (a gauge) and the high-water mark alongside the
// cumulative copy counters, because Section 2 argues memory — copies and
// per-connection buffer state — is the transport bottleneck, and the
// UNITES resource telemetry plane (DESIGN §12) needs those numbers to
// gate the zero-copy work. Free tracking rides on the BufferRef's
// deleter through a shared ledger, so a buffer outliving its pool is
// safe (the free still lands in the ledger, which outlives both).
#pragma once

#include "os/buffer.hpp"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace adaptive::os {

enum class BufferScheme { kFixedSize, kVariableSize };

struct BufferPoolStats {
  std::uint64_t allocations = 0;
  std::uint64_t allocated_bytes = 0;
  std::uint64_t frees = 0;
  std::uint64_t freed_bytes = 0;
  std::uint64_t live_bytes = 0;        ///< gauge: allocated_bytes - freed_bytes
  std::uint64_t high_water_bytes = 0;  ///< peak of live_bytes over the pool's life
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t wasted_bytes = 0;  ///< fixed-size rounding slack
};

/// The pool recycles freed buffers by exact capacity: the datapath
/// allocates a handful of hot sizes (PDU payload, header, trailer), so
/// reuse hits nearly always. The stats ledger counts every allocate and
/// free whether or not the allocator itself is touched.
class BufferPool {
public:
  explicit BufferPool(BufferScheme scheme = BufferScheme::kVariableSize,
                      std::size_t block_size = 2048)
      : scheme_(scheme), block_size_(block_size), ledger_(std::make_shared<Ledger>()) {}

  [[nodiscard]] BufferRef allocate(std::size_t size);

  /// Record a physical memory-to-memory copy (called by TKO_Message).
  void record_copy(std::size_t bytes) {
    ++stats_.copies;
    stats_.copied_bytes += bytes;
  }

  [[nodiscard]] const BufferPoolStats& stats() const {
    // Fold the free-side ledger (written by BufferRef deleters) into the
    // snapshot callers read; the bases subtract frees that predate the
    // last reset_stats().
    stats_.frees = ledger_->frees - frees_base_;
    stats_.freed_bytes = ledger_->freed_bytes - freed_bytes_base_;
    stats_.live_bytes = live_bytes();
    return stats_;
  }
  [[nodiscard]] std::uint64_t live_bytes() const {
    return stats_.allocated_bytes + carried_bytes_ - ledger_->freed_bytes;
  }
  [[nodiscard]] BufferScheme scheme() const { return scheme_; }
  void set_scheme(BufferScheme s) { scheme_ = s; }

  /// Zero the cumulative counters. Live/high-water track actual buffer
  /// lifetimes and restart from the current live set.
  void reset_stats() {
    const std::uint64_t live = live_bytes();
    stats_ = {};
    carried_bytes_ = live + ledger_->freed_bytes;
    frees_base_ = ledger_->frees;
    freed_bytes_base_ = ledger_->freed_bytes;
    stats_.live_bytes = live;
    stats_.high_water_bytes = live;
  }

private:
  /// Free-side counters. BufferRef deleters hold a shared_ptr to this, so
  /// a buffer freed after its pool dies still lands somewhere valid. The
  /// recycle cache lives here for the same lifetime reason: the deleter
  /// that returns a buffer may run after the pool is gone.
  struct Ledger {
    std::uint64_t frees = 0;
    std::uint64_t freed_bytes = 0;
    /// Freed buffers retained for reuse, keyed by exact capacity and
    /// bounded per class (see kMaxCachedPerSize).
    std::unordered_map<std::size_t, std::vector<std::unique_ptr<Buffer>>> cache;
  };

  /// Recycle-cache depth per size class: deep enough to absorb a send
  /// window of PDU buffers, small enough that idle sessions don't pin
  /// memory.
  static constexpr std::size_t kMaxCachedPerSize = 64;

  BufferScheme scheme_;
  std::size_t block_size_;
  mutable BufferPoolStats stats_;
  /// Bytes live at the last reset_stats(): keeps live_bytes() consistent
  /// after cumulative counters are zeroed.
  std::uint64_t carried_bytes_ = 0;
  /// Ledger readings at the last reset_stats(), so reported frees are
  /// "since reset" while the shared ledger itself stays monotonic for
  /// buffers still in flight.
  std::uint64_t frees_base_ = 0;
  std::uint64_t freed_bytes_base_ = 0;
  std::shared_ptr<Ledger> ledger_;
};

}  // namespace adaptive::os
