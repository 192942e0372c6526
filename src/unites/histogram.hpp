// Log-bucketed histogram: the distribution-level view UNITES needs to
// report percentiles (p50/p90/p99/p99.9) instead of means.
//
// Buckets grow geometrically — each octave of the value range is split
// into kSubBucketsPerOctave equal slices, bounding the relative error of
// any reported percentile to ~1/kSubBucketsPerOctave. Buckets are plain
// counters, so two histograms collected on different hosts (or in
// different sessions) merge losslessly — the property the repository's
// systemwide presentation relies on.
//
// Only the occupied bucket range is stored: a series that only ever saw
// one value holds one counter, not the ~500 empty buckets below it.
#pragma once

#include <cstdint>
#include <vector>

namespace adaptive::unites {

class Histogram {
public:
  /// Sub-buckets per power of two: ~9% worst-case relative error.
  static constexpr std::size_t kSubBucketsPerOctave = 8;

  void add(double value);
  void merge(const Histogram& other);
  void clear();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Value at percentile `p` (0..100), interpolated within the owning
  /// bucket and clamped to the exact observed [min, max]. Empty -> 0.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50.0); }
  [[nodiscard]] double p90() const { return percentile(90.0); }
  [[nodiscard]] double p99() const { return percentile(99.0); }
  [[nodiscard]] double p999() const { return percentile(99.9); }

  /// Occupied buckets with their value ranges, lowest first (for export).
  struct Bucket {
    double lower = 0.0;
    double upper = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::vector<Bucket> nonzero_buckets() const;

private:
  [[nodiscard]] static std::size_t bucket_index(double value);
  [[nodiscard]] static double bucket_lower(std::size_t index);
  [[nodiscard]] static double bucket_upper(std::size_t index);

  /// Grow the stored range to cover bucket `index`; returns its counter.
  std::uint64_t& slot(std::size_t index);

  std::vector<std::uint64_t> counts_;  ///< buckets [lo_, lo_ + size); bucket 0 = v <= 0
  std::size_t lo_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace adaptive::unites
