#include "unites/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace adaptive::unites {

namespace {
// Smallest representable exponent: values below 2^-kExponentFloor share
// bucket 1. Metric values are ns / bytes / counts, so anything smaller is
// effectively zero.
constexpr int kExponentFloor = 64;
constexpr int kExponentCeil = 64;
/// Last sub-bucket of the top octave, where the largest finite values clamp.
constexpr std::size_t kTopBucket =
    static_cast<std::size_t>(kExponentFloor + kExponentCeil + 1) * Histogram::kSubBucketsPerOctave;
}  // namespace

std::size_t Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, or NaN
  if (std::isinf(value)) return kTopBucket;  // frexp(+inf) has no finite mantissa
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = mantissa * 2^exp, m in [0.5, 1)
  exp = std::clamp(exp, -kExponentFloor, kExponentCeil);
  const auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                            static_cast<double>(kSubBucketsPerOctave));
  return 1 +
         static_cast<std::size_t>(exp + kExponentFloor) * kSubBucketsPerOctave +
         std::min(sub, kSubBucketsPerOctave - 1);
}

double Histogram::bucket_lower(std::size_t index) {
  if (index == 0) return 0.0;
  const std::size_t linear = index - 1;
  const int exp = static_cast<int>(linear / kSubBucketsPerOctave) - kExponentFloor;
  const auto sub = static_cast<double>(linear % kSubBucketsPerOctave);
  return std::ldexp(0.5 + sub * 0.5 / static_cast<double>(kSubBucketsPerOctave), exp);
}

double Histogram::bucket_upper(std::size_t index) {
  if (index == 0) return 0.0;
  const std::size_t linear = index - 1;
  const int exp = static_cast<int>(linear / kSubBucketsPerOctave) - kExponentFloor;
  const auto sub = static_cast<double>(linear % kSubBucketsPerOctave) + 1.0;
  return std::ldexp(0.5 + sub * 0.5 / static_cast<double>(kSubBucketsPerOctave), exp);
}

std::uint64_t& Histogram::slot(std::size_t index) {
  if (counts_.empty()) lo_ = index;
  if (index < lo_) {
    counts_.insert(counts_.begin(), lo_ - index, 0);
    lo_ = index;
  } else if (index - lo_ >= counts_.size()) {
    counts_.resize(index - lo_ + 1, 0);
  }
  return counts_[index - lo_];
}

void Histogram::add(double value) {
  ++slot(bucket_index(value));
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  // Cover the union of both ranges, then add counter by counter.
  slot(other.lo_);
  slot(other.lo_ + other.counts_.size() - 1);
  const std::size_t offset = other.lo_ - lo_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[offset + i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::clear() {
  counts_.clear();
  lo_ = 0;
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) >= target) {
      const double frac =
          std::clamp((target - before) / static_cast<double>(counts_[i]), 0.0, 1.0);
      const double lower = bucket_lower(lo_ + i);
      const double upper = bucket_upper(lo_ + i);
      return std::clamp(lower + frac * (upper - lower), min_, max_);
    }
  }
  return max_;
}

std::vector<Histogram::Bucket> Histogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    out.push_back(Bucket{bucket_lower(lo_ + i), bucket_upper(lo_ + i), counts_[i]});
  }
  return out;
}

}  // namespace adaptive::unites
