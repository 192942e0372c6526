#include "unites/analysis.hpp"

#include <algorithm>
#include <cmath>

namespace adaptive::unites {

namespace {
double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}
}  // namespace

SeriesStats analyze(const Series& s) {
  SeriesStats out;
  if (s.empty()) return out;
  std::vector<double> values;
  values.reserve(s.size());
  double sum = 0.0;
  for (const auto& smp : s) {
    values.push_back(smp.value);
    sum += smp.value;
  }
  std::ranges::sort(values);
  out.count = s.size();
  out.mean = sum / static_cast<double>(s.size());
  out.min = values.front();
  out.max = values.back();
  double sq = 0.0;
  for (const double v : values) sq += (v - out.mean) * (v - out.mean);
  out.stddev = std::sqrt(sq / static_cast<double>(values.size()));
  out.p50 = percentile(values, 0.50);
  out.p95 = percentile(values, 0.95);
  out.p99 = percentile(values, 0.99);
  return out;
}

double jitter(const Series& delays) { return analyze(delays).stddev; }

std::optional<double> rate_per_second(const Series& s) {
  if (s.size() < 2) return std::nullopt;
  const auto span = s.back().when - s.front().when;
  if (span <= sim::SimTime::zero()) return std::nullopt;
  double sum = 0.0;
  for (const auto& smp : s) sum += smp.value;
  return sum / span.sec();
}

Series windowed_rate(const Series& s, sim::SimTime window) {
  Series out;
  if (s.empty() || window <= sim::SimTime::zero()) return out;
  sim::SimTime bucket_start = s.front().when;
  double acc = 0.0;
  for (const auto& smp : s) {
    while (smp.when >= bucket_start + window) {
      out.push_back(Sample{bucket_start + window, acc / window.sec()});
      acc = 0.0;
      bucket_start += window;
    }
    acc += smp.value;
  }
  out.push_back(Sample{bucket_start + window, acc / window.sec()});
  return out;
}

}  // namespace adaptive::unites
