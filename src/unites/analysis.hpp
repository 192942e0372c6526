// Metric analysis: the statistics UNITES computes over collected series.
//
// Includes the paper's definitions: throughput (units per second over an
// interval), latency (round-trip/one-way delay samples), and jitter —
// "the variance in the delay" — computed over delay samples.
#pragma once

#include "unites/metric.hpp"

#include <optional>

namespace adaptive::unites {

struct SeriesStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Descriptive statistics over sample values. Empty series -> count 0.
[[nodiscard]] SeriesStats analyze(const Series& s);

/// Jitter per the paper: the variance (reported as stddev) of the delay
/// samples in the series.
[[nodiscard]] double jitter(const Series& delays);

/// Average rate: sum of values divided by the spanned time (e.g. bytes ->
/// bytes/sec). Returns nullopt when the series spans no time.
[[nodiscard]] std::optional<double> rate_per_second(const Series& s);

/// Sliding-window rate series: one output point per `window`, for
/// throughput-vs-time plots (the reconfiguration benches).
[[nodiscard]] Series windowed_rate(const Series& s, sim::SimTime window);

}  // namespace adaptive::unites
