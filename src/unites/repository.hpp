// UNITES Metric Repository (Figure 6): the database collected metric
// information lands in.
//
// "A repository is necessary when many active connections are instrumented
// and monitored, since too much data is generated to collect and process
// in real-time" — each series is bounded, and aggregate counters survive
// even after raw samples age out. Queries come in the three presentations
// the paper lists: systemwide, per-host, and per-connection.
#pragma once

#include "unites/histogram.hpp"
#include "unites/metric.hpp"

#include <map>
#include <optional>

namespace adaptive::unites {

struct SeriesSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;
};

class MetricRepository {
public:
  explicit MetricRepository(std::size_t max_samples_per_series = 65'536)
      : cap_(max_samples_per_series) {}

  /// Record one sample. The key's metric class defaults to
  /// classify_metric(key.name); pass `cls` to pin it explicitly (free-form
  /// metric names the classifier has never heard of). The class sticks to
  /// the key: later records and merges keep the first explicit choice.
  void record(const MetricKey& key, sim::SimTime when, double value);
  void record(const MetricKey& key, sim::SimTime when, double value, MetricClass cls);

  /// The stored class for `key` (survives merge); classify_metric for a
  /// key that was never recorded.
  [[nodiscard]] MetricClass metric_class(const MetricKey& key) const;

  /// Fold another repository into this one: per-key series are appended
  /// (then aged to this repository's cap), summaries combine (count/sum/
  /// min/max; `last` takes `other`'s), histograms merge bucket-by-bucket.
  /// Merging shard repositories in a fixed canonical order yields
  /// byte-identical contents regardless of how many threads produced them
  /// — the sharded scenario engine's determinism contract.
  void merge(const MetricRepository& other);

  [[nodiscard]] const Series* series(const MetricKey& key) const;
  [[nodiscard]] std::optional<SeriesSummary> summary(const MetricKey& key) const;

  /// Log-bucketed distribution of every value ever recorded for the key —
  /// unlike the raw series, it never ages out, so percentiles stay exact
  /// over the whole run. Nullptr if the key was never recorded.
  [[nodiscard]] const Histogram* histogram(const MetricKey& key) const;

  /// Merged distribution of `name` across all hosts and connections (the
  /// systemwide presentation as percentiles).
  [[nodiscard]] Histogram systemwide_histogram(std::string_view name) const;

  /// All keys, optionally filtered to one host and/or one connection.
  [[nodiscard]] std::vector<MetricKey> keys() const;
  [[nodiscard]] std::vector<MetricKey> keys_for_host(net::NodeId host) const;
  [[nodiscard]] std::vector<MetricKey> keys_for_connection(net::NodeId host,
                                                           std::uint32_t connection) const;

  /// Systemwide total of a counter-style metric across hosts/connections.
  [[nodiscard]] double systemwide_sum(std::string_view name) const;

  [[nodiscard]] std::size_t series_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t total_samples() const { return total_samples_; }

  void clear() {
    entries_.clear();
    total_samples_ = 0;
  }

private:
  /// Everything kept for one series, found with one key lookup.
  struct Entry {
    MetricClass cls;
    Series samples;
    SeriesSummary summary;
    Histogram histogram;
  };
  /// Drop the oldest samples, max(1, cap/2) at a time, until the series
  /// fits the cap: the one aging rule for record() and merge().
  void age(Series& samples) const;

  std::size_t cap_;
  std::map<MetricKey, Entry> entries_;
  std::uint64_t total_samples_ = 0;
};

}  // namespace adaptive::unites
