#include "unites/repository.hpp"

#include <algorithm>

namespace adaptive::unites {

void MetricRepository::record(const MetricKey& key, sim::SimTime when, double value) {
  record(key, when, value, classify_metric(key.name));
}

void MetricRepository::record(const MetricKey& key, sim::SimTime when, double value,
                              MetricClass cls) {
  auto& e = entries_.try_emplace(key, Entry{cls, {}, {}, {}}).first->second;  // first class wins
  e.samples.push_back(Sample{when, value});
  age(e.samples);
  auto& s = e.summary;
  if (s.count == 0) {
    s.min = s.max = value;
  } else {
    s.min = std::min(s.min, value);
    s.max = std::max(s.max, value);
  }
  ++s.count;
  s.sum += value;
  s.last = value;
  e.histogram.add(value);
  ++total_samples_;
}

void MetricRepository::age(Series& samples) const {
  if (samples.size() <= cap_) return;
  // Whole rounds of the oldest max(1, cap/2) in one move (amortized O(1)
  // per record).
  const std::size_t drop = std::max<std::size_t>(1, cap_ / 2);
  const std::size_t rounds = (samples.size() - cap_ + drop - 1) / drop;
  samples.erase(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rounds * drop));
}

void MetricRepository::merge(const MetricRepository& other) {
  for (const auto& [key, theirs] : other.entries_) {
    const auto [it, fresh] = entries_.try_emplace(key, theirs);  // first class wins
    Entry& mine = it->second;
    if (!fresh) {
      mine.samples.insert(mine.samples.end(), theirs.samples.begin(), theirs.samples.end());
      auto& s = mine.summary;
      const auto& t = theirs.summary;
      s.min = std::min(s.min, t.min);
      s.max = std::max(s.max, t.max);
      s.count += t.count;
      s.sum += t.sum;
      s.last = t.last;
      mine.histogram.merge(theirs.histogram);
    }
    age(mine.samples);
  }
  total_samples_ += other.total_samples_;
}

MetricClass MetricRepository::metric_class(const MetricKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? classify_metric(key.name) : it->second.cls;
}

const Series* MetricRepository::series(const MetricKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.samples;
}

std::optional<SeriesSummary> MetricRepository::summary(const MetricKey& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.summary;
}

const Histogram* MetricRepository::histogram(const MetricKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.histogram;
}

Histogram MetricRepository::systemwide_histogram(std::string_view name) const {
  Histogram merged;
  for (const auto& [k, e] : entries_) {
    if (k.name == name) merged.merge(e.histogram);
  }
  return merged;
}

std::vector<MetricKey> MetricRepository::keys() const {
  std::vector<MetricKey> out;
  out.reserve(entries_.size());
  for (const auto& [k, _] : entries_) out.push_back(k);
  return out;
}

std::vector<MetricKey> MetricRepository::keys_for_host(net::NodeId host) const {
  std::vector<MetricKey> out;
  for (const auto& [k, _] : entries_) {
    if (k.host == host) out.push_back(k);
  }
  return out;
}

std::vector<MetricKey> MetricRepository::keys_for_connection(net::NodeId host,
                                                             std::uint32_t connection) const {
  std::vector<MetricKey> out;
  for (const auto& [k, _] : entries_) {
    if (k.host == host && k.connection == connection) out.push_back(k);
  }
  return out;
}

double MetricRepository::systemwide_sum(std::string_view name) const {
  double sum = 0.0;
  for (const auto& [k, e] : entries_) {
    if (k.name == name) sum += e.summary.sum;
  }
  return sum;
}

}  // namespace adaptive::unites
