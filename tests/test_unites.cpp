// Tests for UNITES: repository, analysis, collectors, presentation.
#include "adaptive/world.hpp"
#include "net/topologies.hpp"
#include "tko/sa/templates.hpp"
#include "sim/logging.hpp"
#include "unites/analysis.hpp"
#include "unites/collector.hpp"
#include "unites/conformance.hpp"
#include "unites/export.hpp"
#include "unites/flight_recorder.hpp"
#include "unites/histogram.hpp"
#include "unites/json_writer.hpp"
#include "unites/presentation.hpp"
#include "unites/repository.hpp"
#include "unites/resource.hpp"
#include "unites/sampler.hpp"
#include "unites/spans.hpp"
#include "unites/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <sstream>

namespace adaptive::unites {
namespace {

Sample s(double t_ms, double v) { return Sample{sim::SimTime::seconds(t_ms / 1000.0), v}; }

TEST(MetricClassification, BlackboxVsWhitebox) {
  EXPECT_EQ(classify_metric(metrics::kThroughputBps), MetricClass::kBlackbox);
  EXPECT_EQ(classify_metric(metrics::kLatencyNs), MetricClass::kBlackbox);
  EXPECT_EQ(classify_metric(metrics::kRetransmissions), MetricClass::kWhitebox);
  EXPECT_EQ(classify_metric("custom.thing"), MetricClass::kWhitebox);
}

TEST(Repository, RecordAndQuery) {
  MetricRepository repo;
  const MetricKey key{1, 42, "x"};
  repo.record(key, sim::SimTime::milliseconds(1), 10.0);
  repo.record(key, sim::SimTime::milliseconds(2), 20.0);
  const Series* series = repo.series(key);
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2u);
  const auto sum = repo.summary(key);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->count, 2u);
  EXPECT_DOUBLE_EQ(sum->sum, 30.0);
  EXPECT_DOUBLE_EQ(sum->min, 10.0);
  EXPECT_DOUBLE_EQ(sum->max, 20.0);
  EXPECT_DOUBLE_EQ(sum->last, 20.0);
  EXPECT_EQ(repo.series(MetricKey{1, 42, "y"}), nullptr);
}

TEST(Repository, KeysFilters) {
  MetricRepository repo;
  repo.record({1, 10, "a"}, sim::SimTime::zero(), 1);
  repo.record({1, 11, "a"}, sim::SimTime::zero(), 1);
  repo.record({2, 10, "a"}, sim::SimTime::zero(), 1);
  EXPECT_EQ(repo.keys().size(), 3u);
  EXPECT_EQ(repo.keys_for_host(1).size(), 2u);
  EXPECT_EQ(repo.keys_for_connection(1, 11).size(), 1u);
  EXPECT_DOUBLE_EQ(repo.systemwide_sum("a"), 3.0);
}

TEST(Repository, CapsSeriesButKeepsSummary) {
  MetricRepository repo(16);
  const MetricKey key{1, 1, "x"};
  for (int i = 0; i < 100; ++i) repo.record(key, sim::SimTime::milliseconds(i), 1.0);
  EXPECT_LE(repo.series(key)->size(), 16u);
  EXPECT_EQ(repo.summary(key)->count, 100u);  // aggregate survives aging
}

TEST(Repository, RecordAndMergeAgeTinyCapsAlike) {
  const MetricKey key{1, 1, "x"};
  MetricRepository source;
  for (int i = 0; i < 10; ++i) source.record(key, sim::SimTime::milliseconds(i), i);
  for (const std::size_t cap : {0u, 1u, 2u, 3u}) {
    SCOPED_TRACE(cap);
    MetricRepository recorded(cap);
    for (int i = 0; i < 10; ++i) recorded.record(key, sim::SimTime::milliseconds(i), i);
    MetricRepository merged(cap);
    merged.merge(source);
    for (const MetricRepository* repo : {&recorded, &merged}) {
      // The newest `cap` samples survive; the aggregates see all ten.
      const Series& series = *repo->series(key);
      ASSERT_EQ(series.size(), cap);
      for (std::size_t i = 0; i < cap; ++i) {
        EXPECT_DOUBLE_EQ(series[i].value, static_cast<double>(10 - cap + i));
      }
      EXPECT_EQ(repo->summary(key)->count, 10u);
      EXPECT_EQ(repo->histogram(key)->count(), 10u);
    }
  }
}

/// Everything a reader can ask a repository, for comparing two of them.
void expect_same_repository(const MetricRepository& got, const MetricRepository& want) {
  ASSERT_EQ(got.keys(), want.keys());
  EXPECT_EQ(got.series_count(), want.series_count());
  EXPECT_EQ(got.total_samples(), want.total_samples());
  std::set<std::string> names;
  std::set<std::pair<net::NodeId, std::uint32_t>> owners;
  for (const auto& key : want.keys()) {
    SCOPED_TRACE(key.name);
    names.insert(key.name);
    owners.emplace(key.host, key.connection);
    EXPECT_EQ(got.metric_class(key), want.metric_class(key));
    const Series& gs = *got.series(key);
    const Series& ws = *want.series(key);
    ASSERT_EQ(gs.size(), ws.size());
    for (std::size_t i = 0; i < gs.size(); ++i) {
      EXPECT_EQ(gs[i].when, ws[i].when);
      EXPECT_EQ(gs[i].value, ws[i].value);
    }
    const auto g = *got.summary(key);
    const auto w = *want.summary(key);
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.sum, w.sum);
    EXPECT_EQ(g.min, w.min);
    EXPECT_EQ(g.max, w.max);
    EXPECT_EQ(g.last, w.last);
    EXPECT_EQ(got.histogram(key)->count(), want.histogram(key)->count());
    EXPECT_EQ(got.histogram(key)->sum(), want.histogram(key)->sum());
    EXPECT_EQ(got.histogram(key)->p99(), want.histogram(key)->p99());
  }
  for (const auto& [host, connection] : owners) {
    EXPECT_EQ(got.keys_for_host(host), want.keys_for_host(host));
    EXPECT_EQ(got.keys_for_connection(host, connection),
              want.keys_for_connection(host, connection));
  }
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    EXPECT_EQ(got.systemwide_sum(name), want.systemwide_sum(name));
    const Histogram g = got.systemwide_histogram(name);
    const Histogram w = want.systemwide_histogram(name);
    EXPECT_EQ(g.count(), w.count());
    EXPECT_EQ(g.sum(), w.sum());
    for (const double p : {0.0, 50.0, 90.0, 99.9, 100.0}) {
      EXPECT_EQ(g.percentile(p), w.percentile(p));
    }
  }
  const MetricKey absent{1, 0, "never.recorded"};
  EXPECT_EQ(got.metric_class(absent), want.metric_class(absent));
}

TEST(Repository, MergedShardsAnswerLikeOneRepository) {
  // Integer values keep every partial sum exact, so the shard split cannot
  // move a summary or histogram sum.
  struct Record {
    MetricKey key;
    sim::SimTime when;
    double value;
    std::optional<MetricClass> cls;
  };
  const char* names[] = {"latency.ns", "custom.count", "qos.window_ok", "mem.pool_live_bytes",
                         "free.form"};
  std::mt19937_64 rng(0xfeed);
  std::vector<Record> records;
  for (int i = 0; i < 20'000; ++i) {
    Record r{{static_cast<net::NodeId>(rng() % 3), static_cast<std::uint32_t>(rng() % 5),
              names[rng() % 5]},
             sim::SimTime::microseconds(i),
             static_cast<double>(rng() % 2'000'000) - 1000.0,
             std::nullopt};
    // Pin a class on some records: only each key's first choice may stick.
    if (rng() % 7 == 0) r.cls = static_cast<MetricClass>(rng() % 3);
    records.push_back(r);
  }
  auto record_into = [](MetricRepository& repo, const Record& r) {
    if (r.cls) {
      repo.record(r.key, r.when, r.value, *r.cls);
    } else {
      repo.record(r.key, r.when, r.value);
    }
  };
  MetricRepository whole;
  for (const auto& r : records) record_into(whole, r);
  for (const std::size_t shards : {1u, 2u, 7u}) {
    SCOPED_TRACE(shards);
    std::vector<MetricRepository> parts(shards);
    for (std::size_t i = 0; i < records.size(); ++i) {
      record_into(parts[i * shards / records.size()], records[i]);
    }
    MetricRepository merged;
    for (const auto& part : parts) merged.merge(part);
    expect_same_repository(merged, whole);
  }
}

TEST(Analysis, BasicStats) {
  Series series = {s(0, 1), s(1, 2), s(2, 3), s(3, 4), s(4, 5)};
  const auto st = analyze(series);
  EXPECT_EQ(st.count, 5u);
  EXPECT_DOUBLE_EQ(st.mean, 3.0);
  EXPECT_DOUBLE_EQ(st.min, 1.0);
  EXPECT_DOUBLE_EQ(st.max, 5.0);
  EXPECT_DOUBLE_EQ(st.p50, 3.0);
  EXPECT_NEAR(st.stddev, std::sqrt(2.0), 1e-9);
  EXPECT_EQ(analyze({}).count, 0u);
}

TEST(Analysis, Percentiles) {
  Series series;
  for (int i = 1; i <= 100; ++i) series.push_back(s(i, i));
  const auto st = analyze(series);
  EXPECT_NEAR(st.p95, 95.05, 0.5);
  EXPECT_NEAR(st.p99, 99.01, 0.5);
}

TEST(Analysis, JitterIsDelayStddev) {
  Series constant = {s(0, 5), s(1, 5), s(2, 5)};
  EXPECT_DOUBLE_EQ(jitter(constant), 0.0);
  Series varying = {s(0, 1), s(1, 9)};
  EXPECT_DOUBLE_EQ(jitter(varying), 4.0);
}

TEST(Analysis, RatePerSecond) {
  Series series = {s(0, 100), s(1000, 100)};  // 200 units over 1 s
  const auto r = rate_per_second(series);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 200.0);
  EXPECT_FALSE(rate_per_second({s(0, 1)}).has_value());
}

TEST(Analysis, WindowedRate) {
  Series series = {s(0, 10), s(100, 10), s(600, 40)};
  const auto windows = windowed_rate(series, sim::SimTime::milliseconds(500));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].value, 40.0);  // 20 units / 0.5 s
  EXPECT_DOUBLE_EQ(windows[1].value, 80.0);
}

TEST(Presentation, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const auto out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Every line has the same length (fixed-width alignment).
  std::size_t prev = std::string::npos;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const auto nl = out.find('\n', pos);
    const auto len = nl - pos;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    pos = nl + 1;
  }
}

TEST(Presentation, FormatSi) {
  EXPECT_EQ(format_si(1'500'000.0, 1), "1.5M");
  EXPECT_EQ(format_si(2'000.0, 0), "2k");
  EXPECT_EQ(format_si(3.25e9, 2), "3.25G");
  EXPECT_EQ(format_si(12.0, 0), "12");
}

TEST(Collectors, SessionCollectorGathersWhiteboxAndThroughput) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 5); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  MetricRepository repo;
  MeasurementSpec spec;
  spec.sampling_period = sim::SimTime::milliseconds(50);
  SessionCollector collector(repo, session, spec);

  std::vector<std::uint8_t> data(20'000, 7);
  session.send(tko::Message::from_bytes(data, &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));

  EXPECT_GT(collector.whitebox_events(), 0u);
  const MetricKey sent{world.host(0).node_id(), session.id(), metrics::kPdusSent};
  ASSERT_TRUE(repo.summary(sent).has_value());
  EXPECT_GT(repo.summary(sent)->sum, 10.0);
  const MetricKey tput{world.host(0).node_id(), session.id(), metrics::kThroughputBps};
  ASSERT_NE(repo.series(tput), nullptr);
  EXPECT_GE(repo.series(tput)->size(), 10u);
  collector.detach();
}

TEST(Collectors, FilterRestrictsMetrics) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 5); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  MetricRepository repo;
  MeasurementSpec spec;
  spec.filter = {"connection."};
  SessionCollector collector(repo, session, spec);
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(5000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));
  for (const auto& key : repo.keys()) {
    if (key.name == metrics::kThroughputBps) continue;  // periodic blackbox
    EXPECT_EQ(key.name.substr(0, 11), "connection.") << key.name;
  }
}

TEST(Collectors, HostCollectorSamplesCpuAndCopies) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 5); });
  MetricRepository repo;
  HostCollector collector(repo, world.host(0), sim::SimTime::milliseconds(100));
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::udp_compat_config());
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(3000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));
  const MetricKey cpu{world.host(0).node_id(), 0, metrics::kCpuInstructions};
  ASSERT_TRUE(repo.summary(cpu).has_value());
  EXPECT_GT(repo.summary(cpu)->sum, 0.0);
}

TEST(Presentation, ReportsRenderWithoutCrashing) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 5); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  MetricRepository repo;
  MeasurementSpec spec;
  SessionCollector collector(repo, session, spec);
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(8000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::seconds(1));
  const auto conn = render_connection_report(repo, world.host(0).node_id(), session.id());
  EXPECT_NE(conn.find("pdu.sent"), std::string::npos);
  const auto host = render_host_report(repo, world.host(0).node_id());
  EXPECT_NE(host.find("pdu.sent"), std::string::npos);
  const auto csv = series_to_csv(
      repo, MetricKey{world.host(0).node_id(), session.id(), metrics::kThroughputBps});
  EXPECT_NE(csv.find("when_ns,value"), std::string::npos);
  EXPECT_GT(csv.size(), 20u);
}

TEST(Collectors, MatchesFilterPredicate) {
  EXPECT_TRUE(SessionCollector::matches_filter("anything.at.all", {}));
  EXPECT_TRUE(SessionCollector::matches_filter("connection.throughput", {"connection."}));
  EXPECT_FALSE(SessionCollector::matches_filter("reliability.retx", {"connection."}));
  EXPECT_TRUE(
      SessionCollector::matches_filter("reliability.retx", {"connection.", "reliability."}));
  EXPECT_FALSE(SessionCollector::matches_filter("conn", {"connection."}));  // shorter than prefix
}

TEST(Collectors, DetachIsIdempotent) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 5); });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  MetricRepository repo;
  SessionCollector collector(repo, session, MeasurementSpec{});
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(2000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::milliseconds(200));
  collector.detach();
  const auto samples_after_detach = repo.total_samples();
  collector.detach();  // second detach must be a no-op, not a crash
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(2000, 1),
                                        &world.host(0).buffers()));
  world.run_for(sim::SimTime::milliseconds(200));
  EXPECT_EQ(repo.total_samples(), samples_after_detach);
}

TEST(Histogram, EmptyAndSingleSample) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.add(42.0);
  EXPECT_EQ(h.count(), 1u);
  // With one sample every percentile collapses to that sample.
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p999(), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, PercentilesOrderedAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p999(), h.max());
  // Log buckets bound relative error to ~1/kSubBucketsPerOctave.
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.15);
}

TEST(Histogram, MergeIsLossless) {
  Histogram a, b;
  for (int i = 0; i < 500; ++i) a.add(1.0 + i);
  for (int i = 0; i < 500; ++i) b.add(2000.0 + i);
  Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), 1000u);
  EXPECT_DOUBLE_EQ(merged.min(), a.min());
  EXPECT_DOUBLE_EQ(merged.max(), b.max());
  EXPECT_GT(merged.p90(), a.max());  // upper decile lives in b's range
}

TEST(Histogram, InfinityLandsInTheTopBucket) {
  Histogram inf;
  Histogram huge;
  inf.add(std::numeric_limits<double>::infinity());
  huge.add(std::numeric_limits<double>::max());
  const auto a = inf.nonzero_buckets();
  const auto b = huge.nonzero_buckets();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].lower, b[0].lower);
  EXPECT_EQ(a[0].upper, b[0].upper);
  EXPECT_EQ(a[0].upper, std::ldexp(1.0, 64));  // the top bucket's upper edge
  EXPECT_EQ(inf.max(), std::numeric_limits<double>::infinity());
}

/// Oracle for the range-stored Histogram: the dense layout it replaced,
/// one counter per bucket from bucket 0 up to the highest occupied one,
/// with the bucket formulas restated.
struct DenseHistogram {
  static constexpr int kFloor = 64;
  static constexpr int kCeil = 64;
  static constexpr std::size_t kSub = Histogram::kSubBucketsPerOctave;

  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  static std::size_t index(double v) {
    if (!(v > 0.0)) return 0;
    if (std::isinf(v)) return (kFloor + kCeil + 1) * kSub;
    int exp = 0;
    const double m = std::frexp(v, &exp);
    exp = std::clamp(exp, -kFloor, kCeil);
    const auto sub = static_cast<std::size_t>((m - 0.5) * 2.0 * static_cast<double>(kSub));
    return 1 + static_cast<std::size_t>(exp + kFloor) * kSub + std::min(sub, kSub - 1);
  }
  /// Bucket `i`'s lower edge (`step` 0) or upper edge (`step` 1).
  static double edge(std::size_t i, double step) {
    if (i == 0) return 0.0;
    const int exp = static_cast<int>((i - 1) / kSub) - kFloor;
    const double sub = static_cast<double>((i - 1) % kSub) + step;
    return std::ldexp(0.5 + sub * 0.5 / static_cast<double>(kSub), exp);
  }

  void fold(double lo, double hi) {
    min = count == 0 ? lo : std::min(min, lo);
    max = count == 0 ? hi : std::max(max, hi);
  }
  void add(double v) {
    const std::size_t i = index(v);
    if (i >= buckets.size()) buckets.resize(i + 1, 0);
    ++buckets[i];
    fold(v, v);
    ++count;
    sum += v;
  }
  void merge(const DenseHistogram& o) {
    if (o.count == 0) return;
    if (o.buckets.size() > buckets.size()) buckets.resize(o.buckets.size(), 0);
    for (std::size_t i = 0; i < o.buckets.size(); ++i) buckets[i] += o.buckets[i];
    fold(o.min, o.max);
    count += o.count;
    sum += o.sum;
  }
  double percentile(double p) const {
    if (count == 0) return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double target = p / 100.0 * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += buckets[i];
      if (static_cast<double>(cumulative) >= target) {
        const double frac =
            std::clamp((target - before) / static_cast<double>(buckets[i]), 0.0, 1.0);
        return std::clamp(edge(i, 0.0) + frac * (edge(i, 1.0) - edge(i, 0.0)), min, max);
      }
    }
    return max;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Count every disagreement between `h` and the dense oracle `d`,
/// reporting the first few.
std::size_t diff_against_dense(const Histogram& h, const DenseHistogram& d) {
  std::size_t bad = 0;
  auto check = [&](bool ok, const char* what, double p) {
    if (!ok && ++bad <= 5) ADD_FAILURE() << what << " differs (p=" << p << ")";
  };
  const double empty_min = d.count == 0 ? 0.0 : d.min;
  const double empty_max = d.count == 0 ? 0.0 : d.max;
  check(h.count() == d.count, "count", 0);
  check(same_bits(h.sum(), d.sum), "sum", 0);
  check(same_bits(h.min(), empty_min), "min", 0);
  check(same_bits(h.max(), empty_max), "max", 0);
  for (int i = 0; i <= 1000; ++i) {
    const double p = i / 10.0;
    check(same_bits(h.percentile(p), d.percentile(p)), "percentile", p);
  }
  const auto got = h.nonzero_buckets();
  std::size_t k = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] == 0) continue;
    const bool ok = k < got.size() && same_bits(got[k].lower, DenseHistogram::edge(i, 0.0)) &&
                    same_bits(got[k].upper, DenseHistogram::edge(i, 1.0)) &&
                    got[k].count == d.buckets[i];
    check(ok, "bucket", static_cast<double>(i));
    ++k;
  }
  check(k == got.size(), "bucket count", 0);
  return bad;
}

TEST(Histogram, RangeStorageMatchesDenseReferenceBitForBit) {
  std::mt19937_64 rng(0x4157'0c0d'e5eeull);
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             -1.0,
                             -1e300,
                             std::numeric_limits<double>::quiet_NaN(),
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             1e300,
                             0x1p-64,
                             0x1p-65,
                             0x1p63,
                             0x1p64,
                             0.5,
                             1.0};
  // Leaves fill from one of four sources, so their ranges overlap, nest
  // and lie apart: any bit pattern (every exponent, NaN payloads,
  // subnormals, ±inf), a narrow octave band, the specials, or ns-scale
  // latencies.
  auto draw = [&](int source, int band) -> double {
    switch (source) {
      case 0: return std::bit_cast<double>(rng());
      case 1: {
        const double m = 0.5 + static_cast<double>(rng() >> 11) * 0x1p-54;
        return std::ldexp(m, band + static_cast<int>(rng() % 5) - 2);
      }
      case 2: return specials[rng() % std::size(specials)];
      default: return static_cast<double>(rng() % 10'000'000'000ull);
    }
  };
  std::vector<std::pair<Histogram, DenseHistogram>> nodes;
  std::size_t values = 0;
  while (values < 200'000) {
    auto& [h, d] = nodes.emplace_back();
    const int source = static_cast<int>(rng() % 4);
    const int band = static_cast<int>(rng() % 2200) - 1100;
    const std::size_t n = rng() % 8 == 0 ? 0 : 1 + rng() % 6000;  // some leaves stay empty
    for (std::size_t i = 0; i < n; ++i) {
      const double v = draw(source, band);
      h.add(v);
      d.add(v);
    }
    values += n;
    ASSERT_EQ(diff_against_dense(h, d), 0u);
  }
  // Merge random pairs until one tree remains, checking every inner node.
  while (nodes.size() > 1) {
    const std::size_t i = rng() % nodes.size();
    std::size_t j = rng() % (nodes.size() - 1);
    if (j >= i) ++j;
    nodes[i].first.merge(nodes[j].first);
    nodes[i].second.merge(nodes[j].second);
    ASSERT_EQ(diff_against_dense(nodes[i].first, nodes[i].second), 0u);
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(j));
  }
  EXPECT_GE(nodes[0].first.count(), 200'000u);
  // clear() leaves nothing behind that a later add could see.
  nodes[0].first.clear();
  DenseHistogram fresh;
  for (const double v : specials) {
    nodes[0].first.add(v);
    fresh.add(v);
  }
  EXPECT_EQ(diff_against_dense(nodes[0].first, fresh), 0u);
}

TEST(Trace, RingWraparoundKeepsNewestEvents) {
  TraceRecorder rec;
  rec.enable(/*capacity=*/8);
  EXPECT_TRUE(rec.enabled());
  for (int i = 0; i < 20; ++i) {
    rec.instant(TraceCategory::kTko, "tko.test", sim::SimTime::nanoseconds(i), 1, 7,
                static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.emitted(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first order, holding the 8 most recent values 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(12 + i));
  }
  rec.disable();
  rec.instant(TraceCategory::kTko, "tko.ignored", sim::SimTime::zero());
  EXPECT_EQ(rec.emitted(), 20u);  // disabled emits are free and unrecorded
}

TEST(Trace, ChromeTraceExportIsWellFormed) {
  TraceRecorder rec;
  rec.enable(16);
  rec.instant(TraceCategory::kMantts, "mantts.open", sim::SimTime::microseconds(5), 2, 3, 1.0,
              "explicit");
  rec.span(TraceCategory::kNet, "net.tx", sim::SimTime::microseconds(10),
           sim::SimTime::microseconds(2), 2, 0, 1024.0);
  std::ostringstream out;
  write_chrome_trace(out, rec);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("mantts.open"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(Trace, MetricsJsonlCarriesPercentiles) {
  MetricRepository repo;
  const MetricKey key{3, 9, metrics::kLatencyNs};
  for (int i = 1; i <= 200; ++i) {
    repo.record(key, sim::SimTime::milliseconds(i), 1e6 + i * 1e3);
  }
  std::ostringstream out;
  write_metrics_jsonl(out, repo);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"name\":\"latency.ns\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"p50\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\":"), std::string::npos);
  const Histogram* h = repo.histogram(key);
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->p50(), 0.0);
}

TEST(Trace, EchoRoutesThroughLoggerSink) {
  std::vector<std::string> captured;
  sim::Logger::set_level(sim::LogLevel::kTrace);
  sim::Logger::set_sink([&](const std::string& line) { captured.push_back(line); });

  TraceRecorder rec;
  rec.enable(8);
  rec.set_echo(true);
  rec.instant(TraceCategory::kApp, "app.deliver", sim::SimTime::milliseconds(3), 1, 4, 88.0);
  rec.set_echo(false);
  rec.instant(TraceCategory::kApp, "app.deliver", sim::SimTime::milliseconds(4), 1, 4, 99.0);

  sim::Logger::set_sink(nullptr);
  sim::Logger::set_level(sim::LogLevel::kOff);

  ASSERT_EQ(captured.size(), 1u);  // only the echoed event reached the sink
  EXPECT_NE(captured[0].find("unites.trace"), std::string::npos);
  EXPECT_NE(captured[0].find("app.deliver"), std::string::npos);
  EXPECT_NE(captured[0].find("TRACE"), std::string::npos);
  EXPECT_EQ(rec.size(), 2u);  // both events still recorded regardless of echo
}

// ---------------------------------------------------------------------------
// Golden exports: exact bytes of every exporter on hand-built inputs. The
// inputs cover integral and fractional values, -0, +-inf, NaN, the 1e9 and
// 1e-5 boundaries of %.9g, a subnormal, sub-microsecond timestamps, null
// and non-null details, names that need escaping, and spans with missing
// milestones and retransmissions.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kSubnormal = std::numeric_limits<double>::denorm_min();

std::vector<TraceEvent> golden_events() {
  using sim::SimTime;
  using C = TraceCategory;
  return {
      {SimTime(1234567), SimTime::zero(), "tko.submit", nullptr, C::kTko, 3, 7, 42.0},
      {SimTime(1000), SimTime(1500), "net.tx", "wire", C::kNet, 1, 0, 1.5},
      {SimTime(0), SimTime::zero(), "quote\"name", "back\\slash", C::kMantts, 2, 1, -0.0},
      {SimTime(999), SimTime(1), "line\nbreak", "tab\tdetail", C::kApp, 3, 2, 999999999.0},
      {SimTime(1000001), SimTime::zero(), "ctl\x01name", "ctl\x1f", C::kSim, 0, 0, 1e9},
      {SimTime(5), SimTime::zero(), "tko.rto", nullptr, C::kTko, 2, 5, 1e-5},
      {SimTime(6), SimTime::zero(), "tiny", nullptr, C::kConformance, 2, 5, 9.99999999e-6},
      {SimTime(7), SimTime::zero(), "subnormal", nullptr, C::kTko, 1, 0, kSubnormal},
      {SimTime(8), SimTime(123456789012345), "inf", "+", C::kNet, 4, 9, kInf},
      {SimTime(9), SimTime::zero(), "-inf", nullptr, C::kNet, 4, 9, -kInf},
      {SimTime(10), SimTime::zero(), "nan", nullptr, C::kNet, 4, 9, kNaN},
      {SimTime(11), SimTime::zero(), "-nan", nullptr, C::kNet, 4, 9, -kNaN},
      {SimTime(123456789012345), SimTime::zero(), "frac", nullptr, C::kApp, 3, 7,
       123456789.125},
      {SimTime(13), SimTime::zero(), "third", nullptr, C::kApp, 3, 7, 1.0 / 3.0},
      {SimTime(14), SimTime::zero(), "big", nullptr, C::kApp, 3, 7, 6.02214076e23},
      {SimTime(15), SimTime::zero(), "neg", nullptr, C::kApp, 3, 7, -999999999.0},
      {SimTime(16), SimTime::zero(), "packed", nullptr, C::kTko, 3, 7, pack_unit_seq(3, 4)},
  };
}

std::vector<MessageSpan> golden_spans() {
  MessageSpan full;  // every milestone, retransmitted, played out
  full.seed = 7;
  full.unit = 1;
  full.session = 3;
  full.src = 2;
  full.submit_ns = 1000;
  full.enqueue_ns = 1500;
  full.first_tx_ns = 2001;
  full.last_tx_ns = 9999;
  full.segments = 2;
  full.retx = 2;
  full.deliver_ns = 12345678;
  full.playout_ns = 20000000;
  MessageSpan open;  // submitted, never sent
  open.seed = 7;
  open.unit = 2;
  open.session = 3;
  open.src = 2;
  open.submit_ns = 3000;
  MessageSpan receiver_only;  // ring wrapped past the sender's milestones
  receiver_only.seed = std::numeric_limits<std::uint64_t>::max();
  receiver_only.unit = std::numeric_limits<std::uint32_t>::max();
  receiver_only.session = 4;
  receiver_only.deliver_ns = 1000001;
  MessageSpan sent;  // sent once, never delivered
  sent.seed = 8;
  sent.unit = 5;
  sent.session = 6;
  sent.src = 1;
  sent.submit_ns = 0;
  sent.enqueue_ns = 1;
  sent.first_tx_ns = 2;
  sent.last_tx_ns = 2;
  sent.segments = 1;
  return {full, open, receiver_only, sent};
}

Timeline golden_timeline() {
  const auto point = [](std::int64_t t, std::uint64_t seed, net::NodeId host,
                        std::uint32_t conn, std::string name, double v) {
    TimelinePoint p;
    p.when = sim::SimTime(t);
    p.seed = seed;
    p.host = host;
    p.connection = conn;
    p.name = std::move(name);
    p.value = v;
    return p;
  };
  return {
      point(0, 1, 0, 0, "mem.pool_live_bytes", 4096.0),
      point(100000001, 1, 2, 7, "mem.session_live_bytes", -0.0),
      point(1500, 2, 1, 0, "quote\"back\\slash", 1e9),
      point(1, 3, 1, 0, "line\nbreak\ttab\x01", 999999999.0),
      point(2, 18446744073709551615ull, 3, 4, "qos.budget", 1e-5),
      point(3, 4, 3, 4, "qos.burn", kSubnormal),
      point(4, 4, 3, 4, "qos.inf", kInf),
      point(5, 4, 3, 4, "qos.-inf", -kInf),
      point(6, 4, 3, 4, "qos.nan", kNaN),
      point(7, 4, 3, 4, "qos.frac", 0.1),
  };
}

MetricRepository golden_repo() {
  MetricRepository repo;
  const MetricKey bytes{1, 0, metrics::kDeliveredBytes};
  const MetricKey latency{2, 5, metrics::kLatencyNs};
  const MetricKey odd{0, 0, "quote\"metric\\name"};
  repo.record(bytes, sim::SimTime(10), 1500.0);
  repo.record(bytes, sim::SimTime(20), 512.0);
  repo.record(latency, sim::SimTime(30), 1e-5);
  repo.record(latency, sim::SimTime(40), 999999999.0);
  repo.record(latency, sim::SimTime(50), 1e9);
  repo.record(latency, sim::SimTime(60), 123.456);
  repo.record(odd, sim::SimTime(70), -0.0, MetricClass::kWhitebox);
  repo.record(odd, sim::SimTime(80), kSubnormal, MetricClass::kWhitebox);
  return repo;
}

Histogram golden_histogram() {
  Histogram h;
  for (const double v : {1.0, 2.5, 1e-5, 999999999.0, 1e9, 0.0, 1234.5678}) h.add(v);
  return h;
}

SessionConformance golden_conformance() {
  SessionConformance c;
  c.contract.session = 9;
  c.contract.host = 2;
  c.registrations = 2;
  c.health = ContractHealth::kBreached;
  c.time_in_contract = 2.0 / 3.0;
  c.budget_consumed = 6.67;
  c.fast_burn = kInf;
  c.slow_burn = kNaN;
  c.breaches = 1;
  c.first_breach_ns = 750000000;
  c.qoe = -0.0;
  c.units_sent = 500;
  c.windows_bad = 1;
  WindowVerdict good;
  good.start_ns = 0;
  good.end_ns = 250000000;
  good.stats.delivered = 10;
  good.stats.sum_latency_ns = 10 * 1234567.0;
  good.stats.sum_sq_latency_ns = 10 * 1234567.0 * 1234567.0 + 4e10;
  good.stats.bytes = 1000;
  good.stats.span_ns = 3;
  WindowVerdict bad;
  bad.start_ns = 250000000;
  bad.end_ns = 400000001;
  bad.stats.lost = 3;
  bad.stats.late = 1;
  bad.stats.bytes = 160;
  bad.stats.span_ns = 150000001;
  bad.latency_ok = false;
  c.windows = {good, bad};
  return c;
}

ProfileTree golden_profile() {
  ProfileNode send{"tko.transport.send", 12, 3400, 77, {}};
  send.children.push_back(ProfileNode{"reliability.gbn", 5, 100, 8, {}});
  ProfileNode quoted{"zone\"q\\", 1, 0, 0, {}};
  ProfileTree tree;
  tree.roots.push_back(ProfileNode{"session/0", 0, 0, 0, {quoted}});
  tree.roots.push_back(ProfileNode{"session/3", 0, 0, 0, {send}});
  return tree;
}

ResourceSnapshot golden_resource() {
  ResourceSnapshot snap;
  snap.when = sim::SimTime(3000000001);
  HostPoolResource a;
  a.host = 4;
  a.pool = os::BufferPoolStats{10, 5120, 9, 4096, 1024, 2048, 3, 777,
                               std::numeric_limits<std::uint64_t>::max()};
  snap.hosts = {a, HostPoolResource{}};
  snap.sessions = {{4, 2, 100, 900}, {0, std::numeric_limits<std::uint32_t>::max(), 0, 1}};
  return snap;
}

FlightBundle golden_bundle() {
  FlightBundle b;
  b.seed = 42;
  b.reason = "invariant-violation";
  b.violations.push_back({"no-silent-loss", "unit 3 \"lost\"\n", "reliability.gbn"});
  b.violations.push_back({"in-order", "", "sequencing"});
  b.session_config = "cfg\twith tab";
  b.context = "ctx\\";
  b.chaos_plan = "flap@1";
  b.metrics_jsonl = "{\"a\":1}\n\n{\"b\":2.5}\n";
  b.conformance_json = golden_conformance().to_json();
  b.trace = golden_events();
  const auto spans = golden_spans();
  b.open_spans = {spans[1], spans[3]};
  b.spans_total = spans.size();
  b.profile = golden_profile();
  return b;
}

constexpr const char* kGoldenChromeTrace =
    R"g({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":0,"name":"process_name",)g"
    R"g("args":{"name":"node 0"}},)g"
    R"g({"ph":"M","pid":1,"name":"process_name","args":{"name":"node 1"}},)g"
    R"g({"ph":"M","pid":2,"name":"process_name","args":{"name":"node 2"}},)g"
    R"g({"ph":"M","pid":3,"name":"process_name","args":{"name":"node 3"}},)g"
    R"g({"ph":"M","pid":4,"name":"process_name","args":{"name":"node 4"}},)g"
    R"g({"name":"tko.submit","cat":"tko","pid":3,"tid":7,"ts":1234.567,"ph":"i","s":"t",)g"
    R"g("args":{"value":42}},)g"
    R"g({"name":"net.tx","cat":"net","pid":1,"tid":0,"ts":1,"ph":"X","dur":1.5,)g"
    R"g("args":{"value":1.5,"detail":"wire"}},)g"
    R"g({"name":"quote\"name","cat":"mantts","pid":2,"tid":1,"ts":0,"ph":"i","s":"t",)g"
    R"g("args":{"value":-0,"detail":"back\\slash"}},)g"
    R"g({"name":"line\nbreak","cat":"app","pid":3,"tid":2,"ts":0.999,"ph":"X","dur":0.001,)g"
    R"g("args":{"value":999999999,"detail":"tab\tdetail"}},)g"
    R"g({"name":"ctl\u0001name","cat":"sim","pid":0,"tid":0,"ts":1000.001,"ph":"i","s":"t",)g"
    R"g("args":{"value":1e+09,"detail":"ctl\u001f"}},)g"
    R"g({"name":"tko.rto","cat":"tko","pid":2,"tid":5,"ts":0.005,"ph":"i","s":"t",)g"
    R"g("args":{"value":1e-05}},)g"
    R"g({"name":"tiny","cat":"conformance","pid":2,"tid":5,"ts":0.006,"ph":"i","s":"t",)g"
    R"g("args":{"value":9.99999999e-06}},)g"
    R"g({"name":"subnormal","cat":"tko","pid":1,"tid":0,"ts":0.007,"ph":"i","s":"t",)g"
    R"g("args":{"value":4.94065646e-324}},)g"
    R"g({"name":"inf","cat":"net","pid":4,"tid":9,"ts":0.008,"ph":"X","dur":1.23456789e+11,)g"
    R"g("args":{"value":inf,"detail":"+"}},)g"
    R"g({"name":"-inf","cat":"net","pid":4,"tid":9,"ts":0.009,"ph":"i","s":"t",)g"
    R"g("args":{"value":-inf}},)g"
    R"g({"name":"nan","cat":"net","pid":4,"tid":9,"ts":0.01,"ph":"i","s":"t",)g"
    R"g("args":{"value":nan}},)g"
    R"g({"name":"-nan","cat":"net","pid":4,"tid":9,"ts":0.011,"ph":"i","s":"t",)g"
    R"g("args":{"value":-nan}},)g"
    R"g({"name":"frac","cat":"app","pid":3,"tid":7,"ts":1.23456789e+11,"ph":"i","s":"t",)g"
    R"g("args":{"value":123456789}},)g"
    R"g({"name":"third","cat":"app","pid":3,"tid":7,"ts":0.013,"ph":"i","s":"t",)g"
    R"g("args":{"value":0.333333333}},)g"
    R"g({"name":"big","cat":"app","pid":3,"tid":7,"ts":0.014,"ph":"i","s":"t",)g"
    R"g("args":{"value":6.02214076e+23}},)g"
    R"g({"name":"neg","cat":"app","pid":3,"tid":7,"ts":0.015,"ph":"i","s":"t",)g"
    R"g("args":{"value":-999999999}},)g"
    R"g({"name":"packed","cat":"tko","pid":3,"tid":7,"ts":0.016,"ph":"i","s":"t",)g"
    R"g("args":{"value":1.28849019e+10}}]})g" "\n";

constexpr const char* kGoldenChromeTraceRecorder =
    R"g({"displayTimeUnit":"ms","traceEvents":[{"ph":"M","pid":3,"name":"process_name",)g"
    R"g("args":{"name":"node 3"}},)g"
    R"g({"ph":"M","pid":4,"name":"process_name","args":{"name":"node 4"}},)g"
    R"g({"name":"-inf","cat":"net","pid":4,"tid":9,"ts":0.009,"ph":"i","s":"t",)g"
    R"g("args":{"value":-inf}},)g"
    R"g({"name":"nan","cat":"net","pid":4,"tid":9,"ts":0.01,"ph":"i","s":"t",)g"
    R"g("args":{"value":nan}},)g"
    R"g({"name":"-nan","cat":"net","pid":4,"tid":9,"ts":0.011,"ph":"i","s":"t",)g"
    R"g("args":{"value":-nan}},)g"
    R"g({"name":"frac","cat":"app","pid":3,"tid":7,"ts":1.23456789e+11,"ph":"i","s":"t",)g"
    R"g("args":{"value":123456789}},)g"
    R"g({"name":"third","cat":"app","pid":3,"tid":7,"ts":0.013,"ph":"i","s":"t",)g"
    R"g("args":{"value":0.333333333}},)g"
    R"g({"name":"big","cat":"app","pid":3,"tid":7,"ts":0.014,"ph":"i","s":"t",)g"
    R"g("args":{"value":6.02214076e+23}},)g"
    R"g({"name":"neg","cat":"app","pid":3,"tid":7,"ts":0.015,"ph":"i","s":"t",)g"
    R"g("args":{"value":-999999999}},)g"
    R"g({"name":"packed","cat":"tko","pid":3,"tid":7,"ts":0.016,"ph":"i","s":"t",)g"
    R"g("args":{"value":1.28849019e+10}}]})g" "\n";

constexpr const char* kGoldenChromeTraceEmpty =
    R"g({"displayTimeUnit":"ms","traceEvents":[]})g" "\n";

constexpr const char* kGoldenSpansChrome =
    R"g({"displayTimeUnit":"ms","traceEvents":[{"ph":"b","cat":"msg","id":"s7.u1",)g"
    R"g("name":"msg","pid":2,"tid":3,"ts":1},)g"
    R"g({"ph":"n","cat":"msg","id":"s7.u1","name":"enqueue","pid":2,"tid":3,"ts":1.5,)g"
    R"g("args":{"unit":1,"retx":2}},)g"
    R"g({"ph":"n","cat":"msg","id":"s7.u1","name":"tx","pid":2,"tid":3,"ts":2.001,)g"
    R"g("args":{"unit":1,"retx":2}},)g"
    R"g({"ph":"n","cat":"msg","id":"s7.u1","name":"retx","pid":2,"tid":3,"ts":9.999,)g"
    R"g("args":{"unit":1,"retx":2}},)g"
    R"g({"ph":"n","cat":"msg","id":"s7.u1","name":"deliver","pid":2,"tid":3,"ts":12345.678,)g"
    R"g("args":{"unit":1,"retx":2}},)g"
    R"g({"ph":"n","cat":"msg","id":"s7.u1","name":"playout","pid":2,"tid":3,"ts":20000,)g"
    R"g("args":{"unit":1,"retx":2}},)g"
    R"g({"ph":"e","cat":"msg","id":"s7.u1","name":"msg","pid":2,"tid":3,"ts":20000},)g"
    R"g({"ph":"b","cat":"msg","id":"s7.u2","name":"msg","pid":2,"tid":3,"ts":3},)g"
    R"g({"ph":"e","cat":"msg","id":"s7.u2","name":"msg","pid":2,"tid":3,"ts":3},)g"
    R"g({"ph":"b","cat":"msg","id":"s18446744073709551615.u4294967295","name":"msg","pid":0,)g"
    R"g("tid":4,"ts":1000.001},)g"
    R"g({"ph":"n","cat":"msg","id":"s18446744073709551615.u4294967295","name":"deliver",)g"
    R"g("pid":0,"tid":4,"ts":1000.001,"args":{"unit":4294967295,"retx":0}},)g"
    R"g({"ph":"e","cat":"msg","id":"s18446744073709551615.u4294967295","name":"msg","pid":0,)g"
    R"g("tid":4,"ts":1000.001},)g"
    R"g({"ph":"b","cat":"msg","id":"s8.u5","name":"msg","pid":1,"tid":6,"ts":0},)g"
    R"g({"ph":"n","cat":"msg","id":"s8.u5","name":"enqueue","pid":1,"tid":6,"ts":0.001,)g"
    R"g("args":{"unit":5,"retx":0}},)g"
    R"g({"ph":"n","cat":"msg","id":"s8.u5","name":"tx","pid":1,"tid":6,"ts":0.002,)g"
    R"g("args":{"unit":5,"retx":0}},)g"
    R"g({"ph":"e","cat":"msg","id":"s8.u5","name":"msg","pid":1,"tid":6,"ts":0.002}]})g" "\n";

constexpr const char* kGoldenSpanJson =
    R"g({"seed":7,"unit":1,"session":3,"src":2,"submit_ns":1000,"enqueue_ns":1500,)g"
    R"g("first_tx_ns":2001,"last_tx_ns":9999,"segments":2,"retx":2,"deliver_ns":12345678,)g"
    R"g("playout_ns":20000000,"open":false})g" "\n"
    R"g({"seed":7,"unit":2,"session":3,"src":2,"submit_ns":3000,"enqueue_ns":-1,)g"
    R"g("first_tx_ns":-1,"last_tx_ns":-1,"segments":0,"retx":0,"deliver_ns":-1,)g"
    R"g("playout_ns":-1,"open":true})g" "\n"
    R"g({"seed":18446744073709551615,"unit":4294967295,"session":4,"src":0,"submit_ns":-1,)g"
    R"g("enqueue_ns":-1,"first_tx_ns":-1,"last_tx_ns":-1,"segments":0,"retx":0,)g"
    R"g("deliver_ns":1000001,"playout_ns":-1,"open":false})g" "\n"
    R"g({"seed":8,"unit":5,"session":6,"src":1,"submit_ns":0,"enqueue_ns":1,"first_tx_ns":2,)g"
    R"g("last_tx_ns":2,"segments":1,"retx":0,"deliver_ns":-1,"playout_ns":-1,"open":true})g" "\n";

constexpr const char* kGoldenTimelineJsonl =
    R"g({"t":0,"seed":1,"host":0,"connection":0,"name":"mem.pool_live_bytes","value":4096})g" "\n"
    R"g({"t":100000001,"seed":1,"host":2,"connection":7,"name":"mem.session_live_bytes",)g"
    R"g("value":-0})g" "\n"
    R"g({"t":1500,"seed":2,"host":1,"connection":0,"name":"quote\"back\\slash",)g"
    R"g("value":1e+09})g" "\n"
    R"g({"t":1,"seed":3,"host":1,"connection":0,"name":"line\nbreak\ttab\u0001",)g"
    R"g("value":999999999})g" "\n"
    R"g({"t":2,"seed":18446744073709551615,"host":3,"connection":4,"name":"qos.budget",)g"
    R"g("value":1e-05})g" "\n"
    R"g({"t":3,"seed":4,"host":3,"connection":4,"name":"qos.burn","value":4.94065646e-324})g" "\n"
    R"g({"t":4,"seed":4,"host":3,"connection":4,"name":"qos.inf","value":inf})g" "\n"
    R"g({"t":5,"seed":4,"host":3,"connection":4,"name":"qos.-inf","value":-inf})g" "\n"
    R"g({"t":6,"seed":4,"host":3,"connection":4,"name":"qos.nan","value":nan})g" "\n"
    R"g({"t":7,"seed":4,"host":3,"connection":4,"name":"qos.frac","value":0.1})g" "\n";

constexpr const char* kGoldenTimelineChrome =
    R"g({"traceEvents":[{"name":"mem.pool_live_bytes","cat":"resource","ph":"C","pid":0,)g"
    R"g("tid":0,"ts":0,"args":{"value":4096}},)g"
    R"g({"name":"mem.session_live_bytes","cat":"resource","ph":"C","pid":2,"tid":7,)g"
    R"g("ts":100000.001,"args":{"value":-0}},)g"
    R"g({"name":"quote\"back\\slash","cat":"resource","ph":"C","pid":1,"tid":0,"ts":1.5,)g"
    R"g("args":{"value":1e+09}},)g"
    R"g({"name":"line\nbreak\ttab\u0001","cat":"resource","ph":"C","pid":1,"tid":0,)g"
    R"g("ts":0.001,"args":{"value":999999999}},)g"
    R"g({"name":"qos.budget","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.002,)g"
    R"g("args":{"value":1e-05}},)g"
    R"g({"name":"qos.burn","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.003,)g"
    R"g("args":{"value":4.94065646e-324}},)g"
    R"g({"name":"qos.inf","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.004,)g"
    R"g("args":{"value":inf}},)g"
    R"g({"name":"qos.-inf","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.005,)g"
    R"g("args":{"value":-inf}},)g"
    R"g({"name":"qos.nan","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.006,)g"
    R"g("args":{"value":nan}},)g"
    R"g({"name":"qos.frac","cat":"resource","ph":"C","pid":3,"tid":4,"ts":0.007,)g"
    R"g("args":{"value":0.1}}]})g" "\n";

constexpr const char* kGoldenMetricsJsonl =
    R"g({"host":0,"connection":0,"name":"quote\"metric\\name","class":"whitebox","count":2,)g"
    R"g("sum":4.94065646e-324,"min":-0,"max":4.94065646e-324,"last":4.94065646e-324,)g"
    R"g("mean":0,"p50":0,"p90":4.94065646e-324,"p99":4.94065646e-324,"p999":4.94065646e-324})g" "\n"
    R"g({"host":1,"connection":0,"name":"data.delivered_bytes","class":"whitebox","count":2,)g"
    R"g("sum":2012,"min":512,"max":1500,"last":512,"mean":1006,"p50":576,"p90":1500,)g"
    R"g("p99":1500,"p999":1500})g" "\n"
    R"g({"host":2,"connection":5,"name":"latency.ns","class":"blackbox","count":4,)g"
    R"g("sum":2.00000012e+09,"min":1e-05,"max":1e+09,"last":123.456,"mean":500000031,)g"
    R"g("p50":128,"p90":993211187,"p99":1e+09,"p999":1e+09})g" "\n";

constexpr const char* kGoldenHistogramJson =
    R"g({"count":7,"sum":2.00000124e+09,"min":0,"max":1e+09,"mean":285714462,"p50":2.625,)g"
    R"g("p90":983144858,"p99":1e+09,"p999":1e+09})g" "\n"
    R"g({"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"p999":0})g";

constexpr const char* kGoldenConformanceJson =
    R"g({"session":9,"host":2,"registrations":2,"health":"breached",)g"
    R"g("time_in_contract":0.666666667,"budget_consumed":6.67,"fast_burn":inf,)g"
    R"g("slow_burn":nan,"breaches":1,"recoveries":0,"first_breach_ns":750000000,"qoe":-0,)g"
    R"g("units_sent":500,"windows_bad":1,"windows":[{"start_ns":0,"end_ns":250000000,)g"
    R"g("ok":true,"delivered":10,"lost":0,"late":0,"mean_latency_ns":1234567,)g"
    R"g("jitter_ns":63245,"throughput_bps":2.66666667e+12},)g"
    R"g({"start_ns":250000000,"end_ns":400000001,"ok":false,"worst":"latency","delivered":0,)g"
    R"g("lost":3,"late":1,"mean_latency_ns":0,"jitter_ns":0,"throughput_bps":8533.33328}]})g" "\n"
    R"g({"session":0,"host":0,"registrations":0,"health":"none","time_in_contract":1,)g"
    R"g("budget_consumed":0,"fast_burn":0,"slow_burn":0,"breaches":0,"recoveries":0,)g"
    R"g("first_breach_ns":-1,"qoe":1,"units_sent":0,"windows_bad":0,"windows":[]})g";

constexpr const char* kGoldenResourceJson =
    R"g({"when_ns":3000000001,"hosts":[{"host":4,"allocations":10,"allocated_bytes":5120,)g"
    R"g("frees":9,"freed_bytes":4096,"live_bytes":1024,"high_water_bytes":2048,"copies":3,)g"
    R"g("copied_bytes":777,"wasted_bytes":18446744073709551615},)g"
    R"g({"host":0,"allocations":0,"allocated_bytes":0,"frees":0,"freed_bytes":0,"live_bytes":0,)g"
    R"g("high_water_bytes":0,"copies":0,"copied_bytes":0,"wasted_bytes":0}],)g"
    R"g("sessions":[{"host":4,"session":2,"live_bytes":100,"high_water_bytes":900},)g"
    R"g({"host":0,"session":4294967295,"live_bytes":0,"high_water_bytes":1}]})g" "\n"
    R"g({"when_ns":0,"hosts":[],"sessions":[]})g";

constexpr const char* kGoldenBundles =
    R"g({"seed":42,"reason":"invariant-violation","violations":[{"rule":"no-silent-loss",)g"
    R"g("zone":"reliability.gbn","detail":"unit 3 \"lost\"\n"},)g"
    R"g({"rule":"in-order","zone":"sequencing","detail":""}],)g"
    R"g("session_config":"cfg\twith tab","context":"ctx\\","fault_plan":"",)g"
    R"g("chaos_plan":"flap@1","counters":[{"a":1},)g"
    R"g({"b":2.5}],"resource":null,"conformance":{"session":9,"host":2,"registrations":2,)g"
    R"g("health":"breached","time_in_contract":0.666666667,"budget_consumed":6.67,)g"
    R"g("fast_burn":inf,"slow_burn":nan,"breaches":1,"recoveries":0,)g"
    R"g("first_breach_ns":750000000,"qoe":-0,"units_sent":500,"windows_bad":1,)g"
    R"g("windows":[{"start_ns":0,"end_ns":250000000,"ok":true,"delivered":10,"lost":0,)g"
    R"g("late":0,"mean_latency_ns":1234567,"jitter_ns":63245,)g"
    R"g("throughput_bps":2.66666667e+12},)g"
    R"g({"start_ns":250000000,"end_ns":400000001,"ok":false,"worst":"latency","delivered":0,)g"
    R"g("lost":3,"late":1,"mean_latency_ns":0,"jitter_ns":0,"throughput_bps":8533.33328}]},)g"
    R"g("open_spans":[{"seed":7,"unit":2,"session":3,"src":2,"submit_ns":3000,)g"
    R"g("enqueue_ns":-1,"first_tx_ns":-1,"last_tx_ns":-1,"segments":0,"retx":0,)g"
    R"g("deliver_ns":-1,"playout_ns":-1,"open":true},)g"
    R"g({"seed":8,"unit":5,"session":6,"src":1,"submit_ns":0,"enqueue_ns":1,"first_tx_ns":2,)g"
    R"g("last_tx_ns":2,"segments":1,"retx":0,"deliver_ns":-1,"playout_ns":-1,"open":true}],)g"
    R"g("spans_total":4,"profile":{"profile":[{"name":"session/0","calls":0,"sim_ns":0,)g"
    R"g("children":[{"name":"zone\"q\\","calls":1,"sim_ns":0,"children":[]}]},)g"
    R"g({"name":"session/3","calls":0,"sim_ns":0,"children":[{"name":"tko.transport.send",)g"
    R"g("calls":12,"sim_ns":3400,"children":[{"name":"reliability.gbn","calls":5,)g"
    R"g("sim_ns":100,"children":[]}]}]}]},)g"
    R"g("trace":[{"t":1234567,"cat":"tko","name":"tko.submit","node":3,"session":7,)g"
    R"g("value":42},)g"
    R"g({"t":1000,"cat":"net","name":"net.tx","node":1,"session":0,"value":1.5,)g"
    R"g("detail":"wire"},)g"
    R"g({"t":0,"cat":"mantts","name":"quote\"name","node":2,"session":1,"value":-0,)g"
    R"g("detail":"back\\slash"},)g"
    R"g({"t":999,"cat":"app","name":"line\nbreak","node":3,"session":2,"value":999999999,)g"
    R"g("detail":"tab\tdetail"},)g"
    R"g({"t":1000001,"cat":"sim","name":"ctl\u0001name","node":0,"session":0,"value":1e+09,)g"
    R"g("detail":"ctl\u001f"},)g"
    R"g({"t":5,"cat":"tko","name":"tko.rto","node":2,"session":5,"value":1e-05},)g"
    R"g({"t":6,"cat":"conformance","name":"tiny","node":2,"session":5,)g"
    R"g("value":9.99999999e-06},)g"
    R"g({"t":7,"cat":"tko","name":"subnormal","node":1,"session":0,"value":4.94065646e-324},)g"
    R"g({"t":8,"cat":"net","name":"inf","node":4,"session":9,"value":inf,"detail":"+"},)g"
    R"g({"t":9,"cat":"net","name":"-inf","node":4,"session":9,"value":-inf},)g"
    R"g({"t":10,"cat":"net","name":"nan","node":4,"session":9,"value":nan},)g"
    R"g({"t":11,"cat":"net","name":"-nan","node":4,"session":9,"value":-nan},)g"
    R"g({"t":123456789012345,"cat":"app","name":"frac","node":3,"session":7,)g"
    R"g("value":123456789},)g"
    R"g({"t":13,"cat":"app","name":"third","node":3,"session":7,"value":0.333333333},)g"
    R"g({"t":14,"cat":"app","name":"big","node":3,"session":7,"value":6.02214076e+23},)g"
    R"g({"t":15,"cat":"app","name":"neg","node":3,"session":7,"value":-999999999},)g"
    R"g({"t":16,"cat":"tko","name":"packed","node":3,"session":7,"value":1.28849019e+10}]})g" "\n"
    R"g({"seed":1,"reason":"replay","violations":[],"session_config":"","context":"",)g"
    R"g("fault_plan":"","chaos_plan":"","counters":[],"resource":{"when_ns":1},)g"
    R"g("conformance":null,"open_spans":[],"spans_total":0,"profile":{"profile":[]},)g"
    R"g("trace":[]})g" "\n";

constexpr const char* kGoldenSeriesCsv =
    R"g(when_ns,value)g" "\n"
    R"g(-5,0)g" "\n"
    R"g(1000016,-0)g" "\n"
    R"g(-2000047,1e-05)g" "\n"
    R"g(7000142,4.94065646e-324)g" "\n"
    R"g(-20000425,999999999)g" "\n"
    R"g(61001276,1e+09)g" "\n"
    R"g(-182003827,0.1)g" "\n"
    R"g(547011482,nan)g" "\n"
    R"g(-1640034445,-inf)g" "\n"
    R"g(4921103336,123456789)g" "\n"
    R"g(when_ns,value)g" "\n";

constexpr const char* kGoldenProfileCollapsed =
    R"g(session/0;zone"q\ 1)g" "\n"
    R"g(session/3;tko.transport.send 12)g" "\n"
    R"g(session/3;tko.transport.send;reliability.gbn 5)g" "\n";

constexpr const char* kGoldenProfileJson =
    R"g({"profile":[{"name":"session/0","calls":0,"sim_ns":0,"wall_ns":0,)g"
    R"g("children":[{"name":"zone\"q\\","calls":1,"sim_ns":0,"wall_ns":0,"children":[]}]},)g"
    R"g({"name":"session/3","calls":0,"sim_ns":0,"wall_ns":0,)g"
    R"g("children":[{"name":"tko.transport.send","calls":12,"sim_ns":3400,"wall_ns":77,)g"
    R"g("children":[{"name":"reliability.gbn","calls":5,"sim_ns":100,"wall_ns":8,)g"
    R"g("children":[]}]}]}]})g" "\n"
    R"g({"profile":[{"name":"session/0","calls":0,"sim_ns":0,)g"
    R"g("children":[{"name":"zone\"q\\","calls":1,"sim_ns":0,"children":[]}]},)g"
    R"g({"name":"session/3","calls":0,"sim_ns":0,"children":[{"name":"tko.transport.send",)g"
    R"g("calls":12,"sim_ns":3400,"children":[{"name":"reliability.gbn","calls":5,)g"
    R"g("sim_ns":100,"children":[]}]}]}]})g" "\n";

template <class Export>
std::string render(Export&& export_to) {
  std::ostringstream out;
  export_to(out);
  return out.str();
}

TEST(GoldenExport, ChromeTrace) {
  EXPECT_EQ(render([](std::ostream& o) { write_chrome_trace(o, golden_events()); }),
            kGoldenChromeTrace);
  EXPECT_EQ(render([](std::ostream& o) { write_chrome_trace(o, std::vector<TraceEvent>{}); }),
            kGoldenChromeTraceEmpty);
}

TEST(GoldenExport, ChromeTraceFromWrappedRecorder) {
  TraceRecorder rec;
  rec.enable(8);
  for (const auto& e : golden_events()) {
    if (e.duration > sim::SimTime::zero()) {
      rec.span(e.category, e.name, e.when, e.duration, e.node, e.session, e.value, e.detail);
    } else {
      rec.instant(e.category, e.name, e.when, e.node, e.session, e.value, e.detail);
    }
  }
  EXPECT_EQ(render([&](std::ostream& o) { write_chrome_trace(o, rec); }),
            kGoldenChromeTraceRecorder);
}

TEST(GoldenExport, Spans) {
  EXPECT_EQ(render([](std::ostream& o) { write_spans_chrome(o, golden_spans()); }),
            kGoldenSpansChrome);
  std::string json;
  for (const auto& s : golden_spans()) json += span_to_json(s) + "\n";
  EXPECT_EQ(json, kGoldenSpanJson);
}

TEST(GoldenExport, Timeline) {
  EXPECT_EQ(render([](std::ostream& o) { write_timeline_jsonl(o, golden_timeline()); }),
            kGoldenTimelineJsonl);
  EXPECT_EQ(render([](std::ostream& o) { write_timeline_chrome(o, golden_timeline()); }),
            kGoldenTimelineChrome);
}

TEST(GoldenExport, MetricsAndHistogram) {
  EXPECT_EQ(render([](std::ostream& o) { write_metrics_jsonl(o, golden_repo()); }),
            kGoldenMetricsJsonl);
  EXPECT_EQ(histogram_to_json(golden_histogram()) + "\n" + histogram_to_json(Histogram{}),
            kGoldenHistogramJson);
}

TEST(GoldenExport, SeriesCsv) {
  MetricRepository repo;
  const MetricKey key{1, 2, "csv.series"};
  std::int64_t t = -5;
  for (const double v : {0.0, -0.0, 1e-5, kSubnormal, 999999999.0, 1e9, 0.1, kNaN, -kInf,
                         123456789.125}) {
    repo.record(key, sim::SimTime(t), v);
    t = t * -3 + 1000001;
  }
  EXPECT_EQ(series_to_csv(repo, key) + series_to_csv(repo, MetricKey{9, 9, "absent"}),
            kGoldenSeriesCsv);
}

TEST(GoldenExport, ConformanceReport) {
  EXPECT_EQ(golden_conformance().to_json() + "\n" + SessionConformance{}.to_json(),
            kGoldenConformanceJson);
}

TEST(GoldenExport, ResourceSnapshot) {
  EXPECT_EQ(golden_resource().to_json() + "\n" + ResourceSnapshot{}.to_json(),
            kGoldenResourceJson);
}

TEST(GoldenExport, FlightBundle) {
  FlightBundle bare;
  bare.seed = 1;
  bare.reason = "replay";
  bare.resource_json = "{\"when_ns\":1}";
  EXPECT_EQ(render([&](std::ostream& o) {
              FlightRecorder::write_bundle(o, golden_bundle());
              FlightRecorder::write_bundle(o, bare);
            }),
            kGoldenBundles);
}

TEST(GoldenExport, Profile) {
  EXPECT_EQ(render([](std::ostream& o) { write_profile_collapsed(o, golden_profile()); }),
            kGoldenProfileCollapsed);
  EXPECT_EQ(render([](std::ostream& o) {
              write_profile_json(o, golden_profile(), /*include_wall=*/true);
              write_profile_json(o, golden_profile(), /*include_wall=*/false);
            }),
            kGoldenProfileJson);
}

TEST(GoldenExport, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01\x1f\x7f\xc3\xa9 end"),
            "a\\\"b\\\\c\\nd\\te\\u0001\\u001f\x7f\xc3\xa9 end");
}

// ---------------------------------------------------------------------------
// Differential checks of the JSON writer; snprintf is the reference.
// ---------------------------------------------------------------------------

std::string printf_g9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string writer_g9(double v) {
  char buf[detail::kNumChars];
  return {buf, detail::format_double(buf, v)};
}

TEST(JsonWriter, DoublesMatchPrintfG9) {
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNaN, -kNaN, kSubnormal, -kSubnormal,
      1e-5, 9.99999999e-6, 1e-4, 0.1, 1e15, 1e16, 1e17,
      1e9, -1e9, 999999999.0, -999999999.0, 999999999.5, 999999999.4, 1e9 - 0.25,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), std::numeric_limits<double>::epsilon()};
  for (int i = -1000; i <= 1000; ++i) {
    values.push_back(i);
    values.push_back(1e9 + i);
    values.push_back(-1e9 + i);
    values.push_back(i * 0.125);
  }
  std::mt19937_64 rng(0x5eed'9e37'79b9'7f4aull);
  // Uniform bit patterns: every exponent, NaN payloads, subnormals.
  for (int i = 0; i < 1'000'000; ++i) values.push_back(std::bit_cast<double>(rng()));
  // The magnitudes exports carry: µs timestamps with a ns remainder,
  // counts, rates, fractions.
  for (int i = 0; i < 200'000; ++i) {
    values.push_back(static_cast<double>(rng() % 100'000'000'000'000ull) / 1e3);
    values.push_back(static_cast<double>(rng() >> 11) * 0x1p-53 *
                     std::pow(10.0, static_cast<int>(rng() % 40) - 20));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = printf_g9(v);
    const std::string got = writer_g9(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v) << ": printf "
                    << want << ", writer " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size();
}

// Reference escaper: json_escape's rules one byte at a time, with snprintf.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Counts what reaches the stream and the largest single write.
class ChunkCountingBuf final : public std::streambuf {
public:
  std::string bytes;
  std::size_t writes = 0;
  std::size_t largest = 0;

protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes.append(s, static_cast<std::size_t>(n));
    ++writes;
    largest = std::max(largest, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
};

TEST(JsonWriter, EscapesLikeJsonEscapeAcrossChunks) {
  std::mt19937_64 rng(77);
  std::string all;
  std::string want;
  ChunkCountingBuf buf;
  std::ostream os(&buf);
  detail::JsonWriter w(os);
  for (const std::size_t len : {0u, 1u, 7u, 300u, 65'535u, 65'536u, 65'537u, 200'000u}) {
    std::string s(len, '\0');
    // Mostly plain text, with every byte value, escapes and long runs.
    for (char& c : s) c = static_cast<char>(rng() % 4 == 0 ? rng() % 256 : 'a' + rng() % 26);
    w.str(s).raw('|');
    want += reference_escape(s) + "|";
    all += s;
  }
  w.flush();
  EXPECT_EQ(buf.bytes, want);
  EXPECT_EQ(json_escape(all), reference_escape(all));
  EXPECT_LE(buf.largest, 64u * 1024u);
}

TEST(JsonWriter, LargeExportReachesTheStreamInBoundedChunks) {
  std::vector<TraceEvent> events;
  for (std::uint32_t i = 0; i < 40'000; ++i) {
    events.push_back(TraceEvent{sim::SimTime(i * 1001), sim::SimTime(i % 3), "tko.tx",
                                i % 5 == 0 ? "retx" : nullptr, TraceCategory::kTko, i % 17,
                                i, i * 0.5});
  }
  ChunkCountingBuf buf;
  std::ostream os(&buf);
  write_chrome_trace(os, events);
  EXPECT_TRUE(os.good());
  EXPECT_LE(buf.largest, 64u * 1024u);
  EXPECT_GE(buf.writes, buf.bytes.size() / (64u * 1024u));
  EXPECT_LE(buf.writes, buf.bytes.size() / (32u * 1024u) + 1);
}

}  // namespace
}  // namespace adaptive::unites
