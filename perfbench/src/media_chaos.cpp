// media_chaos: two adaptive::run_sweep chaos sweeps on two worker threads,
// in the `adaptive_cli --mode adaptive --duration 10 --drain 3 --chaos 6`
// configuration, with trace, span, timeline and metrics capture on and
// every export serialized into a byte-counting sink:
//   part 1: Table-1 voice, unicast across the congested WAN;
//   part 2: Table-1 teleconference, multicast to 7 receivers on the campus.
// It exercises what bulk_atm and city_churn leave idle: small isochronous
// PDUs and multicast fan-out, retransmission/RECONFIG/segue/watchdog
// recovery, cold-cache synthesis in every seed's fresh World, the
// conformance monitor, UNITES capture and export, and the shard engine.
//
// Seeds. Both parts run the pinned corpus, chaos seeds 1..32, in every
// run, and voice adds four fresh seeds 33+4n .. 36+4n for benchmark seed
// n, so every seed brings inputs no other run used. Per-seed cost is
// heavy-tailed (a few teleconference seeds take 1-2 s against ~40 ms; a
// wedged voice seed costs ~10x a clean one), so sliding windows of 32
// would make a run's wall time and fractions measure which slow seeds fell
// into the window. The corpus keeps the known slow and violating seeds in
// every run instead, and only the cheap voice part draws fresh seeds.
// Every seed replays with
//   adaptive_cli --topology congested-wan --app voice --mode adaptive
//       --duration 10 --drain 3 --chaos 6 --seeds N
//   adaptive_cli --topology campus --app teleconference --members 1,2,3,4,5,6,7
//       --mode adaptive --duration 10 --drain 3 --chaos 6 --seeds N
#include "harness.hpp"

#include "adaptive/sweep.hpp"
#include "unites/export.hpp"
#include "unites/sampler.hpp"
#include "unites/spans.hpp"

#include <algorithm>
#include <ostream>
#include <streambuf>

namespace perfbench {

namespace ad = adaptive;

namespace {

constexpr std::size_t kCorpusSeeds = 32;
constexpr std::size_t kFreshVoiceSeeds = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kChaosFaults = 6;

/// An ostream that discards what it is given and counts the bytes.
class CountingBuf final : public std::streambuf {
public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

private:
  std::uint64_t bytes_ = 0;
};

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  h ^= 0xFF;  // separator, so ("ab","c") and ("a","bc") differ
  return h * 0x100000001B3ULL;
}

struct Part {
  const char* name;
  ad::app::Table1App application;
  bool campus;  ///< multicast campus, else the congested WAN
  std::vector<std::size_t> members;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] double receivers() const {
    return members.empty() ? 1.0 : static_cast<double>(members.size());
  }

  [[nodiscard]] ad::World::TopologyFactory topology(std::uint64_t seed) const {
    if (campus) {
      return [seed](ad::sim::EventScheduler& s) { return ad::net::make_multicast_campus(s, 8, seed); };
    }
    return [seed](ad::sim::EventScheduler& s) { return ad::net::make_congested_wan(s, 2, seed); };
  }

  [[nodiscard]] ad::RunOptions run_options() const {
    ad::RunOptions opt;
    opt.application = application;
    opt.mode = ad::RunOptions::Mode::kMantttsAdaptive;
    opt.duration = ad::sim::SimTime::seconds(10);
    opt.drain = ad::sim::SimTime::seconds(3);
    opt.multicast_members = members;
    opt.collect_metrics = true;
    opt.rules = ad::mantts::PolicyEngine::fault_recovery_rules();
    return opt;
  }

  [[nodiscard]] ad::SweepConfig sweep(std::size_t jobs, bool capture, bool profile) const {
    ad::SweepConfig sc;
    const Part self = *this;
    sc.topology = [self](std::uint64_t seed) { return self.topology(seed); };
    sc.base = run_options();
    sc.seeds = seeds;
    sc.jobs = jobs;
    sc.chaos = kChaosFaults;
    sc.capture_trace = capture;
    sc.capture_spans = capture;
    sc.capture_timeline = capture;
    sc.timeline_period = ad::sim::SimTime::milliseconds(100);
    sc.capture_profile = profile;
    return sc;
  }

  /// The chaos plan the definition gives `seed` (what run_sweep derives).
  [[nodiscard]] std::string expected_plan(std::uint64_t seed) const {
    ad::World world(topology(seed));
    ad::RunOptions opt = run_options();
    opt.seed = seed;
    const auto prof = ad::size_chaos_profile(ad::sim::ChaosProfile{}, world, opt, kChaosFaults);
    return ad::sim::ChaosPlanGenerator(prof).generate(seed).describe();
  }
};

struct PartResult {
  ad::SweepResult sweep;
  std::uint64_t export_bytes = 0;
  double export_s = 0;
};

class MediaChaos final : public Workload {
public:
  explicit MediaChaos(std::uint64_t seed) {
    Part voice{"voice", ad::app::Table1App::kVoice, false, {}, {}};
    Part tele{"teleconference", ad::app::Table1App::kTeleconference, true,
              {1, 2, 3, 4, 5, 6, 7}, {}};
    for (std::uint64_t i = 1; i <= kCorpusSeeds; ++i) {
      voice.seeds.push_back(i);
      tele.seeds.push_back(i);
    }
    const std::uint64_t fresh = kCorpusSeeds + 1 + seed * kFreshVoiceSeeds;
    for (std::uint64_t i = 0; i < kFreshVoiceSeeds; ++i) voice.seeds.push_back(fresh + i);
    parts_ = {voice, tele};
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& p : parts_) {
      for (const auto s : p.seeds) h = fnv(h, p.expected_plan(s));
    }
    expected_plan_digest_ = h;
  }

  SetupSample setup_once() override {
    // One shard World per part, as each shard builds before its run.
    const double t0 = wall_now();
    for (const auto& p : parts_) ad::World world(p.topology(p.seeds.front()));
    const double dt = wall_now() - t0;
    return {dt, dt};
  }

  IterationResult iterate(bool traced) override;

  [[nodiscard]] std::size_t workers() const override { return kWorkers; }

  [[nodiscard]] std::string check_work_content(const IterationResult& r) const override {
    if (r.exact.at("seeds_run") != static_cast<double>(2 * kCorpusSeeds + kFreshVoiceSeeds)) {
      return "media_chaos: seeds run differ from 2 x 32 corpus + 4 fresh voice seeds";
    }
    if (r.exact.at("plan_digest_hi") != hi(expected_plan_digest_) ||
        r.exact.at("plan_digest_lo") != lo(expected_plan_digest_)) {
      return "media_chaos: chaos plans differ from the seed-derived definition";
    }
    return "";
  }

  std::string check_parallel_determinism() override;

  void trace_extras(double untraced_wall_s, Exact& per_layer, std::string* error) override;

private:
  static double hi(std::uint64_t v) { return static_cast<double>(v >> 32); }
  static double lo(std::uint64_t v) { return static_cast<double>(v & 0xFFFFFFFFULL); }

  PartResult run_part(const Part& p, std::size_t jobs, bool capture, bool profile) const;

  std::vector<Part> parts_;
  std::uint64_t expected_plan_digest_ = 0;
  /// Per part, from the last timed pass: trace digest and per-seed
  /// (units received, oracle violations).
  std::vector<std::uint64_t> last_trace_digests_;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> last_seed_outcomes_;
};

PartResult MediaChaos::run_part(const Part& p, std::size_t jobs, bool capture,
                                bool profile) const {
  PartResult out;
  out.sweep = ad::run_sweep(p.sweep(jobs, capture, profile));
  if (!capture) return out;
  const double t0 = wall_now();
  CountingBuf buf;
  std::ostream sink(&buf);
  ad::unites::write_chrome_trace(sink, out.sweep.trace);
  ad::unites::write_spans_chrome(sink, out.sweep.spans);
  ad::unites::write_timeline_jsonl(sink, out.sweep.timeline);
  ad::unites::write_timeline_chrome(sink, out.sweep.timeline);
  ad::unites::write_metrics_jsonl(sink, out.sweep.merged);
  out.export_s = wall_now() - t0;
  out.export_bytes = buf.bytes();
  return out;
}

IterationResult MediaChaos::iterate(bool traced) {
  std::vector<PartResult> results;
  TimedPhase phase;
  phase.start();
  for (const auto& p : parts_) results.push_back(run_part(p, kWorkers, true, traced));
  phase.stop();

  IterationResult r;
  r.wall_s = phase.wall_s();
  r.cpu_s = phase.cpu_s();

  // ---- untimed harvest ----
  double units = 0, owed = 0, seeds = 0, clean = 0, goodput = 0, windows = 0, windows_ok = 0;
  double qoe = 0, trace_events = 0, spans = 0, timeline = 0, export_bytes = 0, export_s = 0;
  std::uint64_t plan_digest = 0xCBF29CE484222325ULL;
  ad::unites::Histogram latency;
  last_trace_digests_.clear();
  last_seed_outcomes_.clear();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Part& p = parts_[i];
    const PartResult& pr = results[i];
    const auto& res = pr.sweep;
    // A refused open still owes its units: charge it the part's nominal
    // count (the largest any admitted seed of the part submitted).
    double nominal = 0;
    for (const auto& run : res.runs) {
      if (!run.refused) nominal = std::max(nominal, static_cast<double>(run.units_sent));
    }
    last_seed_outcomes_.emplace_back();
    for (const auto& run : res.runs) {
      units += static_cast<double>(run.units_received);
      owed += units_owed(run.refused ? nominal : static_cast<double>(run.units_sent),
                         p.receivers());
      seeds += 1;
      clean += run.violations == 0 ? 1 : 0;
      goodput += run.throughput_bps;
      windows += static_cast<double>(run.qos_windows);
      windows_ok += static_cast<double>(run.qos_windows - run.qos_windows_bad);
      qoe += run.qoe;
      plan_digest = fnv(plan_digest, run.chaos_plan);
      last_seed_outcomes_.back().emplace_back(run.units_received, run.violations);
    }
    latency.merge(res.merged.systemwide_histogram(ad::unites::metrics::kLatencyNs));
    trace_events += static_cast<double>(res.trace_events_emitted);
    spans += static_cast<double>(res.spans.size());
    timeline += static_cast<double>(res.timeline.size());
    export_bytes += static_cast<double>(pr.export_bytes);
    export_s += pr.export_s;
    last_trace_digests_.push_back(res.trace_digest);
    if (traced) r.profile.merge(res.profile);
  }
  if (traced) r.export_ms = export_s * 1e3;

  r.units = units;
  r.owed = owed;
  Exact& x = r.exact;
  x["units"] = units;
  x["seeds_run"] = seeds;
  x["plan_digest_hi"] = hi(plan_digest);
  x["plan_digest_lo"] = lo(plan_digest);
  for (std::size_t i = 0; i < last_trace_digests_.size(); ++i) {
    x["trace_digest_hi." + std::string(parts_[i].name)] = hi(last_trace_digests_[i]);
    x["trace_digest_lo." + std::string(parts_[i].name)] = lo(last_trace_digests_[i]);
  }
  x["vt.goodput_mbps"] = goodput / seeds / 1e6;
  // The sweep keeps latencies only as the merged histogram: percentiles
  // interpolate inside a bucket, and the tail rung follows the same
  // >= kTailSamples rule as the exact workloads.
  x["vt.latency_p50_ms"] = latency.p50() * 1e-6;
  if (samples_beyond(latency.count(), 0.999) >= kTailSamples) {
    x["vt.latency_p999_ms"] = latency.p999() * 1e-6;
  }
  for (const double p : {99.99, 99.9, 99.0}) {
    if (samples_beyond(latency.count(), p / 100.0) >= kTailSamples) {
      x["latency_tail_percentile"] = p;
      x["latency_tail_ms"] = latency.percentile(p) * 1e-6;
      break;
    }
  }
  x["app.latency_samples"] = static_cast<double>(latency.count());
  x["success_fraction"] = success_fraction(units, owed);
  x["oracle_clean_fraction"] = clean / seeds;
  x["adaptive.seeds_violating"] = seeds - clean;
  x["vt.time_in_contract"] = windows > 0 ? windows_ok / windows : 0.0;
  x["vt.qoe"] = qoe / seeds;
  x["unites.conformance_windows"] = windows;
  x["unites.trace_events_per_unit"] = units > 0 ? trace_events / units : 0.0;
  x["unites.spans"] = spans;
  x["unites.timeline_points"] = timeline;
  x["unites.export_mb"] = export_bytes / (1024.0 * 1024.0);
  return r;
}

std::string MediaChaos::check_parallel_determinism() {
  const auto jobs2 = last_trace_digests_;
  const auto outcomes2 = last_seed_outcomes_;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const auto res = run_part(parts_[i], 1, true, false).sweep;
    if (i >= jobs2.size() || res.trace_digest != jobs2[i]) {
      return std::string("media_chaos: ") + parts_[i].name +
             " trace digest differs between 1 and 2 workers";
    }
    std::uint64_t plans1 = 0xCBF29CE484222325ULL;
    std::uint64_t plans2 = 0xCBF29CE484222325ULL;
    for (std::size_t k = 0; k < res.runs.size(); ++k) {
      plans1 = fnv(plans1, res.runs[k].chaos_plan);
      plans2 = fnv(plans2, parts_[i].expected_plan(parts_[i].seeds[k]));
      if (outcomes2[i][k] != std::make_pair(res.runs[k].units_received, res.runs[k].violations)) {
        return std::string("media_chaos: ") + parts_[i].name +
               " per-seed outcomes differ between 1 and 2 workers";
      }
    }
    if (plans1 != plans2) {
      return std::string("media_chaos: ") + parts_[i].name +
             " chaos plans differ between 1 and 2 workers";
    }
  }
  return "";
}

void MediaChaos::trace_extras(double untraced_wall_s, Exact& per_layer, std::string* error) {
  // Capture share: the same sweeps with trace, span, timeline and metrics
  // capture and export off.
  {
    TimedPhase off;
    off.start();
    for (const auto& p : parts_) (void)run_part(p, kWorkers, false, false);
    off.stop();
    per_layer["unites.capture_share"] = 1.0 - off.wall_s() / untraced_wall_s;
  }
  // Layer counters have no public source in a sweep result, so every seed
  // is replayed serially on a World the benchmark owns (same topology,
  // options and chaos plan as its shard). The replay must reproduce the
  // sweep's per-seed outcome exactly.
  WorldCounts wc;
  SessionCounts sc;
  double units = 0, payload = 0;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    const Part& p = parts_[i];
    for (std::size_t k = 0; k < p.seeds.size(); ++k) {
      const std::uint64_t seed = p.seeds[k];
      ad::World world(p.topology(seed));
      ad::RunOptions opt = p.run_options();
      opt.seed = seed;
      const auto prof = ad::size_chaos_profile(ad::sim::ChaosProfile{}, world, opt, kChaosFaults);
      opt.faults = ad::sim::ChaosPlanGenerator(prof).generate(seed);
      const ad::RunOutcome out = ad::run_scenario(world, opt);
      if (last_seed_outcomes_.size() <= i ||
          last_seed_outcomes_[i][k] !=
              std::make_pair(out.sink.units_received,
                             static_cast<std::uint64_t>(out.oracle.violations.size()))) {
        *error = std::string("media_chaos: replay of ") + p.name + " seed " +
                 std::to_string(seed) + " differs from its sweep shard";
        return;
      }
      wc.add(world);
      units += static_cast<double>(out.sink.units_received);
      payload += static_cast<double>(out.sink.bytes_received);
      sc.pdus_sent += static_cast<double>(out.session.pdus_sent);
      sc.data_sent += static_cast<double>(out.reliability.data_sent);
      sc.retransmissions += static_cast<double>(out.reliability.retransmissions);
      sc.checksum_failures += static_cast<double>(out.session.checksum_failures +
                                                  out.receiver_checksum_failures);
      sc.watchdog_stalls += static_cast<double>(out.session.watchdog_stalls);
      sc.watchdog_recoveries += static_cast<double>(out.session.watchdog_recoveries);
      sc.segues += static_cast<double>(out.reconfigurations);
    }
  }
  put_layer_counts(per_layer, wc, sc, units, payload);
}

}  // namespace

std::unique_ptr<Workload> make_media_chaos(std::uint64_t seed) {
  return std::make_unique<MediaChaos>(seed);
}

}  // namespace perfbench
