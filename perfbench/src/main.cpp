// Repository benchmark: runs one workload in this process and prints
// one JSON result line.
//
//   perfbench --workload bulk_atm|city_churn|media_chaos --seed N
//             --seconds S --trace 0|1 [--inject-deliver-ns NS]
//
// --trace 0 (timed run): one untimed warm-up pass, then passes for S
// seconds (at least kMinIterations), each preceded by a batch of fresh
// set-ups; report the end-to-end metrics. --trace 1 (traced run): a few
// untimed reference passes, then one pass with the UNITES profiler and the
// benchmark spans on; report the per-layer metrics, and run the checks that
// need extra passes (media_chaos at one worker against two). Both modes
// check determinism and work content and exit 1 when a check fails.
#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMinTraceReferenceIterations = 2;
constexpr std::size_t kMinSetupsPerBatch = 5;
constexpr double kSetupBatchS = 0.15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t inject_deliver_ns = 0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--inject-deliver-ns") a.inject_deliver_ns = std::strtoull(v, nullptr, 10);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

// Metric units, in report order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"units_per_wall_s", "1/s"},   {"units_per_cpu_s", "1/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MB"},
    {"vt.goodput_mbps", "Mb/s"},   {"vt.latency_p50_ms", "ms"},
    {"vt.latency_p999_ms", "ms"},  {"success_fraction", "fraction"},
    {"oracle_clean_fraction", "fraction"}, {"vt.time_in_contract", "fraction"},
    {"vt.qoe", "fraction"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"sim.events_per_unit", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.packets_per_unit", "count"},
    {"net.wire_bytes_per_payload_byte", "ratio"},
    {"net.drops", "count"},
    {"net.corrupted", "count"},
    {"net.self_ms", "ms"},
    {"os.allocations_per_unit", "count"},
    {"os.copies_per_unit", "count"},
    {"os.copied_bytes_per_unit", "bytes"},
    {"os.pool_high_water_mb", "MB"},
    {"os.cpu_instructions_per_unit", "count"},
    {"os.interrupts_per_unit", "count"},
    {"tko.pdus_per_unit", "count"},
    {"tko.retx_ratio", "ratio"},
    {"tko.checksum_failures", "count"},
    {"tko.watchdog_stalls", "count"},
    {"tko.watchdog_recoveries", "count"},
    {"tko.segues", "count"},
    {"tko.table_probes_per_find", "count"},
    {"tko.table_rehashes", "count"},
    {"tko.transport.self_ms", "ms"},
    {"tko.reliability.self_ms", "ms"},
    {"tko.control.self_ms", "ms"},
    {"tko.send_us_p50", "us"},
    {"tko.send_us_p99", "us"},
    {"tko.close_us_p50", "us"},
    {"mantts.opens", "count"},
    {"mantts.cache_hit_rate", "fraction"},
    {"mantts.renegotiations", "count"},
    {"mantts.reconfig_retries", "count"},
    {"mantts.renegotiation_failures", "count"},
    {"mantts.policy_firings", "count"},
    {"mantts.self_ms", "ms"},
    {"mantts.open_us_p50", "us"},
    {"mantts.open_us_p99", "us"},
    {"unites.trace_events_per_unit", "count"},
    {"unites.spans", "count"},
    {"unites.timeline_points", "count"},
    {"unites.conformance_windows", "count"},
    {"unites.export_ms", "ms"},
    {"unites.export_mb", "MB"},
    {"unites.capture_share", "fraction"},
    {"app.latency_samples", "count"},
    {"app.self_ms", "ms"},
    {"adaptive.world_build_ms", "ms"},
    {"adaptive.parallel_efficiency", "fraction"},
    {"adaptive.seeds_violating", "count"},
    {"unattributed.self_ms", "ms"},
    {"unattributed.share", "fraction"},
    {"trace.overhead_ratio", "ratio"},
};

/// First key whose value differs between two exact maps ("" = identical).
std::string first_difference(const Exact& a, const Exact& b) {
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end()) return k + " (missing)";
    if (std::memcmp(&v, &it->second, sizeof v) != 0) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s (%.17g vs %.17g)", k.c_str(), v, it->second);
      return buf;
    }
  }
  for (const auto& [k, v] : b) {
    if (!a.contains(k)) return k + " (missing)";
  }
  return "";
}

/// Nearest-rank percentile of a benchmark call's durations; 0 when the
/// workload makes no such benchmark call.
double call_percentile(const char* span, double q) {
  auto& calls = trace_switch().call_us;
  const auto it = calls.find(span);
  if (it == calls.end() || it->second.empty()) return 0.0;
  std::vector<double> v = it->second;
  std::sort(v.begin(), v.end());
  return quantile_nearest_rank(v, q);
}

void print_result(bool correct, double attempted, double failed,
                  const std::vector<std::pair<const char*, const char*>>& catalog,
                  const Exact& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof buf, ", \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": {",
                attempted, failed);
  out += buf;
  bool first = true;
  for (const auto& [name, unit] : catalog) {
    const auto it = values.find(name);
    if (it == values.end()) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, it->second, unit);
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bulk_atm|city_churn|media_chaos --seed N "
                 "--seconds S --trace 0|1 [--inject-deliver-ns NS]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl;
  if (args.workload == "bulk_atm") wl = make_bulk_atm(args.seed);
  else if (args.workload == "city_churn") wl = make_city_churn(args.seed);
  else if (args.workload == "media_chaos") wl = make_media_chaos(args.seed);
  else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  trace_switch().inject_deliver_ns = args.inject_deliver_ns;

  std::vector<std::string> failures;

  // ---- set-up: median of repeated fresh set-ups, sampled in a batch
  // before every pass so the median spans the whole run, as the pass
  // medians do (a sub-millisecond set-up timed in one burst reads the
  // host's speed at that moment) ----
  std::vector<double> setup_s, world_build_s;
  const auto sample_setups = [&] {
    const double start = wall_now();
    for (std::size_t n = 0; n < kMinSetupsPerBatch || wall_now() - start < kSetupBatchS; ++n) {
      const SetupSample s = wl->setup_once();
      setup_s.push_back(s.setup_s);
      world_build_s.push_back(s.world_build_s);
    }
  };

  // ---- untraced passes ----
  // A warm-up pass lets the heap grow and caches fill before timing; it
  // is checked like every other pass but not timed.
  sample_setups();
  const IterationResult warmup = wl->iterate(false);
  if (const std::string why = wl->check_work_content(warmup); !why.empty()) {
    failures.push_back(why);
  }
  const std::size_t min_iterations = args.trace ? kMinTraceReferenceIterations : kMinIterations;
  std::vector<IterationResult> passes;
  const double run_start = wall_now();
  while (failures.empty() &&
         (passes.size() < min_iterations || wall_now() - run_start < args.seconds)) {
    sample_setups();
    passes.push_back(wl->iterate(false));
    const IterationResult& r = passes.back();
    std::fprintf(stderr, "[pass %zu] wall %.4fs cpu %.4fs units %.0f\n", passes.size(), r.wall_s,
                 r.cpu_s, r.units);
    if (const std::string why = wl->check_work_content(r); !why.empty()) {
      failures.push_back(why);
    } else if (const std::string d = first_difference(warmup.exact, r.exact); !d.empty()) {
      failures.push_back("repeated passes differ: " + d);
    }
    if (args.trace && passes.size() >= min_iterations) break;
  }
  if (passes.empty()) passes.push_back(warmup);
  std::vector<double> per_wall, per_cpu, walls, cpus;
  double attempted = 0;
  for (const auto& r : passes) {
    per_wall.push_back(r.units / r.wall_s);
    per_cpu.push_back(r.units / r.cpu_s);
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    attempted += r.owed;
  }
  const Exact& exact = passes.front().exact;
  for (const char* key : {"vt.latency_p50_ms", "vt.latency_p999_ms"}) {
    if (!exact.contains(key)) failures.push_back(std::string("no samples for ") + key);
  }
  if (exact.contains("app.latency_samples") && exact.at("app.latency_samples") < 10'000) {
    failures.push_back("fewer than 10,000 latency samples");
  }

  Exact report;
  if (!args.trace) {
    report["units_per_wall_s"] = median(per_wall);
    report["units_per_cpu_s"] = median(per_cpu);
    report["setup_s"] = median(setup_s);
    for (const auto& [name, unit] : kEndToEnd) {
      (void)unit;
      if (exact.contains(name)) report[name] = exact.at(name);
    }
  } else if (failures.empty()) {
    // ---- traced pass ----
    trace_switch().on = true;
    IterationResult traced = wl->iterate(true);
    trace_switch().on = false;
    attempted += traced.owed;
    if (const std::string d = first_difference(exact, traced.exact); !d.empty()) {
      failures.push_back("traced pass differs from untraced: " + d);
    }
    const double untraced_wall = median(walls);
    const double untraced_cpu = median(cpus);
    const bool parallel = wl->workers() > 1;
    for (const auto& [k, v] : exact) report[k] = v;
    std::string error;
    wl->trace_extras(untraced_wall, report, &error);
    if (!error.empty()) failures.push_back(error);

    // The traced total is the timed phase's wall time, or its process CPU
    // time when shards run on several workers (zone times add per thread).
    const double total_ms = (parallel ? traced.cpu_s : traced.wall_s) * 1e3;
    std::map<std::string, double> layers = layer_self_ms(traced.profile);
    layers["unites"] += traced.export_ms;
    const Attribution a = attribute(total_ms, layers);
    report["net.self_ms"] = a.layer_ms.at("net");
    report["tko.transport.self_ms"] = a.layer_ms.at("tko.transport");
    report["tko.reliability.self_ms"] = a.layer_ms.at("tko.reliability");
    report["tko.control.self_ms"] = a.layer_ms.at("tko.control");
    report["mantts.self_ms"] = a.layer_ms.at("mantts");
    report["app.self_ms"] = a.layer_ms.at("app");
    report["unites.export_ms"] = a.layer_ms.at("unites");
    report["unattributed.self_ms"] = a.unattributed_ms;
    report["unattributed.share"] = a.unattributed_share;
    report["trace.overhead_ratio"] = traced.wall_s / untraced_wall;
    report["sim.ns_per_event"] =
        report.at("sim.events") > 0
            ? (parallel ? untraced_cpu : untraced_wall) * 1e9 / report.at("sim.events")
            : 0.0;
    report["tko.send_us_p50"] = call_percentile("bench.tko.transport.send", 0.50);
    report["tko.send_us_p99"] = call_percentile("bench.tko.transport.send", 0.99);
    report["tko.close_us_p50"] = call_percentile("bench.tko.transport.close", 0.50);
    report["mantts.open_us_p50"] = call_percentile("bench.mantts.open", 0.50);
    report["mantts.open_us_p99"] = call_percentile("bench.mantts.open", 0.99);
    report["adaptive.world_build_ms"] = median(world_build_s) * 1e3;
    report["adaptive.parallel_efficiency"] =
        untraced_cpu / (untraced_wall * static_cast<double>(wl->workers()));
    if (!report.contains("unites.capture_share")) report["unites.capture_share"] = 0.0;
    std::fprintf(stderr, "[trace] traced wall %.3fs (untraced median %.3fs), %zu zones\n",
                 traced.wall_s, untraced_wall, traced.profile.zone_count());
  }

  if (args.trace && failures.empty()) {
    if (const std::string why = wl->check_parallel_determinism(); !why.empty()) {
      failures.push_back(why);
    }
  }
  if (!args.trace) report["peak_rss_mb"] = peak_rss_mb();

  const auto& catalog = args.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : catalog) {
    (void)unit;
    if (!report.contains(name)) failures.push_back(std::string("metric not produced: ") + name);
  }
  std::fprintf(stderr, "[%s] seed %" PRIu64 ": %zu passes, %zu set-ups, units/pass %.0f of %.0f\n",
               args.workload.c_str(), args.seed, passes.size(), setup_s.size(),
               passes.front().units, passes.front().owed);
  if (exact.contains("latency_tail_percentile")) {
    std::fprintf(stderr,
                 "[latency] %.0f samples; highest percentile with >= %llu beyond: p%g = %.6g ms\n",
                 exact.at("app.latency_samples"), static_cast<unsigned long long>(kTailSamples),
                 exact.at("latency_tail_percentile"), exact.at("latency_tail_ms"));
  }
  for (const auto& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  print_result(failures.empty(), attempted, failures.empty() ? 0.0 : attempted, catalog, report);
  return failures.empty() ? 0 : 1;
}
