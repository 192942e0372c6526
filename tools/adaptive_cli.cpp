// adaptive_cli — drive one ADAPTIVE experiment from the command line.
//
// The "controlled prototyping environment" as a tool: pick a topology, a
// Table 1 application, a configuration policy, and run it; optionally
// attach a UNITES metric-spec program for the report.
//
//   adaptive_cli --topology congested-wan --app voice --mode manntts
//                --duration 5 --seed 7
//   adaptive_cli --topology campus --app teleconference --members 1,2,3
//   adaptive_cli --topology dual-path --app control --mode adaptive
//                --fail-link-at 4
//   adaptive_cli --app file-transfer --mode static-tp4 --spec my.spec
//
// Run with --help for the full option list.
#include "adaptive/scenario.hpp"
#include "adaptive/sweep.hpp"
#include "unites/export.hpp"
#include "unites/presentation.hpp"
#include "unites/profiler.hpp"
#include "unites/spans.hpp"
#include "unites/spec_language.hpp"
#include "unites/trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

using namespace adaptive;

namespace {

struct CliOptions {
  std::string topology = "ethernet";
  std::string app = "file-transfer";
  std::string mode = "manntts";
  double duration = 5.0;
  double drain = 4.0;
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string seeds;      ///< non-empty: sweep over "A..B" or "a,b,c"
  std::size_t jobs = 1;   ///< sweep worker threads
  std::size_t chaos = 0;  ///< > 0: generate adversarial fault plans (max faults per run)
  bool chaos_mobility = false;  ///< --chaos mobility: handover/churn plans
  std::size_t src = 0;
  std::vector<std::size_t> members;
  std::string handover_plan;
  double fail_link_at = -1.0;
  std::string fault_plan;
  std::string spec_path;
  bool trace = false;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  std::string span_out;
  std::string timeline_out;
  double timeline_period = 0.1;  ///< seconds of virtual time between samples
  std::string qos_out;
  std::string flight_dir;
};

void usage() {
  std::printf(
      "adaptive_cli — run one ADAPTIVE transport experiment\n\n"
      "  --topology <t>   ethernet | fddi | congested-wan | atm-wan | dual-path |\n"
      "                   campus | mobile-wan (host 0 mobile, host 1 correspondent)\n"
      "  --app <a>        voice | teleconference | video | video-raw | control |\n"
      "                   file-transfer | telnet | oltp | rfs\n"
      "  --mode <m>       manntts | adaptive | static-auto | static-stream |\n"
      "                   static-datagram | static-tp4\n"
      "  --duration <s>   workload duration in seconds (default 5)\n"
      "  --drain <s>      drain time after the source stops (default 4)\n"
      "  --scale <x>      workload rate/volume multiplier (default 1.0)\n"
      "  --seed <n>       RNG seed (default 1)\n"
      "  --seeds <set>    sweep seed set: inclusive range 'A..B' or list\n"
      "                   'a,b,c'. Runs one independent world per seed and\n"
      "                   merges the UNITES metrics/traces (seed order, so\n"
      "                   the report is identical for any --jobs value)\n"
      "  --jobs <n>       sweep worker threads (default 1 = serial)\n"
      "  --chaos <n>      chaos mode: derive a randomized adversarial fault\n"
      "                   plan (up to n faults: outages, flaps, bursts, delay,\n"
      "                   bandwidth cuts, wire mutations) per seed, run the\n"
      "                   delivery-invariant oracle on every outcome, and exit\n"
      "                   nonzero on any violation. Plans are pure functions\n"
      "                   of the seed: 'adaptive_cli --chaos n --seeds <s>'\n"
      "                   reproduces a reported seed exactly\n"
      "  --chaos mobility derive pure-mobility plans instead: mid-stream\n"
      "                   handovers of the topology's mobile host plus\n"
      "                   multicast leave/rejoin churn, judged by the\n"
      "                   survivability oracle (use --topology mobile-wan;\n"
      "                   combine with a numeric '--chaos n' run separately)\n"
      "  --src <h>        sender host index (default 0)\n"
      "  --members a,b,c  multicast member host indices\n"
      "  --handover-plan <p>  scripted mobility events, merged with\n"
      "                   --fault-plan, e.g.\n"
      "                   'handover@2+0.05:node=0,to=1,mode=mbb;leave@3:node=2;join@4:node=2'\n"
      "                   (handover re-homes the mobile host to attachment\n"
      "                   <to>; mode=mbb make-before-break, mode=bbm\n"
      "                   break-before-make; join/leave edit the multicast\n"
      "                   group mid-stream)\n"
      "  --fail-link-at <s>  fail the topology's first scenario link at t\n"
      "  --fault-plan <p> scripted impairments, e.g.\n"
      "                   'flap@2+0.3:link=0,count=3,period=1;burst@1+4:link=0,ber=1e-4'\n"
      "                   (kinds: down flap burst delay bw partition; times are\n"
      "                   seconds relative to workload start; adaptive mode\n"
      "                   also installs the fault-recovery policy rules)\n"
      "  --spec <file>    UNITES metric-spec program for the report\n"
      "  --trace          print the last 40 PDU interpreter steps\n"
      "  --trace-out <f>  write a Chrome trace_event JSON file (open in\n"
      "                   Perfetto / chrome://tracing) of all subsystem events\n"
      "  --metrics-out <f>  write the UNITES repository as JSONL (one metric\n"
      "                   per line, with histogram percentiles)\n"
      "  --profile-out <f>  enable the whitebox profiler and write the zone\n"
      "                   tree as flamegraph-collapsed text to <f> plus JSON\n"
      "                   to <f>.json (sweeps merge per-seed trees in seed\n"
      "                   order; the merged output is --jobs independent)\n"
      "  --span-out <f>   assemble causal message-lifecycle spans\n"
      "                   (submit->enqueue->tx->deliver->playout) and write\n"
      "                   them as Chrome async trace events to <f>; also\n"
      "                   records msg.queue/tx/retx latency breakdowns\n"
      "  --timeline-out <f>  sample the resource plane (pool live/copied\n"
      "                   bytes, per-session pinned bytes) on a virtual-time\n"
      "                   period and write the timeline as JSONL to <f> plus\n"
      "                   Chrome counter tracks to <f>.chrome.json (sweeps\n"
      "                   merge per-seed timelines in seed order; output is\n"
      "                   --jobs independent)\n"
      "  --timeline-period <s>  virtual seconds between timeline samples\n"
      "                   (default 0.1)\n"
      "  --qos-out <f>    write the QoS-conformance report (per-window\n"
      "                   verdicts, error-budget burn, breach episodes, QoE)\n"
      "                   as JSON to <f> (single runs; the monitor grades\n"
      "                   250ms virtual-time windows against the negotiated\n"
      "                   contract)\n"
      "  --flight-recorder-dir <d>  arm the post-mortem flight recorder:\n"
      "                   any seed that violates a delivery invariant (or\n"
      "                   stalls unrecovered) dumps a JSON evidence bundle\n"
      "                   to <d>/flight-seed<seed>.json\n");
}

std::optional<app::Table1App> parse_app(const std::string& s) {
  using A = app::Table1App;
  if (s == "voice") return A::kVoice;
  if (s == "teleconference") return A::kTeleconference;
  if (s == "video") return A::kVideoCompressed;
  if (s == "video-raw") return A::kVideoRaw;
  if (s == "control") return A::kManufacturingControl;
  if (s == "file-transfer") return A::kFileTransfer;
  if (s == "telnet") return A::kTelnet;
  if (s == "oltp") return A::kOltp;
  if (s == "rfs") return A::kRemoteFileService;
  return std::nullopt;
}

std::optional<RunOptions::Mode> parse_mode(const std::string& s) {
  using M = RunOptions::Mode;
  if (s == "manntts") return M::kManntts;
  if (s == "adaptive") return M::kMantttsAdaptive;
  if (s == "static-auto") return M::kStaticAuto;
  if (s == "static-stream") return M::kStaticStream;
  if (s == "static-datagram") return M::kStaticDatagram;
  if (s == "static-tp4") return M::kStaticTp4;
  return std::nullopt;
}

World::TopologyFactory topology_factory(const std::string& name, std::uint64_t seed, bool* ok) {
  *ok = true;
  if (name == "ethernet") {
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 4, seed); };
  }
  if (name == "fddi") {
    return [seed](sim::EventScheduler& s) { return net::make_fddi_ring(s, 4, seed); };
  }
  if (name == "congested-wan") {
    return [seed](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, seed); };
  }
  if (name == "atm-wan") {
    return [seed](sim::EventScheduler& s) { return net::make_atm_wan(s, 2, seed); };
  }
  if (name == "dual-path") {
    return [seed](sim::EventScheduler& s) { return net::make_dual_path_wan(s, seed); };
  }
  if (name == "campus") {
    return [seed](sim::EventScheduler& s) { return net::make_multicast_campus(s, 8, seed); };
  }
  if (name == "mobile-wan") {
    return [seed](sim::EventScheduler& s) { return net::make_mobile_wan(s, 3, 3, seed); };
  }
  *ok = false;
  return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); };
}

[[noreturn]] void bad_value(const std::string& flag, std::string_view v, const char* want) {
  std::fprintf(stderr, "bad value for %s: '%.*s' (want %s)\n", flag.c_str(),
               static_cast<int>(v.size()), v.data(), want);
  std::exit(1);
}

// Numeric values are whole tokens, as --seeds items are: no sign, no
// whitespace, nothing trailing. Anything else exits 1 naming the flag.
std::uint64_t count_value(const std::string& flag, std::string_view v) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) bad_value(flag, v, "a non-negative integer");
  return out;
}

/// Times and the scale factor: finite and >= 0.
double real_value(const std::string& flag, std::string_view v) {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out) || out < 0.0) {
    bad_value(flag, v, "a finite number >= 0");
  }
  return out;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--trace") {
      opt.trace = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return std::nullopt;
    }
    if (arg == "--topology") opt.topology = v;
    else if (arg == "--app") opt.app = v;
    else if (arg == "--mode") opt.mode = v;
    else if (arg == "--duration") opt.duration = real_value(arg, v);
    else if (arg == "--drain") opt.drain = real_value(arg, v);
    else if (arg == "--scale") opt.scale = real_value(arg, v);
    else if (arg == "--seed") opt.seed = count_value(arg, v);
    else if (arg == "--seeds") opt.seeds = v;
    else if (arg == "--jobs") {
      opt.jobs = count_value(arg, v);
      if (opt.jobs == 0) bad_value(arg, v, "an integer >= 1");
    }
    else if (arg == "--chaos") {
      if (std::strcmp(v, "mobility") == 0) opt.chaos_mobility = true;
      else opt.chaos = count_value(arg, v);
    }
    else if (arg == "--src") opt.src = count_value(arg, v);
    else if (arg == "--fail-link-at") opt.fail_link_at = real_value(arg, v);
    else if (arg == "--fault-plan") opt.fault_plan = v;
    else if (arg == "--handover-plan") opt.handover_plan = v;
    else if (arg == "--spec") opt.spec_path = v;
    else if (arg == "--trace-out") opt.trace_out = v;
    else if (arg == "--metrics-out") opt.metrics_out = v;
    else if (arg == "--profile-out") opt.profile_out = v;
    else if (arg == "--span-out") opt.span_out = v;
    else if (arg == "--timeline-out") opt.timeline_out = v;
    else if (arg == "--timeline-period") opt.timeline_period = real_value(arg, v);
    else if (arg == "--qos-out") opt.qos_out = v;
    else if (arg == "--flight-recorder-dir") opt.flight_dir = v;
    else if (arg == "--members") {
      const std::string_view all(v);
      for (std::size_t pos = 0;;) {
        const std::size_t comma = std::min(all.find(',', pos), all.size());
        opt.members.push_back(count_value(arg, all.substr(pos, comma - pos)));
        if (comma == all.size()) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opt;
}

/// Write one export file. A file that cannot be opened or fully written
/// prints "cannot write <what> file <path>" and returns false.
template <class Export>
bool export_file(const std::string& path, const char* what, Export&& write) {
  std::ofstream f(path);
  if (f) {
    write(f);
    f.close();
  }
  if (!f) {
    std::fprintf(stderr, "cannot write %s file %s\n", what, path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = parse_args(argc, argv);
  if (!cli.has_value()) {
    usage();
    return 1;
  }
  const auto application = parse_app(cli->app);
  const auto mode = parse_mode(cli->mode);
  bool topo_ok = false;
  auto factory = topology_factory(cli->topology, cli->seed, &topo_ok);
  if (!application.has_value() || !mode.has_value() || !topo_ok) {
    std::fprintf(stderr, "bad --app, --mode, or --topology\n\n");
    usage();
    return 1;
  }
  // Host indices must name hosts of the chosen topology.
  {
    sim::EventScheduler sched;
    const std::size_t hosts = factory(sched).hosts.size();
    const auto check_host = [&](const char* flag, std::size_t h) {
      if (h < hosts) return true;
      std::fprintf(stderr, "bad value for %s: '%zu' (topology %s has hosts 0..%zu)\n", flag, h,
                   cli->topology.c_str(), hosts - 1);
      return false;
    };
    if (!check_host("--src", cli->src)) return 1;
    for (const std::size_t m : cli->members) {
      if (!check_host("--members", m)) return 1;
    }
  }

  std::optional<unites::MetricSpecProgram> program;
  if (!cli->spec_path.empty()) {
    std::ifstream in(cli->spec_path);
    if (!in) {
      std::fprintf(stderr, "cannot read spec file %s\n", cli->spec_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::vector<std::string> errors;
    program = unites::parse_metric_spec(buf.str(), &errors);
    if (!program.has_value()) {
      for (const auto& e : errors) std::fprintf(stderr, "spec: %s\n", e.c_str());
      return 1;
    }
  }

  RunOptions opt;
  opt.application = *application;
  opt.mode = *mode;
  opt.duration = sim::SimTime::seconds(cli->duration);
  opt.drain = sim::SimTime::seconds(cli->drain);
  opt.scale = cli->scale;
  opt.seed = cli->seed;
  opt.src = cli->src;
  if (opt.dst == opt.src) opt.dst = opt.src == 0 ? 1 : 0;
  opt.multicast_members = cli->members;
  opt.collect_metrics = program.has_value() || !cli->metrics_out.empty();
  if (!cli->timeline_out.empty()) {
    opt.timeline_period = sim::SimTime::seconds(cli->timeline_period);
  }
  if (cli->trace) opt.trace = 40;
  // --fault-plan (impairments) and --handover-plan (mobility) share the
  // spec language and the FaultPlan container; the scenario routes each
  // kind to the right executor (injector vs mobility controller).
  std::string plan_text = cli->fault_plan;
  if (!cli->handover_plan.empty()) {
    if (!plan_text.empty()) plan_text += ';';
    plan_text += cli->handover_plan;
  }
  if (!plan_text.empty()) {
    std::vector<std::string> errors;
    const auto plan = sim::parse_fault_plan(plan_text, &errors);
    for (const auto& e : errors) std::fprintf(stderr, "fault-plan: %s\n", e.c_str());
    if (plan.empty()) {
      std::fprintf(stderr, "fault-plan: no valid specs\n");
      return 1;
    }
    opt.faults = plan;
    // Fault scenarios want the loss-rate-driven recovery rules; mobility
    // scenarios additionally want route-changed => resynthesize.
    if (*mode == RunOptions::Mode::kMantttsAdaptive) {
      opt.rules = cli->handover_plan.empty() ? mantts::PolicyEngine::fault_recovery_rules()
                                             : mantts::PolicyEngine::mobility_rules();
    }
    std::printf("fault plan: %s\n", plan.describe().c_str());
  }

  // --- sweep mode: one independent world per seed, merged UNITES view ---
  // A flight recorder implies sweep machinery even for one seed: the
  // bundle writer lives on the shard path.
  if (!cli->seeds.empty() || cli->jobs > 1 || cli->chaos > 0 || cli->chaos_mobility ||
      !cli->flight_dir.empty()) {
    SweepConfig sc;
    if (!cli->seeds.empty()) {
      std::string err;
      sc.seeds = parse_seed_set(cli->seeds, &err);
      if (sc.seeds.empty()) {
        std::fprintf(stderr, "--seeds: %s\n", err.c_str());
        return 1;
      }
    } else {
      sc.seeds = {cli->seed};
    }
    if (cli->fail_link_at >= 0.0) {
      std::fprintf(stderr, "--fail-link-at applies to single runs only; "
                           "use --fault-plan for sweeps\n");
      return 1;
    }
    const std::string topo_name = cli->topology;
    sc.topology = [topo_name](std::uint64_t seed) {
      bool ok = false;
      return topology_factory(topo_name, seed, &ok);
    };
    sc.base = opt;
    sc.base.collect_metrics = true;  // the merged report is the product
    sc.jobs = cli->jobs;
    sc.capture_trace = !cli->trace_out.empty();
    sc.capture_profile = !cli->profile_out.empty();
    sc.capture_spans = !cli->span_out.empty();
    sc.capture_timeline = !cli->timeline_out.empty();
    sc.timeline_period = sim::SimTime::seconds(cli->timeline_period);
    sc.flight_recorder_dir = cli->flight_dir;
    sc.chaos = cli->chaos;
    if (cli->chaos_mobility) {
      // Pure-mobility plans: handovers of the topology's mobile host plus
      // leave/rejoin churn over the non-endpoint member hosts. The
      // per-shard sizing pass clamps these against the actual topology.
      sc.chaos_profile.max_handovers = 3;
      sc.chaos_profile.max_membership_events = 4;
      sc.chaos_profile.churn_host_base = 2;
      sc.chaos_profile.churn_host_count = 8;
      sc.base.blackout_bound = sim::SimTime::seconds(2.0);
    }
    if ((cli->chaos > 0 || cli->chaos_mobility) &&
        *mode == RunOptions::Mode::kMantttsAdaptive && opt.rules.empty()) {
      sc.base.rules = cli->chaos_mobility ? mantts::PolicyEngine::mobility_rules()
                                          : mantts::PolicyEngine::fault_recovery_rules();
    }

    std::printf("sweeping %s over %s (%s mode, %.1fs, %zu seeds, %zu jobs%s%s)\n",
                app::to_string(*application), cli->topology.c_str(), cli->mode.c_str(),
                cli->duration, sc.seeds.size(), sc.jobs,
                cli->chaos > 0 ? ", chaos" : "",
                cli->chaos_mobility ? ", mobility chaos" : "");
    const SweepResult res = run_sweep(sc);

    std::size_t pass = 0;
    double throughput_sum = 0.0;
    for (const auto& r : res.runs) {
      pass += r.qos_pass ? 1 : 0;
      throughput_sum += r.throughput_bps;
    }
    std::printf("\nqos pass  : %zu/%zu seeds\n", pass, res.runs.size());
    {
      double tic_sum = 0.0;
      std::uint64_t windows = 0, breaches = 0;
      for (const auto& r : res.runs) {
        tic_sum += r.time_in_contract;
        windows += r.qos_windows;
        breaches += r.qos_breaches;
      }
      if (windows > 0) {
        std::printf("conformance: in-contract %.1f%% mean  %llu windows  %llu breach(es)\n",
                    tic_sum / static_cast<double>(res.runs.size()) * 100.0,
                    static_cast<unsigned long long>(windows),
                    static_cast<unsigned long long>(breaches));
      }
    }
    std::uint64_t violations = 0;
    for (const auto& r : res.runs) violations += r.violations;
    if (cli->chaos_mobility || opt.faults.has_value()) {
      std::uint64_t handovers = 0, membership = 0;
      double blackout_max = 0.0;
      for (const auto& r : res.runs) {
        handovers += r.handovers;
        membership += r.membership_events;
        blackout_max = std::max(blackout_max, r.blackout_max_sec);
      }
      if (handovers + membership > 0) {
        std::printf("mobility  : %llu handovers, %llu membership events, "
                    "worst blackout %.1fms\n",
                    static_cast<unsigned long long>(handovers),
                    static_cast<unsigned long long>(membership), blackout_max * 1e3);
      }
    }
    if (cli->chaos > 0 || cli->chaos_mobility || opt.faults.has_value()) {
      std::printf("invariants: %llu violation(s) across %zu seeds\n",
                  static_cast<unsigned long long>(violations), res.runs.size());
      for (const auto& r : res.runs) {
        if (r.violations == 0) continue;
        std::printf("  seed %llu: %s\n", static_cast<unsigned long long>(r.seed),
                    r.violation_detail.c_str());
        if (!r.chaos_plan.empty()) {
          std::printf("    plan : %s\n", r.chaos_plan.c_str());
          char chaos_arg[32];
          if (cli->chaos_mobility) std::snprintf(chaos_arg, sizeof chaos_arg, "mobility");
          else std::snprintf(chaos_arg, sizeof chaos_arg, "%zu", cli->chaos);
          std::printf("    repro: adaptive_cli --topology %s --app %s --mode %s "
                      "--duration %.1f --drain %.1f --chaos %s --seeds %llu\n",
                      cli->topology.c_str(), cli->app.c_str(), cli->mode.c_str(), cli->duration,
                      cli->drain, chaos_arg, static_cast<unsigned long long>(r.seed));
        }
      }
    }
    std::printf("throughput: %sbps mean per seed\n",
                unites::format_si(throughput_sum / static_cast<double>(res.runs.size())).c_str());
    const auto lat = res.merged.systemwide_histogram(unites::metrics::kLatencyNs);
    if (lat.count() > 0) {
      std::printf("latency   : p50 %.2fms  p99 %.2fms  p99.9 %.2fms (%llu samples)\n",
                  lat.p50() / 1e6, lat.p99() / 1e6, lat.p999() / 1e6,
                  static_cast<unsigned long long>(lat.count()));
    }
    std::printf("repository: %zu series, %llu samples\n", res.merged.series_count(),
                static_cast<unsigned long long>(res.merged.total_samples()));
    if (sc.capture_trace) {
      std::printf("trace     : %zu events retained (%llu emitted), digest %016llx\n",
                  res.trace.size(), static_cast<unsigned long long>(res.trace_events_emitted),
                  static_cast<unsigned long long>(res.trace_digest));
      if (!export_file(cli->trace_out, "trace",
                       [&](std::ostream& o) { unites::write_chrome_trace(o, res.trace); })) {
        return 1;
      }
      std::printf("            -> %s (open in Perfetto)\n", cli->trace_out.c_str());
    }
    if (!cli->metrics_out.empty()) {
      if (!export_file(cli->metrics_out, "metrics",
                       [&](std::ostream& o) { unites::write_metrics_jsonl(o, res.merged); })) {
        return 1;
      }
      std::printf("metrics   : %zu series -> %s\n", res.merged.series_count(),
                  cli->metrics_out.c_str());
    }
    if (sc.capture_profile) {
      // Canonical exports: virtual time only, so the file is --jobs
      // independent.
      if (!export_file(cli->profile_out, "profile",
                       [&](std::ostream& o) { unites::write_profile_collapsed(o, res.profile); }) ||
          !export_file(cli->profile_out + ".json", "profile", [&](std::ostream& o) {
            unites::write_profile_json(o, res.profile, /*include_wall=*/false);
          })) {
        return 1;
      }
      std::printf("profile   : %zu zones -> %s (+ .json)\n", res.profile.zone_count(),
                  cli->profile_out.c_str());
    }
    if (sc.capture_spans) {
      if (!export_file(cli->span_out, "span",
                       [&](std::ostream& o) { unites::write_spans_chrome(o, res.spans); })) {
        return 1;
      }
      std::printf("spans     : %zu message lifecycles -> %s (open in Perfetto)\n",
                  res.spans.size(), cli->span_out.c_str());
    }
    if (sc.capture_timeline) {
      if (!export_file(cli->timeline_out, "timeline",
                       [&](std::ostream& o) { unites::write_timeline_jsonl(o, res.timeline); }) ||
          !export_file(cli->timeline_out + ".chrome.json", "timeline",
                       [&](std::ostream& o) { unites::write_timeline_chrome(o, res.timeline); })) {
        return 1;
      }
      std::printf("timeline  : %zu points -> %s (+ .chrome.json counter tracks)\n",
                  res.timeline.size(), cli->timeline_out.c_str());
    }
    if (!sc.flight_recorder_dir.empty()) {
      std::printf("flight rec: %zu bundle(s) in %s\n", res.flight_bundles,
                  sc.flight_recorder_dir.c_str());
    }
    return violations > 0 ? 2 : 0;
  }

  // Enable the structured trace before any simulation object exists so
  // session synthesis and connection setup are on the timeline too.
  if (!cli->trace_out.empty() || !cli->span_out.empty()) unites::trace().enable();
  // Same for the whitebox profiler: the World binds its scheduler as the
  // virtual clock at construction.
  if (!cli->profile_out.empty()) unites::Profiler::current().enable();

  World world(factory);
  if (cli->fail_link_at >= 0.0 && !world.topology().scenario_links.empty()) {
    world.scheduler().schedule_after(sim::SimTime::seconds(cli->fail_link_at), [&world] {
      std::printf("[event] failing scenario link 0\n");
      world.network().set_link_pair_up(world.topology().scenario_links[0], false);
    });
  }

  std::printf("running %s over %s (%s mode, %.1fs, seed %llu)\n", app::to_string(*application),
              cli->topology.c_str(), cli->mode.c_str(), cli->duration,
              static_cast<unsigned long long>(cli->seed));
  const auto out = run_scenario(world, opt);

  std::printf("\nclass     : %s\n", mantts::to_string(out.tsc));
  std::printf("config    : %s\n", out.config.describe().c_str());
  std::printf("verdict   : %s\n", out.qos.verdict().c_str());
  std::printf("throughput: %sbps\n",
              unites::format_si(out.qos.achieved_throughput_bps).c_str());
  std::printf("delay     : mean %.2fms  max %.2fms  jitter %.3fms\n",
              static_cast<double>(out.qos.mean_latency_ns) * 1e-6,
              static_cast<double>(out.qos.max_latency_ns) * 1e-6,
              static_cast<double>(out.qos.jitter_ns) * 1e-6);
  std::printf("loss      : %.2f%%  misordered %llu  duplicates %llu\n",
              out.qos.loss_fraction * 100.0,
              static_cast<unsigned long long>(out.qos.misordered),
              static_cast<unsigned long long>(out.qos.duplicates));
  std::printf("reliability: retx %llu  timeouts %llu  fec-recoveries(rx) %llu\n",
              static_cast<unsigned long long>(out.reliability.retransmissions),
              static_cast<unsigned long long>(out.reliability.timeouts),
              static_cast<unsigned long long>(out.receiver_reliability.fec_recoveries));
  std::printf("segues    : %u\n", out.reconfigurations);
  if (out.qos.windowed) {
    std::printf("conformance: in-contract %.1f%%  windows %llu (%llu bad)  "
                "breaches %llu  budget %.0f%%  qoe %.3f\n",
                out.conformance.time_in_contract * 100.0,
                static_cast<unsigned long long>(out.conformance.windows.size()),
                static_cast<unsigned long long>(out.conformance.windows_bad),
                static_cast<unsigned long long>(out.conformance.breaches),
                out.conformance.budget_consumed * 100.0, out.conformance.qoe);
  }
  std::printf("invariants: %s\n", out.oracle.describe().c_str());
  if (opt.faults.has_value()) {
    std::printf("faults    : %llu episodes  detected %llu  recovered %llu\n",
                static_cast<unsigned long long>(out.fault.episodes_started),
                static_cast<unsigned long long>(out.mantts.faults_detected),
                static_cast<unsigned long long>(out.mantts.recoveries));
    std::printf("renegotiation: acked %llu  retries %llu  failed %llu  qos-downgrades %llu\n",
                static_cast<unsigned long long>(out.mantts.renegotiations),
                static_cast<unsigned long long>(out.mantts.reconfig_retries),
                static_cast<unsigned long long>(out.mantts.renegotiation_failures),
                static_cast<unsigned long long>(out.mantts.qos_downgrades));
  }
  if (cli->trace) {
    std::printf("\nlast interpreter steps (sender session):\n%s", out.trace_text.c_str());
  }
  std::printf("memory    : pool high-water %llu B  session high-water %llu B  copies %llu\n",
              static_cast<unsigned long long>(out.resource.pool_high_water_bytes()),
              static_cast<unsigned long long>(out.resource.session_high_water_bytes()),
              static_cast<unsigned long long>(out.resource.total_copies()));
  if (!cli->timeline_out.empty()) {
    unites::Timeline timeline = out.timeline;
    for (auto& p : timeline) p.seed = cli->seed;
    if (!export_file(cli->timeline_out, "timeline",
                     [&](std::ostream& o) { unites::write_timeline_jsonl(o, timeline); }) ||
        !export_file(cli->timeline_out + ".chrome.json", "timeline",
                     [&](std::ostream& o) { unites::write_timeline_chrome(o, timeline); })) {
      return 1;
    }
    std::printf("timeline  : %zu points -> %s (+ .chrome.json counter tracks)\n", timeline.size(),
                cli->timeline_out.c_str());
  }
  if (!cli->qos_out.empty()) {
    if (!export_file(cli->qos_out, "qos",
                     [&](std::ostream& o) { o << out.conformance.to_json() << '\n'; })) {
      return 1;
    }
    std::printf("qos       : conformance report -> %s\n", cli->qos_out.c_str());
  }

  if (program.has_value()) {
    // The session is closed by now; report against whatever the
    // repository holds for the sender host.
    std::printf("\nUNITES report (sender host):\n");
    for (const auto& key : world.repository().keys_for_host(world.host(0).node_id())) {
      (void)key;
      break;
    }
    // Reports are per-connection; use the most recent session's id space.
    // For simplicity report on every connection the repository saw.
    std::set<std::uint32_t> conns;
    for (const auto& key : world.repository().keys_for_host(world.host(0).node_id())) {
      conns.insert(key.connection);
    }
    for (const auto c : conns) {
      std::printf("%s\n",
                  unites::run_reports(*program, world.repository(), world.host(0).node_id(), c)
                      .c_str());
    }
  }

  if (!cli->trace_out.empty()) {
    if (!export_file(cli->trace_out, "trace",
                     [](std::ostream& o) { unites::write_chrome_trace(o, unites::trace()); })) {
      return 1;
    }
    std::printf("\ntrace     : %zu events -> %s (%llu dropped; open in Perfetto)\n",
                unites::trace().size(), cli->trace_out.c_str(),
                static_cast<unsigned long long>(unites::trace().dropped()));
  }
  if (!cli->metrics_out.empty()) {
    if (!export_file(cli->metrics_out, "metrics", [&](std::ostream& o) {
          unites::write_metrics_jsonl(o, world.repository());
        })) {
      return 1;
    }
    std::printf("metrics   : %zu series -> %s\n", world.repository().series_count(),
                cli->metrics_out.c_str());
  }
  if (!cli->profile_out.empty()) {
    const unites::ProfileTree tree = unites::Profiler::current().snapshot();
    // Single run: wall time is the perf signal, include it.
    if (!export_file(cli->profile_out, "profile",
                     [&](std::ostream& o) { unites::write_profile_collapsed(o, tree); }) ||
        !export_file(cli->profile_out + ".json", "profile", [&](std::ostream& o) {
          unites::write_profile_json(o, tree, /*include_wall=*/true);
        })) {
      return 1;
    }
    std::printf("profile   : %zu zones -> %s (+ .json, with wall time)\n", tree.zone_count(),
                cli->profile_out.c_str());
  }
  if (!cli->span_out.empty()) {
    auto spans = unites::assemble_spans(unites::trace().snapshot());
    for (auto& s : spans) s.seed = cli->seed;
    if (!export_file(cli->span_out, "span",
                     [&](std::ostream& o) { unites::write_spans_chrome(o, spans); })) {
      return 1;
    }
    std::printf("spans     : %zu message lifecycles -> %s (open in Perfetto)\n", spans.size(),
                cli->span_out.c_str());
  }
  return 0;
}
