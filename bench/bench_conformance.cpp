// E-X13 — live QoS conformance: streaming contract monitors vs a scripted
// degradation, judged on detection latency, false alarms, and determinism.
//
// A voice stream runs over a clean Ethernet LAN while the conformance
// monitor grades 250 ms virtual-time windows against a deliberately tight
// latency contract (30 ms mean, an order of magnitude above the LAN's
// clean-path delay). Mid-run a scripted +100 ms latency spike hits the
// sender's access link for two seconds, pushing every delivery far out of
// contract; the spike then clears and the stream returns to normal.
//
// Judged on the monitoring claims (DESIGN §16):
//  * detection latency: the breach episode is declared within <= 2 windows
//    of the first out-of-contract window (the hysteresis minimum — the
//    monitor never sits on a confirmed degradation);
//  * zero false breaches: the identical run without the fault ends with no
//    breach episodes and 100% time in contract;
//  * zero missed breaches: every spiked seed breaches, and recovers once
//    the spike clears (hysteresis exit on clean windows);
//  * determinism: a serial and a parallel sweep of the spiked scenario
//    produce identical trace digests and identical per-seed conformance
//    summaries, so any breach replays exactly.
//
// `--smoke` shrinks the seed set for CI gate duty.
#include "common.hpp"

#include "adaptive/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace adaptive;

namespace {

constexpr double kOnsetSec = 2.0;
constexpr double kSpikeSec = 2.0;
constexpr double kSpikeAddSec = 0.1;
constexpr std::int64_t kLatencyBoundNs = 30'000'000;  // 30 ms mean per window

mantts::QosContract tight_contract(sim::SimTime duration) {
  mantts::QosContract c;
  c.max_latency_ns = kLatencyBoundNs;
  c.max_jitter_ns = -1;       // latency is the graded dimension here
  c.loss_tolerance = 1.0;     // the spike delays, it does not drop
  c.sequenced = false;
  c.duplicate_sensitive = false;
  c.realtime = true;
  c.isochronous = true;
  c.duration_ns = duration.ns();
  return c;
}

RunOptions base_options(std::uint64_t seed, bool spiked) {
  RunOptions opt;
  opt.application = app::Table1App::kVoice;
  opt.mode = RunOptions::Mode::kManntts;
  opt.duration = sim::SimTime::seconds(6);
  opt.drain = sim::SimTime::seconds(3);
  opt.seed = seed;
  opt.qos_contract = tight_contract(opt.duration);
  if (spiked) {
    char plan[96];
    std::snprintf(plan, sizeof plan, "delay@%g+%g:link=0,add=%g", kOnsetSec, kSpikeSec,
                  kSpikeAddSec);
    opt.faults = sim::parse_fault_plan(plan);
  }
  return opt;
}

RunOutcome run_one(std::uint64_t seed, bool spiked) {
  World world([seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); });
  return run_scenario(world, base_options(seed, spiked));
}

SweepConfig sweep_config(std::size_t seed_count, std::size_t jobs) {
  SweepConfig sc;
  sc.topology = [](std::uint64_t seed) -> World::TopologyFactory {
    return [seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, seed); };
  };
  sc.base = base_options(1, /*spiked=*/true);
  sc.base.collect_metrics = true;
  sc.jobs = jobs;
  sc.capture_trace = true;
  sc.capture_timeline = true;
  sc.seeds.reserve(seed_count);
  for (std::uint64_t s = 1; s <= seed_count; ++s) sc.seeds.push_back(s);
  return sc;
}

bool conformance_fields_equal(const SweepRunSummary& a, const SweepRunSummary& b) {
  return a.time_in_contract == b.time_in_contract && a.qos_windows == b.qos_windows &&
         a.qos_windows_bad == b.qos_windows_bad && a.qos_breaches == b.qos_breaches &&
         a.qos_budget_consumed == b.qos_budget_consumed && a.qoe == b.qoe &&
         a.first_breach_ns == b.first_breach_ns;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t seed_count = smoke ? 4 : 12;
  const std::size_t sweep_seeds = smoke ? 4 : 8;

  bench::banner("E-X13", "live QoS conformance: breach detection under a scripted spike");
  std::printf("\nvoice over clean Ethernet, %lld ms mean-latency contract, "
              "+%.0f ms spike at t=%.0fs for %.0fs, %zu seeds%s\n\n",
              static_cast<long long>(kLatencyBoundNs / 1'000'000), kSpikeAddSec * 1e3,
              kOnsetSec, kSpikeSec, seed_count, smoke ? " (smoke)" : "");

  bench::Report report("conformance");
  const std::int64_t window_ns = unites::kConformanceWindow.ns();

  // --- spiked runs: detection latency + missed breaches -----------------
  std::size_t missed_breaches = 0;
  std::size_t unrecovered = 0;
  double detect_windows_max = 0.0;
  double tic_sum = 0.0, qoe_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= seed_count; ++seed) {
    const RunOutcome out = run_one(seed, /*spiked=*/true);
    const unites::SessionConformance& c = out.conformance;
    tic_sum += c.time_in_contract;
    qoe_sum += c.qoe;
    if (c.breaches == 0) {
      ++missed_breaches;
      std::printf("seed %llu: MISSED BREACH (windows %zu, bad %llu)\n",
                  static_cast<unsigned long long>(seed), c.windows.size(),
                  static_cast<unsigned long long>(c.windows_bad));
      continue;
    }
    if (c.recoveries == 0) ++unrecovered;
    // Detection latency: declaring-window close minus the first
    // out-of-contract window's start, in windows. The two-bad-window
    // hysteresis makes exactly 2.0 the floor for consecutive bads.
    std::int64_t first_bad_start = -1;
    for (const unites::WindowVerdict& w : c.windows) {
      if (!w.ok()) {
        first_bad_start = w.start_ns;
        break;
      }
    }
    const double detect_windows =
        first_bad_start < 0 ? 0.0
                            : static_cast<double>(c.first_breach_ns - first_bad_start) /
                                  static_cast<double>(window_ns);
    detect_windows_max = std::max(detect_windows_max, detect_windows);
    report.dist("detect_windows").add(detect_windows * 1000.0);  // milliwindows
    std::printf("seed %llu: %zu windows (%llu bad), breach after %.2f windows, "
                "%llu breach(es) %llu recover(ies), budget %.0f%%, in-contract %.1f%%, "
                "qoe %.3f\n",
                static_cast<unsigned long long>(seed), c.windows.size(),
                static_cast<unsigned long long>(c.windows_bad), detect_windows,
                static_cast<unsigned long long>(c.breaches),
                static_cast<unsigned long long>(c.recoveries), c.budget_consumed * 100.0,
                c.time_in_contract * 100.0, c.qoe);
  }

  // --- control runs: the same scenario, fault-free ----------------------
  std::size_t false_breaches = 0;
  double control_tic_min = 1.0;
  for (std::uint64_t seed = 1; seed <= seed_count; ++seed) {
    const RunOutcome out = run_one(seed, /*spiked=*/false);
    const unites::SessionConformance& c = out.conformance;
    false_breaches += c.breaches;
    control_tic_min = std::min(control_tic_min, c.time_in_contract);
  }
  std::printf("\ncontrol    : %zu fault-free seeds, %zu false breach(es), "
              "worst in-contract %.1f%%\n",
              seed_count, false_breaches, control_tic_min * 100.0);

  // --- determinism: serial vs parallel sweep of the spiked scenario -----
  const SweepResult serial = run_sweep(sweep_config(sweep_seeds, 1));
  const SweepResult parallel = run_sweep(sweep_config(sweep_seeds, 8));
  bool digests_match = serial.trace_digest == parallel.trace_digest &&
                       serial.timeline.size() == parallel.timeline.size();
  if (serial.runs.size() == parallel.runs.size()) {
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      digests_match = digests_match && conformance_fields_equal(serial.runs[i], parallel.runs[i]);
    }
  } else {
    digests_match = false;
  }
  std::printf("determinism: %zu-seed sweep jobs=1 vs jobs=8 -> %s "
              "(digest %016llx, %zu qos timeline points)\n",
              sweep_seeds, digests_match ? "identical" : "MISMATCH",
              static_cast<unsigned long long>(parallel.trace_digest), parallel.timeline.size());

  const bool detect_ok = detect_windows_max <= 2.0 + 1e-9;
  const bool pass = missed_breaches == 0 && false_breaches == 0 && unrecovered == 0 &&
                    detect_ok && digests_match;
  std::printf("\nacceptance: detect <= 2 windows %s, missed breaches %zu, false breaches %zu, "
              "unrecovered %zu, digests %s -> %s\n",
              detect_ok ? "yes" : "NO", missed_breaches, false_breaches, unrecovered,
              digests_match ? "match" : "MISMATCH", pass ? "PASS" : "FAIL");

  report.scalar("seeds", static_cast<double>(seed_count));
  report.trajectory("detect_windows_max", detect_windows_max);
  report.trajectory("missed_breaches", static_cast<double>(missed_breaches));
  report.trajectory("false_breaches", static_cast<double>(false_breaches));
  report.trajectory("digest_match", digests_match ? 1.0 : 0.0);
  report.trajectory("time_in_contract_mean", tic_sum / static_cast<double>(seed_count));
  report.scalar("unrecovered", static_cast<double>(unrecovered));
  report.scalar("qoe_mean", qoe_sum / static_cast<double>(seed_count));
  report.scalar("control_time_in_contract_min", control_tic_min);
  report.write();
  return pass ? 0 : 1;
}
