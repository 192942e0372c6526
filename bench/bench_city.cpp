// Metro-scale session-plane experiment (DESIGN §14).
//
// The paper pitches ADAPTIVE for "collaborative work environments in a
// metropolitan area" — many hosts, each multiplexing a large population
// of mostly-similar multimedia sessions. This bench is that shape: one
// World ramps tens of thousands of sessions across an 8-host LAN, holds
// them under open/close churn while every session carries timestamped
// messages, then tears the city down. It gates on the session-plane
// properties that make the shape sustainable:
//
//   * mantts.cache_hit_rate     — Stage I/II synthesis memoization serves
//                                 >= 90% of opens in the homogeneous phase
//   * mem.bytes_per_session     — pinned payload bytes per live session
//   * city.latency_p999_ns      — end-to-end p99.9 under churn
//   * city.pool_leak_bytes      — pool gauge returns to baseline (0)
//   * city.residual_sessions    — reaper empties every session table (0)
//   * city.digest_match         — jobs=1 vs jobs=N sweeps byte-identical
//
// Wall-clock throughput (city.sessions_per_sec_synthesized) is reported
// for trend-watching but never gated: it measures the host, not the code.
#include "adaptive/city.hpp"
#include "common.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace adaptive;

namespace {

struct SweepFingerprint {
  std::uint64_t trace_digest = 0;
  std::string metrics_jsonl;
  std::uint64_t opened = 0;
  std::uint64_t delivered = 0;
};

SweepFingerprint city_sweep_at(std::size_t jobs, const CityOptions& base, std::size_t seeds) {
  const auto res = run_city_sweep(base, sweep_seeds({}, seeds, 7), jobs, /*capture_trace=*/true);
  SweepFingerprint fp;
  fp.trace_digest = res.trace_digest;
  std::ostringstream jsonl;
  unites::write_metrics_jsonl(jsonl, res.merged);
  fp.metrics_jsonl = jsonl.str();
  for (const CityOutcome& run : res.runs) {
    fp.opened += run.opened;
    fp.delivered += run.messages_delivered;
  }
  return fp;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t sessions_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions_override = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }

  CityOptions opt;
  // Each driver-side open creates an active endpoint plus its passive
  // mirror, so transport-layer concurrency is ~2x this number: the full
  // run holds >= 100k concurrent sessions in one World.
  opt.sessions = sessions_override != 0 ? sessions_override : (smoke ? 2'000 : 60'000);
  opt.churn_cycles = opt.sessions / 5;
  opt.messages_per_session = 2;
  opt.message_bytes = 64;
  opt.acd_variants = 1;  // homogeneous phase: the cache should serve almost every open
  // Virtual-time windows scale with the population: every open's first
  // message and every close's FIN exchange must fit under the per-host
  // 10 Mb/s ethernet links, or queueing (not the session plane) dominates
  // the numbers. Wall cost is event-count-bound, so the longer virtual
  // windows of the full run are free.
  opt.ramp = smoke ? sim::SimTime::seconds(2) : sim::SimTime::seconds(30);
  opt.hold = smoke ? sim::SimTime::seconds(2) : sim::SimTime::seconds(10);
  opt.drain = smoke ? sim::SimTime::seconds(2) : sim::SimTime::seconds(40);
  opt.seed = 1;

  bench::banner("E-X11 CITY", "metro-scale session plane: sharded table + synthesis cache");
  std::printf("workload: %zu sessions (x2 endpoints) over 8-host ethernet, %zu churn cycles, "
              "%zu msgs/session\n\n",
              opt.sessions, opt.churn_cycles, opt.messages_per_session);

  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, 1); },
              os::CpuConfig{}, city_limits(opt));
  const auto t0 = std::chrono::steady_clock::now();
  const CityOutcome out = run_city(world, opt);
  const double wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const std::int64_t pool_leak = static_cast<std::int64_t>(out.pool_live_bytes_final) -
                                 static_cast<std::int64_t>(out.pool_live_bytes_baseline);
  std::printf("opened             : %llu (refused %llu)\n",
              static_cast<unsigned long long>(out.opened),
              static_cast<unsigned long long>(out.refused));
  std::printf("peak concurrent    : %zu transport sessions (%zu driver-side)\n",
              out.peak_transport_sessions, out.peak_active);
  std::printf("messages           : %llu sent, %llu delivered, %llu rejected\n",
              static_cast<unsigned long long>(out.messages_sent),
              static_cast<unsigned long long>(out.messages_delivered),
              static_cast<unsigned long long>(out.send_rejected));
  std::printf("latency            : p50 %.3fms  p99 %.3fms  p99.9 %.3fms\n",
              out.latency_ns.p50() / 1e6, out.latency_ns.p99() / 1e6,
              out.latency_ns.p999() / 1e6);
  std::printf("synthesis cache    : %llu hits / %llu misses (%.4f hit rate), %llu evictions\n",
              static_cast<unsigned long long>(out.cache.hits),
              static_cast<unsigned long long>(out.cache.misses), out.cache_hit_rate,
              static_cast<unsigned long long>(out.cache.evictions));
  std::printf("session table      : %llu inserts, %llu erases, max probe %llu, %llu rehashes\n",
              static_cast<unsigned long long>(out.table.inserts),
              static_cast<unsigned long long>(out.table.erases),
              static_cast<unsigned long long>(out.table.max_probe),
              static_cast<unsigned long long>(out.table.rehashes));
  std::printf("bytes/session      : %.1f (peak pinned, %zu sessions sampled)\n",
              out.bytes_per_session, out.peak_snapshot_sessions);
  std::printf("teardown           : %llu reaped, %zu residual, pool leak %lld bytes\n",
              static_cast<unsigned long long>(out.reaped), out.residual_sessions,
              static_cast<long long>(pool_leak));
  std::printf("wall               : %.2fs (%.0f sessions/sec synthesized)\n\n", wall_sec,
              static_cast<double>(out.opened) / wall_sec);

  // Determinism: the same small city swept serial and parallel must merge
  // byte-identically (trace digest + canonical metrics JSONL).
  CityOptions det = opt;
  det.sessions = 500;
  det.churn_cycles = 100;
  const std::size_t det_seeds = 4;
  const std::size_t det_jobs = smoke ? 2 : 8;
  const SweepFingerprint serial = city_sweep_at(1, det, det_seeds);
  const SweepFingerprint parallel = city_sweep_at(det_jobs, det, det_seeds);
  const bool digest_match = serial.trace_digest == parallel.trace_digest &&
                            serial.metrics_jsonl == parallel.metrics_jsonl &&
                            serial.opened == parallel.opened &&
                            serial.delivered == parallel.delivered;
  std::printf("determinism        : jobs=1 vs jobs=%zu %s (digest %016llx)\n", det_jobs,
              digest_match ? "byte-identical" : "DIVERGED",
              static_cast<unsigned long long>(serial.trace_digest));

  bench::Report report("city");
  report.scalar("sessions", static_cast<double>(opt.sessions));
  report.scalar("churn_cycles", static_cast<double>(opt.churn_cycles));
  report.scalar("opened", static_cast<double>(out.opened));
  report.scalar("peak_transport_sessions", static_cast<double>(out.peak_transport_sessions));
  report.scalar("messages_delivered", static_cast<double>(out.messages_delivered));
  report.scalar("cache_evictions", static_cast<double>(out.cache.evictions));
  report.scalar("table_max_probe", static_cast<double>(out.table.max_probe));
  report.trajectory("mantts.cache_hit_rate", out.cache_hit_rate);
  report.trajectory("mem.bytes_per_session", out.bytes_per_session);
  report.trajectory("city.bytes_per_session", out.bytes_per_session);
  report.trajectory("city.latency_p999_ns", out.latency_ns.p999());
  report.trajectory("city.pool_leak_bytes", static_cast<double>(pool_leak));
  report.trajectory("city.residual_sessions", static_cast<double>(out.residual_sessions));
  report.trajectory("city.digest_match", digest_match ? 1.0 : 0.0);
  report.trajectory("city.sessions_per_sec_synthesized",
                    static_cast<double>(out.opened) / wall_sec);
  report.dist("latency.ns").merge(out.latency_ns);
  report.write();

  // Hard gates (virtual-time deterministic, sanitizer-safe).
  bool ok = true;
  if (out.opened != opt.sessions + opt.churn_cycles || out.refused != 0) {
    std::printf("GATE FAILED: %llu/%zu opens completed (%llu refused)\n",
                static_cast<unsigned long long>(out.opened),
                opt.sessions + opt.churn_cycles,
                static_cast<unsigned long long>(out.refused));
    ok = false;
  }
  if (out.cache_hit_rate < 0.9) {
    std::printf("GATE FAILED: homogeneous cache hit rate %.4f < 0.9\n", out.cache_hit_rate);
    ok = false;
  }
  if (!digest_match) {
    std::printf("GATE FAILED: jobs=1 vs jobs=%zu sweeps diverged\n", det_jobs);
    ok = false;
  }
  if (out.residual_sessions != 0 || pool_leak != 0) {
    std::printf("GATE FAILED: teardown left %zu sessions, %lld leaked pool bytes\n",
                out.residual_sessions, static_cast<long long>(pool_leak));
    ok = false;
  }
  if (!smoke && sessions_override == 0 && out.peak_transport_sessions < 100'000) {
    std::printf("GATE FAILED: peak concurrency %zu < 100000\n", out.peak_transport_sessions);
    ok = false;
  }
  std::printf("\ncity gates: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
