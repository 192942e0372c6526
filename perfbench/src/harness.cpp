#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <stdexcept>
#include <sys/resource.h>

namespace perfbench {

namespace ad = adaptive;

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void busy_wait_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

void TimedPhase::start() {
  wall_start_ = wall_now();
  cpu_start_ = cpu_now();
}

void TimedPhase::stop() {
  cpu_end_ = cpu_now();
  wall_end_ = wall_now();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::uint64_t nearest_rank(std::uint64_t n, double q) {
  // Guard the product against binary rounding (0.999 * 1000 must be 999).
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, n);
}
}  // namespace

double quantile_nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no values");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<TailPercentile> highest_supported_tail(const std::vector<double>& sorted) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const std::uint64_t beyond = samples_beyond(sorted.size(), p / 100.0);
    if (beyond >= kTailSamples) {
      return TailPercentile{p, quantile_nearest_rank(sorted, p / 100.0), beyond, sorted.size()};
    }
  }
  return std::nullopt;
}

std::optional<double> p999_if_supported(const std::vector<double>& sorted) {
  if (samples_beyond(sorted.size(), 0.999) < kTailSamples) return std::nullopt;
  return quantile_nearest_rank(sorted, 0.999);
}

double success_fraction(double delivered, double owed) {
  if (owed <= 0) throw std::invalid_argument("success_fraction: nothing owed");
  return delivered / owed;
}

double units_owed(double units_attempted, double receivers) { return units_attempted * receivers; }

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TraceSwitch& trace_switch() {
  static TraceSwitch s;
  return s;
}

Span::Span(const char* zone) : scope_(zone), zone_(zone) {
  if (trace_switch().on) start_ = wall_now();
}

Span::~Span() {
  if (trace_switch().on) trace_switch().call_us[zone_].push_back((wall_now() - start_) * 1e6);
}

// ---------------------------------------------------------------------------
// Attribution
// ---------------------------------------------------------------------------

const std::vector<std::string>& timed_layers() {
  static const std::vector<std::string> layers = {
      "net", "tko.transport", "tko.reliability", "tko.control", "mantts", "app", "unites"};
  return layers;
}

std::string layer_of_zone(std::string_view zone) {
  const auto starts = [&](std::string_view p) { return zone.substr(0, p.size()) == p; };
  if (starts("bench.")) {
    zone.remove_prefix(6);
    const auto dot = zone.rfind('.');
    return dot == std::string_view::npos ? std::string() : std::string(zone.substr(0, dot));
  }
  if (starts("net.")) return "net";
  if (starts("transport.")) return "tko.transport";
  if (starts("reliability.")) return "tko.reliability";
  if (starts("ack.") || starts("sequencing.") || starts("connection.") || starts("context.")) {
    return "tko.control";
  }
  if (starts("mantts.")) return "mantts";
  if (starts("app.")) return "app";
  return "";
}

namespace {
void sum_node(const ad::unites::ProfileNode& n, std::map<std::string, double>& out) {
  const std::string layer = layer_of_zone(n.name);
  if (!layer.empty()) out[layer] += static_cast<double>(n.wall_ns) * 1e-6;
  for (const auto& c : n.children) sum_node(c, out);
}
}  // namespace

std::map<std::string, double> layer_self_ms(const ad::unites::ProfileTree& tree) {
  std::map<std::string, double> out;
  for (const auto& root : tree.roots) {
    for (const auto& c : root.children) sum_node(c, out);
  }
  return out;
}

Attribution attribute(double traced_total_ms, const std::map<std::string, double>& layer_ms) {
  Attribution a;
  double attributed = 0;
  for (const auto& layer : timed_layers()) {
    const auto it = layer_ms.find(layer);
    const double ms = it == layer_ms.end() ? 0.0 : it->second;
    a.layer_ms[layer] = ms;
    attributed += ms;
  }
  a.unattributed_ms = traced_total_ms - attributed;
  a.unattributed_share = traced_total_ms > 0 ? a.unattributed_ms / traced_total_ms : 0.0;
  return a;
}

// ---------------------------------------------------------------------------
// Counter harvest
// ---------------------------------------------------------------------------

void WorldCounts::add(ad::World& world) {
  events += static_cast<double>(world.scheduler().executed_events());
  auto& net = world.network();
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const auto& ls = net.link(static_cast<ad::net::LinkId>(i)).stats();
    link_packets += static_cast<double>(ls.tx_packets);
    link_bytes += static_cast<double>(ls.tx_bytes);
    drops += static_cast<double>(ls.queue_drops + ls.mtu_drops + ls.down_drops);
    corrupted += static_cast<double>(ls.bit_errors + ls.corrupted);
  }
  double high_water = 0;
  for (std::size_t h = 0; h < world.host_count(); ++h) {
    auto& host = world.host(h);
    const auto& pool = host.buffers().stats();
    allocations += static_cast<double>(pool.allocations);
    copies += static_cast<double>(pool.copies);
    copied_bytes += static_cast<double>(pool.copied_bytes);
    high_water += static_cast<double>(pool.high_water_bytes);
    const auto& cpu = host.cpu().stats();
    instructions += static_cast<double>(cpu.instructions);
    interrupts += static_cast<double>(cpu.interrupts);
    const auto& table = world.transport(h).table_stats();
    table_finds += static_cast<double>(table.finds);
    table_probe_steps += static_cast<double>(table.probe_steps);
    table_rehashes += static_cast<double>(table.rehashes);
    auto& entity = world.mantts(h);
    const auto& cache = entity.synthesis_cache().stats();
    cache_hits += static_cast<double>(cache.hits);
    cache_misses += static_cast<double>(cache.misses);
    const auto& ms = entity.stats();
    opens += static_cast<double>(ms.sessions_opened);
    renegotiations += static_cast<double>(ms.renegotiations);
    reconfig_retries += static_cast<double>(ms.reconfig_retries);
    renegotiation_failures += static_cast<double>(ms.renegotiation_failures);
    policy_firings += static_cast<double>(ms.policy_firings);
  }
  pool_high_water_bytes = std::max(pool_high_water_bytes, high_water);
}

void SessionCounts::add(ad::tko::TransportSession& s) {
  const auto& st = s.stats();
  pdus_sent += static_cast<double>(st.pdus_sent);
  checksum_failures += static_cast<double>(st.checksum_failures);
  watchdog_stalls += static_cast<double>(st.watchdog_stalls);
  watchdog_recoveries += static_cast<double>(st.watchdog_recoveries);
  const auto& rel = s.context().reliability().stats();
  data_sent += static_cast<double>(rel.data_sent);
  retransmissions += static_cast<double>(rel.retransmissions);
  segues += static_cast<double>(s.context().reconfigurations());
}

void put_layer_counts(Exact& out, const WorldCounts& w, const SessionCounts& s, double units,
                      double payload_bytes) {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out["sim.events"] = w.events;
  out["sim.events_per_unit"] = per(w.events, units);
  out["net.packets_per_unit"] = per(w.link_packets, units);
  out["net.wire_bytes_per_payload_byte"] = per(w.link_bytes, payload_bytes);
  out["net.drops"] = w.drops;
  out["net.corrupted"] = w.corrupted;
  out["os.allocations_per_unit"] = per(w.allocations, units);
  out["os.copies_per_unit"] = per(w.copies, units);
  out["os.copied_bytes_per_unit"] = per(w.copied_bytes, units);
  out["os.pool_high_water_mb"] = w.pool_high_water_bytes / (1024.0 * 1024.0);
  out["os.cpu_instructions_per_unit"] = per(w.instructions, units);
  out["os.interrupts_per_unit"] = per(w.interrupts, units);
  out["tko.pdus_per_unit"] = per(s.pdus_sent, units);
  out["tko.retx_ratio"] = per(s.retransmissions, s.data_sent);
  out["tko.checksum_failures"] = s.checksum_failures;
  out["tko.watchdog_stalls"] = s.watchdog_stalls;
  out["tko.watchdog_recoveries"] = s.watchdog_recoveries;
  out["tko.segues"] = s.segues;
  out["tko.table_probes_per_find"] = per(w.table_probe_steps, w.table_finds);
  out["tko.table_rehashes"] = w.table_rehashes;
  out["mantts.opens"] = w.opens;
  out["mantts.cache_hit_rate"] = per(w.cache_hits, w.cache_hits + w.cache_misses);
  out["mantts.renegotiations"] = w.renegotiations;
  out["mantts.reconfig_retries"] = w.reconfig_retries;
  out["mantts.renegotiation_failures"] = w.renegotiation_failures;
  out["mantts.policy_firings"] = w.policy_firings;
}

void put_latency(Exact& out, const std::vector<double>& sorted_ms) {
  out["app.latency_samples"] = static_cast<double>(sorted_ms.size());
  if (sorted_ms.empty()) return;
  out["vt.latency_p50_ms"] = quantile_nearest_rank(sorted_ms, 0.5);
  if (const auto p = p999_if_supported(sorted_ms)) out["vt.latency_p999_ms"] = *p;
  if (const auto t = highest_supported_tail(sorted_ms)) {
    out["latency_tail_percentile"] = t->percentile;
    out["latency_tail_ms"] = t->value;
  }
}

}  // namespace perfbench
