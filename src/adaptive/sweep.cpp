#include "adaptive/sweep.hpp"

#include "unites/export.hpp"
#include "unites/flight_recorder.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace adaptive {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof v); }

void fnv_str(std::uint64_t& h, const char* s) {
  // Hash contents, not pointers: the same event emitted from two builds
  // (or two shards) must digest identically.
  if (s == nullptr) {
    fnv_u64(h, 0);
    return;
  }
  const std::size_t n = std::strlen(s);
  fnv_u64(h, n + 1);
  fnv_bytes(h, s, n);
}

/// One scenario shard's run record: the summary every sweep keeps plus
/// what only scenario sweeps fold.
struct ScenarioShard {
  SweepRunSummary summary;
  unites::ProfileTree profile;
  bool flight_dumped = false;
};

/// Strict decimal seed: the whole token is digits and fits in 64 bits.
/// std::from_chars takes no sign, skips no whitespace and reports
/// overflow instead of saturating.
bool parse_seed(std::string_view tok, std::uint64_t& v) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  return ec == std::errc{} && ptr == end;
}

/// The mechanism zone accountable for a violated invariant: loss and
/// stall rules belong to the reliability scheme that was in force;
/// duplicate and ordering rules to the sequencing slot.
std::string owning_zone(const std::string& rule, const tko::sa::SessionConfig& cfg) {
  if (rule == "no-duplicates" || rule == "in-order") return "sequencing.offer";
  const char* scheme = "none";
  switch (cfg.recovery) {
    case tko::sa::RecoveryScheme::kNone: scheme = "none"; break;
    case tko::sa::RecoveryScheme::kGoBackN: scheme = "gbn"; break;
    case tko::sa::RecoveryScheme::kSelectiveRepeat: scheme = "sr"; break;
    case tko::sa::RecoveryScheme::kForwardErrorCorrection: scheme = "fec"; break;
  }
  std::string zone = "reliability.";
  zone += scheme;
  return zone;
}

}  // namespace

std::uint64_t trace_digest(const std::vector<unites::TraceEvent>& events) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, events.size());
  for (const auto& e : events) {
    fnv_u64(h, static_cast<std::uint64_t>(e.when.ns()));
    fnv_u64(h, static_cast<std::uint64_t>(e.duration.ns()));
    fnv_str(h, e.name);
    fnv_str(h, e.detail);
    fnv_u64(h, static_cast<std::uint64_t>(e.category));
    fnv_u64(h, e.node);
    fnv_u64(h, e.session);
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof e.value);
    std::memcpy(&bits, &e.value, sizeof bits);
    fnv_u64(h, bits);
  }
  return h;
}

std::vector<std::uint64_t> parse_seed_set(const std::string& text, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + " in '" + text + "'";
    return std::vector<std::uint64_t>{};
  };
  if (text.empty()) return fail("empty seed set");
  const std::string_view all(text);
  std::vector<std::uint64_t> out;
  if (const auto range = all.find(".."); range != std::string_view::npos) {
    const std::string_view lo_tok = all.substr(0, range);
    const std::string_view hi_tok = all.substr(range + 2);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    if (!parse_seed(lo_tok, lo)) return fail("bad range start '" + std::string(lo_tok) + "'");
    if (!parse_seed(hi_tok, hi)) return fail("bad range end '" + std::string(hi_tok) + "'");
    if (hi < lo) return fail("range end below start");
    if (hi - lo >= 1'000'000) return fail("seed range too large (max 1e6 seeds)");
    // Count up from lo rather than compare against hi: a range ending at
    // the largest seed must not wrap.
    for (std::uint64_t k = 0; k <= hi - lo; ++k) out.push_back(lo + k);
    return out;
  }
  std::unordered_set<std::uint64_t> seen;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = std::min(all.find(',', pos), all.size());
    const std::string_view tok = all.substr(pos, comma - pos);
    std::uint64_t v = 0;
    if (tok.empty()) return fail("empty seed list item");
    if (!parse_seed(tok, v)) return fail("bad seed '" + std::string(tok) + "'");
    if (!seen.insert(v).second) {
      // Two shards of one seed would race on its seed-named exports.
      return fail("duplicate seed '" + std::string(tok) + "'");
    }
    out.push_back(v);
    if (comma == all.size()) return out;
    pos = comma + 1;
  }
}

std::vector<std::uint64_t> sweep_seeds(std::vector<std::uint64_t> seeds, std::size_t count,
                                       std::uint64_t base_seed) {
  if (!seeds.empty() || count == 0) return seeds;
  const sim::Rng base(base_seed);
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(base.fork(i).next_u64());
  return seeds;
}

sim::ChaosProfile size_chaos_profile(sim::ChaosProfile base, const World& world,
                                     const RunOptions& opt, std::size_t max_faults) {
  base.link_count = std::max<std::size_t>(1, world.topology().scenario_links.size());
  base.horizon_sec = opt.duration.sec();
  base.max_faults = max_faults;
  base.min_faults = std::min<std::size_t>(base.min_faults, max_faults);
  // Mobility sizing: the caller's profile says how much churn it wants
  // (max_handovers / max_membership_events); the world says what is
  // physically there. A fixed topology zeroes the handover plane out.
  base.attachment_count = world.topology().attachments.size();
  base.mobile_host = world.topology().mobile_host;
  const std::size_t hosts = std::max<std::size_t>(2, world.topology().hosts.size());
  if (base.churn_host_base >= hosts) {
    base.churn_host_count = 0;
  } else {
    base.churn_host_count = std::min(base.churn_host_count, hosts - base.churn_host_base);
  }
  return base;
}

SweepResult run_sweep(const SweepConfig& cfg) {
  if (!cfg.topology) throw std::invalid_argument("run_sweep: cfg.topology is required");

  // A flight recorder needs the evidence even when the caller didn't ask
  // for it in the sweep result: force per-shard trace + profile capture.
  const bool flight_armed = !cfg.flight_recorder_dir.empty();
  const bool want_trace = cfg.capture_trace || cfg.capture_spans || flight_armed;
  const bool want_profile = cfg.capture_profile || flight_armed;

  const auto shard = [&](std::uint64_t seed, ShardYield& yield) {
    ScenarioShard unit;

    // Shard-local profiler, installed as the thread's current one. The
    // World binds its scheduler as the virtual clock on construction.
    unites::Profiler profiler;
    if (want_profile) profiler.enable();
    unites::ScopedProfiler scoped_prof(profiler);

    World world(cfg.topology(seed));
    unites::TraceRecorder& ring = world.trace();
    if (want_trace) ring.enable(cfg.trace_capacity);
    RunOptions opt = cfg.base;
    opt.seed = seed;
    if (cfg.capture_timeline) opt.timeline_period = cfg.timeline_period;
    // A profile that only asks for mobility events (pure handover/churn
    // plan, no impairments) still derives a per-seed plan with chaos == 0.
    const bool wants_mobility = cfg.chaos_profile.max_handovers > 0 ||
                                cfg.chaos_profile.max_membership_events > 0;
    if (cfg.chaos > 0 || wants_mobility) {
      const sim::ChaosProfile prof =
          size_chaos_profile(cfg.chaos_profile, world, opt, cfg.chaos);
      opt.faults = sim::ChaosPlanGenerator(prof).generate(seed);
      unit.summary.chaos_plan = opt.faults->describe();
    }
    RunOutcome outcome = run_scenario(world, opt);

    // One snapshot of the shard's ring feeds the spans, the sweep result
    // and the flight bundle.
    std::vector<unites::TraceEvent> trace;
    if (want_trace) trace = ring.snapshot();
    std::vector<unites::MessageSpan> spans;
    if (cfg.capture_spans || flight_armed) {
      spans = unites::assemble_spans(trace);
      for (auto& s : spans) s.seed = seed;
    }
    if (cfg.capture_spans) {
      // Latency breakdown histograms land in the shard repository before
      // the fold, so merged metrics carry them like any other series.
      unites::record_span_breakdown(spans, world.repository());
    }

    yield.repo = std::move(world.repository());
    if (cfg.capture_trace) yield.trace_emitted = ring.emitted();
    if (want_profile) unit.profile = profiler.snapshot();
    unit.summary.seed = seed;
    unit.summary.qos_pass = outcome.qos.all_ok() && !outcome.refused;
    unit.summary.refused = outcome.refused;
    unit.summary.throughput_bps = outcome.qos.achieved_throughput_bps;
    unit.summary.mean_latency_ns = outcome.qos.mean_latency_ns;
    unit.summary.loss_fraction = outcome.qos.loss_fraction;
    unit.summary.units_received = outcome.sink.units_received;
    unit.summary.reconfigurations = outcome.reconfigurations;
    unit.summary.violations = outcome.oracle.violations.size();
    if (!outcome.oracle.ok()) unit.summary.violation_detail = outcome.oracle.describe();
    unit.summary.copies = outcome.resource.total_copies();
    unit.summary.copied_bytes = outcome.resource.total_copied_bytes();
    unit.summary.allocations = outcome.resource.total_allocations();
    unit.summary.pool_high_water_bytes = outcome.resource.pool_high_water_bytes();
    unit.summary.session_high_water_bytes = outcome.resource.session_high_water_bytes();
    unit.summary.sessions = outcome.resource.sessions.size();
    unit.summary.units_sent = outcome.source.units_sent;
    if (outcome.mobility.armed) {
      const auto& mob = outcome.mobility;
      unit.summary.handovers = mob.controller.handovers_completed;
      unit.summary.membership_events = mob.controller.joins + mob.controller.leaves;
      unit.summary.blackout_max_sec = mob.blackout_max_sec();
      unit.summary.blackouts_sec = mob.blackouts_sec;
      unit.summary.stragglers_dropped = mob.stragglers_dropped;
      unit.summary.anchors_sent = mob.anchors_sent;
      unit.summary.resyntheses = outcome.mantts.resyntheses;
      unit.summary.synthesis_current = mob.synthesis_current;
    }
    unit.summary.time_in_contract = outcome.qos.time_in_contract;
    unit.summary.qos_windows = outcome.conformance.windows.size();
    unit.summary.qos_windows_bad = outcome.conformance.windows_bad;
    unit.summary.qos_breaches = outcome.conformance.breaches;
    unit.summary.qos_budget_consumed = outcome.conformance.budget_consumed;
    unit.summary.qoe = outcome.conformance.qoe;
    unit.summary.first_breach_ns = outcome.conformance.first_breach_ns;
    if (cfg.capture_timeline) {
      yield.timeline = std::move(outcome.timeline);
      for (auto& p : yield.timeline) p.seed = seed;
    }

    // Post-mortem: the shard that observed the failure ships the bundle
    // (seed-named file — parallel shards never contend on a path).
    const bool stall_unrecovered =
        outcome.session.watchdog_stalls > outcome.session.watchdog_recoveries;
    // Breach-armed diagnostics: a session that exhausted its error budget
    // on a *fault-free* run (no scripted plan, no chaos) is a QoS failure
    // nobody injected — exactly when a post-mortem bundle pays off.
    const bool qos_breach_armed = outcome.conformance.budget_consumed >= 1.0 &&
                                  !opt.faults.has_value() && cfg.chaos == 0;
    if (flight_armed && (!outcome.oracle.ok() || stall_unrecovered || qos_breach_armed ||
                         cfg.flight_record_always)) {
      unites::FlightBundle bundle;
      bundle.seed = seed;
      bundle.reason = !outcome.oracle.ok()  ? "invariant-violation"
                      : stall_unrecovered   ? "watchdog-stall"
                      : qos_breach_armed    ? "qos-breach"
                                            : "replay";
      for (const auto& v : outcome.oracle.violations) {
        bundle.violations.push_back(
            unites::FlightViolation{v.rule, v.detail, owning_zone(v.rule, outcome.config)});
      }
      bundle.session_config = outcome.config.describe();
      bundle.context = outcome.context_text;
      if (opt.faults.has_value()) bundle.fault_plan = opt.faults->describe();
      bundle.chaos_plan = unit.summary.chaos_plan;
      std::ostringstream metrics;
      unites::write_metrics_jsonl(metrics, yield.repo);
      bundle.metrics_jsonl = metrics.str();
      bundle.resource_json = outcome.resource.to_json();
      if (outcome.qos.windowed) bundle.conformance_json = outcome.conformance.to_json();
      bundle.trace = trace;
      for (const auto& s : spans) {
        if (s.open()) bundle.open_spans.push_back(s);
      }
      bundle.spans_total = spans.size();
      bundle.profile = profiler.snapshot();
      unites::FlightRecorder(cfg.flight_recorder_dir).dump(bundle);
      unit.flight_dumped = true;
    }
    if (cfg.capture_trace) yield.trace = std::move(trace);
    if (cfg.capture_spans) yield.spans = std::move(spans);
    return unit;
  };
  auto fold =
      fold_shards<ScenarioShard>(sweep_seeds(cfg.seeds, cfg.count, cfg.base_seed), cfg.jobs, shard);

  SweepResult out;
  out.merged = std::move(fold.merged);
  out.trace = std::move(fold.trace);
  out.trace_events_emitted = fold.trace_events_emitted;
  out.trace_digest = fold.trace_digest;
  out.spans = std::move(fold.spans);
  out.timeline = std::move(fold.timeline);
  out.runs.reserve(fold.runs.size());
  for (auto& unit : fold.runs) {
    out.runs.push_back(std::move(unit.summary));
    if (cfg.capture_profile) out.profile.merge(unit.profile);
    if (unit.flight_dumped) ++out.flight_bundles;
  }
  return out;
}

}  // namespace adaptive
