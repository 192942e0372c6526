#include "unites/conformance.hpp"

#include "unites/json_writer.hpp"
#include "unites/repository.hpp"
#include "unites/trace.hpp"

#include <algorithm>
#include <cmath>

namespace adaptive::unites {

const char* to_string(ContractHealth h) {
  switch (h) {
    case ContractHealth::kNone: return "none";
    case ContractHealth::kInContract: return "in-contract";
    case ContractHealth::kBurning: return "burning";
    case ContractHealth::kBreached: return "breached";
  }
  return "?";
}

void WindowStats::add_latency(std::int64_t latency_ns) {
  const auto l = static_cast<double>(latency_ns);
  sum_latency_ns += l;
  sum_sq_latency_ns += l * l;
  max_latency_ns = std::max(max_latency_ns, latency_ns);
}

std::int64_t WindowStats::mean_latency_ns() const {
  if (delivered == 0) return 0;
  return static_cast<std::int64_t>(sum_latency_ns / static_cast<double>(delivered));
}

std::int64_t WindowStats::jitter_ns() const {
  if (delivered < 2) return 0;
  const auto n = static_cast<double>(delivered);
  const double mean = sum_latency_ns / n;
  const double var = sum_sq_latency_ns / n - mean * mean;
  return var <= 0.0 ? 0 : static_cast<std::int64_t>(std::sqrt(var));
}

double WindowStats::loss_fraction() const {
  if (expected == 0) return 0.0;
  return static_cast<double>(lost) / static_cast<double>(expected);
}

double WindowStats::throughput_bps() const {
  if (span_ns <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 * 1e9 / static_cast<double>(span_ns);
}

const char* WindowVerdict::worst() const {
  if (!latency_ok) return "latency";
  if (!jitter_ok) return "jitter";
  if (!loss_ok) return "loss";
  if (!order_ok) return "order";
  if (!duplicates_ok) return "dup";
  if (!throughput_ok) return "throughput";
  return "ok";
}

void grade_window(const mantts::QosContract& c, const WindowStats& s, bool grade_throughput,
                  WindowVerdict& out) {
  out.latency_ok =
      c.max_latency_ns < 0 || s.delivered == 0 || s.mean_latency_ns() <= c.max_latency_ns;
  out.jitter_ok = c.max_jitter_ns < 0 || s.delivered < 2 || s.jitter_ns() <= c.max_jitter_ns;
  // Same epsilon the post-mortem evaluator always used: a loss fraction
  // computed from integer counts must not fail on representation noise.
  out.loss_ok = s.loss_fraction() <= c.loss_tolerance + 1e-9;
  out.order_ok = !c.sequenced || s.misordered == 0;
  out.duplicates_ok = !c.duplicate_sensitive || s.duplicates == 0;
  out.throughput_ok = !grade_throughput || c.min_throughput_bps <= 0.0 ||
                      s.throughput_bps() >= c.min_throughput_bps;
}

std::string SessionConformance::to_json() const {
  std::string out;
  detail::JsonWriter w(out);
  w.raw("{\"session\":").num(contract.session).raw(",\"host\":").num(contract.host);
  w.raw(",\"registrations\":").num(registrations);
  w.raw(",\"health\":\"").raw(to_string(health)).raw('"');
  w.raw(",\"time_in_contract\":").num(time_in_contract);
  w.raw(",\"budget_consumed\":").num(budget_consumed);
  w.raw(",\"fast_burn\":").num(fast_burn).raw(",\"slow_burn\":").num(slow_burn);
  w.raw(",\"breaches\":").num(breaches).raw(",\"recoveries\":").num(recoveries);
  w.raw(",\"first_breach_ns\":").num(first_breach_ns).raw(",\"qoe\":").num(qoe);
  w.raw(",\"units_sent\":").num(units_sent).raw(",\"windows_bad\":").num(windows_bad);
  w.raw(",\"windows\":[");
  bool first = true;
  for (const WindowVerdict& v : windows) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"start_ns\":").num(v.start_ns).raw(",\"end_ns\":").num(v.end_ns);
    w.raw(",\"ok\":").raw(v.ok() ? "true" : "false");
    if (!v.ok()) w.raw(",\"worst\":\"").raw(v.worst()).raw('"');
    w.raw(",\"delivered\":").num(v.stats.delivered).raw(",\"lost\":").num(v.stats.lost);
    w.raw(",\"late\":").num(v.stats.late);
    w.raw(",\"mean_latency_ns\":").num(v.stats.mean_latency_ns());
    w.raw(",\"jitter_ns\":").num(v.stats.jitter_ns());
    w.raw(",\"throughput_bps\":").num(v.stats.throughput_bps()).raw('}');
  }
  w.raw("]}");
  w.flush();
  return out;
}

void ConformanceMonitor::register_contract(const mantts::QosContract& c, sim::SimTime now) {
  if (!enabled_) return;
  State& st = sessions_[c.session];
  st.rep.contract = c;
  ++st.rep.registrations;
  trace().instant(TraceCategory::kConformance, "qos.contract", now, c.host, c.session,
                  static_cast<double>(st.rep.registrations),
                  st.rep.registrations > 1 ? "reregistered" : "registered");
  if (st.rep.health == ContractHealth::kNone) st.rep.health = ContractHealth::kInContract;
}

bool ConformanceMonitor::has_contract(std::uint32_t session) const {
  return sessions_.contains(session);
}

std::uint64_t ConformanceMonitor::registrations(std::uint32_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.rep.registrations;
}

void ConformanceMonitor::set_fanout(std::uint32_t session, std::uint64_t n) {
  const auto it = sessions_.find(session);
  if (it != sessions_.end()) it->second.fanout = std::max<std::uint64_t>(1, n);
}

ConformanceMonitor::State* ConformanceMonitor::feed_target(std::uint32_t session,
                                                           sim::SimTime now) {
  if (!enabled_) return nullptr;
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.finalized) return nullptr;
  State& st = it->second;
  const std::int64_t t = now.ns();
  if (!st.started) {
    // The window grid anchors at the first event, not at registration:
    // configuration-phase idle time is not a delivery outage.
    st.started = true;
    st.window_start = t;
  }
  roll(st, t);
  st.last_event_ns = std::max(st.last_event_ns, t);
  return &st;
}

void ConformanceMonitor::on_send(std::uint32_t session, std::uint32_t unit, sim::SimTime now) {
  State* st = feed_target(session, now);
  if (st == nullptr) return;
  ++st->rep.units_sent;
  st->outstanding[unit] = Outstanding{now.ns(), st->fanout};
}

void ConformanceMonitor::on_delivery(std::uint32_t session, std::uint32_t unit,
                                     sim::SimTime now, std::int64_t latency_ns,
                                     std::uint64_t bytes, bool duplicate, bool misordered) {
  State* st = feed_target(session, now);
  if (st == nullptr) return;
  WindowStats& w = st->cur;
  w.bytes += bytes;
  if (duplicate) {
    ++w.duplicates;
    return;
  }
  ++w.delivered;
  ++w.expected;
  w.add_latency(latency_ns);
  if (misordered) ++w.misordered;
  const std::int64_t bound = st->rep.contract.max_latency_ns;
  if (bound >= 0 && latency_ns > bound) {
    ++w.late;
    ++st->late_units;
  }
  const auto it = st->outstanding.find(unit);
  if (it != st->outstanding.end() && --it->second.remaining == 0) st->outstanding.erase(it);
}

void ConformanceMonitor::on_bytes(std::uint32_t session, sim::SimTime now,
                                  std::uint64_t bytes) {
  State* st = feed_target(session, now);
  if (st != nullptr) st->cur.bytes += bytes;
}

void ConformanceMonitor::on_playout_late(std::uint32_t session, sim::SimTime now) {
  State* st = feed_target(session, now);
  if (st == nullptr) return;
  ++st->cur.late;
  ++st->late_units;
}

void ConformanceMonitor::roll(State& st, std::int64_t now_ns) {
  const std::int64_t w = kConformanceWindow.ns();
  while (now_ns >= st.window_start + w) close_window(st, st.window_start + w, /*partial=*/false);
}

void ConformanceMonitor::declare_losses(State& st, std::int64_t before_ns) {
  // Ordered-map scan keeps loss declaration a pure function of the event
  // stream. Units sent before the horizon and still owed deliveries are
  // charged to the closing window.
  for (auto it = st.outstanding.begin(); it != st.outstanding.end();) {
    if (it->second.sent_ns <= before_ns) {
      st.cur.lost += it->second.remaining;
      st.cur.expected += it->second.remaining;
      st.lost_units += it->second.remaining;
      it = st.outstanding.erase(it);
    } else {
      ++it;
    }
  }
}

void ConformanceMonitor::refresh_qoe(State& st) {
  const std::uint64_t owed = st.rep.units_sent * st.fanout;
  if (owed == 0) {
    st.rep.qoe = 1.0;
    return;
  }
  const double distortion = (static_cast<double>(st.lost_units) +
                             0.5 * static_cast<double>(st.late_units)) /
                            static_cast<double>(owed);
  st.rep.qoe = std::clamp(1.0 - distortion, 0.0, 1.0);
}

void ConformanceMonitor::close_window(State& st, std::int64_t end_ns, bool partial) {
  declare_losses(st, end_ns - kLossHorizon.ns());

  WindowVerdict v;
  v.start_ns = st.window_start;
  v.end_ns = end_ns;
  st.cur.span_ns = end_ns - st.window_start;
  v.stats = st.cur;
  grade_window(st.rep.contract, st.cur, /*grade_throughput=*/!partial, v);

  // Fold the closed window into the cumulative run view.
  SessionConformance& rep = st.rep;
  WindowStats& tot = rep.cumulative;
  tot.delivered += v.stats.delivered;
  tot.expected += v.stats.expected;
  tot.lost += v.stats.lost;
  tot.late += v.stats.late;
  tot.misordered += v.stats.misordered;
  tot.duplicates += v.stats.duplicates;
  tot.bytes += v.stats.bytes;
  tot.sum_latency_ns += v.stats.sum_latency_ns;
  tot.sum_sq_latency_ns += v.stats.sum_sq_latency_ns;
  tot.max_latency_ns = std::max(tot.max_latency_ns, v.stats.max_latency_ns);
  tot.span_ns += v.stats.span_ns;

  rep.windows.push_back(v);
  update_budget(st, end_ns, v);
  refresh_qoe(st);

  if (repo_ != nullptr) {
    const sim::SimTime when{end_ns};
    const net::NodeId host = rep.contract.host;
    const std::uint32_t sid = rep.contract.session;
    repo_->record({host, sid, metrics::kQosWindowOk}, when, v.ok() ? 1.0 : 0.0);
    if (v.stats.delivered > 0) {
      repo_->record({host, sid, metrics::kQosWindowLatencyNs}, when,
                    static_cast<double>(v.stats.mean_latency_ns()));
      repo_->record({host, sid, metrics::kQosWindowJitterNs}, when,
                    static_cast<double>(v.stats.jitter_ns()));
    }
    repo_->record({host, sid, metrics::kQosBudgetBurn}, when, rep.budget_consumed);
  }

  st.cur = WindowStats{};
  st.window_start = end_ns;
}

void ConformanceMonitor::update_budget(State& st, std::int64_t at_ns, const WindowVerdict& v) {
  SessionConformance& rep = st.rep;
  const bool bad = !v.ok();
  if (bad) {
    ++rep.windows_bad;
    ++st.consecutive_bad;
    st.consecutive_ok = 0;
  } else {
    ++st.consecutive_ok;
    st.consecutive_bad = 0;
  }

  // Error budget: the contract tolerates budget_fraction of the windows
  // its stated duration spans (at least one).
  const std::int64_t w = kConformanceWindow.ns();
  const double expected_windows =
      std::max(1.0, static_cast<double>(rep.contract.duration_ns) / static_cast<double>(w));
  const double allowed = std::max(1.0, rep.contract.budget_fraction * expected_windows);
  rep.budget_consumed = static_cast<double>(rep.windows_bad) / allowed;

  // Multi-window burn rates over the trailing short/long horizon.
  const auto burn_over = [&](std::size_t n) {
    const std::size_t have = std::min(n, rep.windows.size());
    if (have == 0) return 0.0;
    std::uint64_t recent_bad = 0;
    for (std::size_t i = rep.windows.size() - have; i < rep.windows.size(); ++i) {
      if (!rep.windows[i].ok()) ++recent_bad;
    }
    const double frac = static_cast<double>(recent_bad) / static_cast<double>(have);
    return frac / std::max(1e-9, rep.contract.budget_fraction);
  };
  rep.fast_burn = burn_over(kFastBurnWindows);
  rep.slow_burn = burn_over(kSlowBurnWindows);

  const sim::SimTime when{at_ns};
  const net::NodeId host = rep.contract.host;
  const std::uint32_t sid = rep.contract.session;

  // Breach/recovery hysteresis.
  if (!st.in_breach && st.consecutive_bad >= kBreachEnterWindows) {
    st.in_breach = true;
    ++rep.breaches;
    if (rep.first_breach_ns < 0) rep.first_breach_ns = at_ns;
    trace().instant(TraceCategory::kConformance, "qos.breach", when, host, sid,
                    rep.budget_consumed, v.worst());
    if (repo_ != nullptr) repo_->record({host, sid, metrics::kQosBreach}, when, 1.0);
  } else if (st.in_breach && st.consecutive_ok >= kBreachExitWindows) {
    st.in_breach = false;
    ++rep.recoveries;
    trace().instant(TraceCategory::kConformance, "qos.recovery", when, host, sid,
                    rep.budget_consumed);
    if (repo_ != nullptr) repo_->record({host, sid, metrics::kQosRecovery}, when, 1.0);
  }
  if (rep.budget_consumed >= 1.0 && !st.budget_announced) {
    st.budget_announced = true;
    trace().instant(TraceCategory::kConformance, "qos.budget_exhausted", when, host, sid,
                    rep.budget_consumed);
  }

  const bool burning = rep.fast_burn >= kFastBurnAlarm ||
                       rep.slow_burn >= kSlowBurnAlarm;
  rep.health = (st.in_breach || rep.budget_consumed >= 1.0) ? ContractHealth::kBreached
               : burning                                    ? ContractHealth::kBurning
                                                            : ContractHealth::kInContract;
}

void ConformanceMonitor::finalize(std::uint32_t session, sim::SimTime now) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.finalized) return;
  State& st = it->second;
  st.finalized = true;
  if (st.started) {
    // Close intermediate windows only up to the last observed event; the
    // idle tail between the stream draining and harvest is not an outage.
    roll(st, st.last_event_ns);
    // The drain period is over: whatever is still owed is really lost.
    declare_losses(st, now.ns());
    const std::int64_t w = kConformanceWindow.ns();
    const std::int64_t end = std::min(now.ns(), st.window_start + w);
    close_window(st, std::max(end, st.window_start + 1), /*partial=*/true);
  }
  SessionConformance& rep = st.rep;
  if (!rep.windows.empty()) {
    rep.time_in_contract = 1.0 - static_cast<double>(rep.windows_bad) /
                                     static_cast<double>(rep.windows.size());
  }
  refresh_qoe(st);
  if (repo_ != nullptr) {
    const net::NodeId host = rep.contract.host;
    repo_->record({host, session, metrics::kQosTimeInContract}, now, rep.time_in_contract);
    repo_->record({host, session, metrics::kQosQoe}, now, rep.qoe);
  }
}

void ConformanceMonitor::finalize_all(sim::SimTime now) {
  for (auto& [sid, st] : sessions_) {
    (void)st;
    finalize(sid, now);
  }
}

const SessionConformance* ConformanceMonitor::report(std::uint32_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : &it->second.rep;
}

ContractHealth ConformanceMonitor::health(std::uint32_t session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? ContractHealth::kNone : it->second.rep.health;
}

void ConformanceMonitor::capture_timeline(sim::SimTime when, Timeline& out) const {
  for (const auto& [sid, st] : sessions_) {
    const SessionConformance& rep = st.rep;
    const auto point = [&](const char* name, double v) {
      TimelinePoint p;
      p.when = when;
      p.host = rep.contract.host;
      p.connection = sid;
      p.name = name;
      p.value = v;
      out.push_back(std::move(p));
    };
    point(metrics::kQosBudgetBurn, rep.budget_consumed);
    point(metrics::kQosQoe, rep.qoe);
    point(metrics::kQosHealth, static_cast<double>(rep.health));
  }
}

}  // namespace adaptive::unites
