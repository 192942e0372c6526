#include "adaptive/scenario.hpp"

#include "mantts/policy.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace adaptive {

RunOutcome run_scenario(World& world, const RunOptions& opt) {
  RunOutcome out;

  // --- workload & destination addressing --------------------------------
  app::Workload wl = app::make_workload(opt.application, opt.seed, opt.scale);

  // Mobility-control events in the plan shape the receiver set: join/leave
  // targets need sinks and acceptors installed up front (a joiner's first
  // PDU arrives mid-run), and a member the plan later removes is not held
  // to full-stream delivery by the oracle.
  const bool is_multicast = !opt.multicast_members.empty();
  std::set<std::size_t> plan_churn;
  std::set<std::size_t> plan_leavers;
  bool plan_has_mobility = false;
  if (opt.faults.has_value()) {
    for (const sim::FaultSpec& spec : opt.faults->faults) {
      switch (spec.kind) {
        case sim::FaultKind::kHandover:
          plan_has_mobility = true;
          break;
        case sim::FaultKind::kGroupJoin:
        case sim::FaultKind::kGroupLeave:
          plan_has_mobility = true;
          if (is_multicast && spec.node < world.host_count() && spec.node != opt.src) {
            plan_churn.insert(spec.node);
            if (spec.kind == sim::FaultKind::kGroupLeave) plan_leavers.insert(spec.node);
          }
          break;
        default:
          break;
      }
    }
  }

  std::vector<std::size_t> receiver_hosts;
  std::vector<bool> full_duration;  // parallel to receiver_hosts
  net::NodeId group = 0;
  if (is_multicast) {
    group = world.network().create_group();
    const net::Network::RouteBatch batch(world.network());  // one computation for all joins
    for (const std::size_t m : opt.multicast_members) {
      world.network().join_group(group, world.node(m));
      receiver_hosts.push_back(m);
      full_duration.push_back(!plan_leavers.contains(m));
    }
    // Plan-only churn hosts: not members yet, but they will be (or are
    // no-op leave targets) — std::set iteration keeps the order a pure
    // function of the plan, so sweeps stay job-count independent.
    for (const std::size_t c : plan_churn) {
      if (std::find(receiver_hosts.begin(), receiver_hosts.end(), c) == receiver_hosts.end()) {
        receiver_hosts.push_back(c);
        full_duration.push_back(false);
      }
    }
    wl.acd.remotes = {{group, tko::kTransportPort}};
  } else {
    wl.acd.remotes = {world.transport_address(opt.dst)};
    receiver_hosts.push_back(opt.dst);
    full_duration.push_back(true);
  }
  wl.acd.quantitative.duration = opt.duration;
  wl.acd.collect_metrics = opt.collect_metrics;
  if (opt.mode == RunOptions::Mode::kMantttsAdaptive) {
    wl.acd.adjustments = opt.rules.empty() ? mantts::PolicyEngine::default_rules() : opt.rules;
  }

  // --- sinks on every receiving host ---------------------------------
  std::map<net::NodeId, std::size_t> node_to_idx;
  for (std::size_t i = 0; i < world.host_count(); ++i) node_to_idx[world.node(i)] = i;
  std::vector<std::unique_ptr<app::SinkApp>> sinks;
  for (const std::size_t r : receiver_hosts) {
    sinks.push_back(std::make_unique<app::SinkApp>(world.host(r).timers()));
  }
  std::map<std::size_t, app::SinkApp*> sink_by_host;
  for (std::size_t i = 0; i < receiver_hosts.size(); ++i) {
    sink_by_host[receiver_hosts[i]] = sinks[i].get();
  }
  // Handover blackout watches: one per begun handover window; each
  // receiver's first accepted unit at-or-after the window start fills its
  // slot (zero = still pending).
  struct BlackoutWatch {
    sim::SimTime start;
    std::vector<sim::SimTime> first_after;  // by receiver index
  };
  std::vector<BlackoutWatch> blackout_watches;

  // Conformance feeds are scoped to full-duration receivers: joiners and
  // leavers legitimately miss part of the stream, and charging that to the
  // contract would read as loss. The session pointer is assigned at open,
  // before any data flows, so the taps can read its id lazily.
  std::size_t full_count = 0;
  for (const bool f : full_duration) {
    if (f) ++full_count;
  }
  tko::TransportSession* session = nullptr;
  unites::ConformanceMonitor& qos_mon = world.conformance();

  std::vector<tko::TransportSession*> accepted_sessions;
  for (std::size_t i = 0; i < receiver_hosts.size(); ++i) {
    const std::size_t r = receiver_hosts[i];
    world.transport(r).set_acceptor([&, r, i](tko::TransportSession& s) {
      accepted_sessions.push_back(&s);
      app::SinkApp* sink = sink_by_host[r];
      sink->attach(s);
      if (qos_mon.enabled() && full_duration[i]) {
        // Unit-level verdict feed (latency/order/dup/loss accounting) from
        // the sink's own bookkeeping; bytes ride the kernel tap below so
        // continuation fragments count toward window throughput too.
        sink->set_delivery_observer(
            [&](sim::SimTime now, const app::SinkApp::DeliveryEvent& ev) {
              if (session == nullptr) return;
              qos_mon.on_delivery(session->id(), ev.unit, now, ev.latency_ns, /*bytes=*/0,
                                  ev.duplicate, ev.misordered);
            });
        s.set_delivery_tap([&](std::size_t bytes) {
          if (session == nullptr) return;
          qos_mon.on_bytes(session->id(), world.now(), bytes);
        });
      }
      app::SinkApp::LatencyFn record;
      if (opt.collect_metrics) {
        // Blackbox latency observations feed the repository as they occur,
        // so latency.ns is available as a histogram (p50/p99), not just as
        // the post-run latencies_sec vector.
        auto& repo = world.repository();
        unites::MetricKey key{world.node(r), s.id(), unites::metrics::kLatencyNs};
        record = [&repo, key](sim::SimTime now, double latency_ns) {
          repo.record(key, now, latency_ns);
        };
      }
      if (opt.collect_metrics || plan_has_mobility) {
        sink->set_latency_observer([&blackout_watches, i, record = std::move(record)](
                                       sim::SimTime now, double latency_ns) {
          for (BlackoutWatch& w : blackout_watches) {
            if (w.first_after[i] == sim::SimTime::zero() && now >= w.start) w.first_after[i] = now;
          }
          if (record) record(now, latency_ns);
        });
      }
    });
  }

  // --- open the session per the configured mode ------------------------
  auto& src_entity = world.mantts(opt.src);
  baseline::StaticTransportSystem static_sys(world.transport(opt.src));

  switch (opt.mode) {
    case RunOptions::Mode::kManntts:
    case RunOptions::Mode::kMantttsAdaptive: {
      src_entity.open_session(wl.acd, [&](mantts::MantttsEntity::OpenResult r) {
        session = r.session;
        out.tsc = r.tsc;
        out.configuration_time = r.configuration_time;
        out.refused = r.refused;
      });
      // Explicit negotiation takes signaling round trips.
      world.run_for(sim::SimTime::seconds(2));
      break;
    }
    case RunOptions::Mode::kFixedConfig: {
      if (!opt.fixed.has_value()) {
        throw std::invalid_argument("run_scenario: kFixedConfig needs opt.fixed");
      }
      session = &world.transport(opt.src).open(wl.acd.remotes, *opt.fixed);
      session->connect();
      break;
    }
    case RunOptions::Mode::kStaticAuto:
      session = &static_sys.open_for(wl.acd);
      session->connect();
      break;
    case RunOptions::Mode::kStaticStream:
      session = &static_sys.open_stream(wl.acd.remotes);
      session->connect();
      break;
    case RunOptions::Mode::kStaticDatagram:
      session = &static_sys.open_datagram(wl.acd.remotes);
      session->connect();
      break;
    case RunOptions::Mode::kStaticTp4:
      session = &static_sys.open_tp4(wl.acd.remotes);
      session->connect();
      break;
  }
  if (session == nullptr) {
    out.refused = true;
    return out;
  }
  if (opt.trace > 0) session->enable_trace(opt.trace);

  // --- conformance contract -----------------------------------------------
  // MANTTS modes registered theirs inside open_session; the bypass modes
  // (fixed/static) are held to the same ACD-derived contract. An explicit
  // override replaces whatever is registered (session/host filled here).
  if (qos_mon.enabled()) {
    if (!qos_mon.has_contract(session->id())) {
      qos_mon.register_contract(
          mantts::make_contract(wl.acd, session->id(), world.node(opt.src)), world.now());
    }
    if (opt.qos_contract.has_value()) {
      mantts::QosContract c = *opt.qos_contract;
      c.session = session->id();
      c.host = world.node(opt.src);
      qos_mon.register_contract(c, world.now());
    }
    qos_mon.set_fanout(session->id(), std::max<std::uint64_t>(1, full_count));
  }

  // --- scripted impairments ---------------------------------------------
  // Armed just before the workload starts, so plan times are relative to
  // data transfer (the configuration phase already consumed sim time).
  std::optional<net::FaultInjector> injector;
  if (opt.faults.has_value() && !opt.faults->empty()) {
    injector.emplace(world.network(), world.topology().scenario_links,
                     world.topology().hosts);
    injector->arm(*opt.faults);
  }

  // --- mobility control --------------------------------------------------
  // Handover and membership events run through their own controller (the
  // injector above skips them), armed at the same instant so both replay
  // on the workload-relative clock.
  std::optional<net::MobilityController> mobility;
  if (plan_has_mobility) {
    const net::Topology& topo = world.topology();
    const net::NodeId mobile =
        topo.hosts.empty() ? 0 : topo.hosts.at(std::min(topo.mobile_host, topo.hosts.size() - 1));
    mobility.emplace(world.network(), topo.hosts, mobile, topo.attachments);
    if (is_multicast) mobility->set_group(group);
    mobility->set_handover_begin_observer([&](const sim::FaultSpec&) {
      blackout_watches.push_back(
          {world.now(), std::vector<sim::SimTime>(receiver_hosts.size(), sim::SimTime::zero())});
    });
    mobility->set_handover_observer([&](const sim::FaultSpec&) {
      // The active path changed: drop Karn-invalid RTT state on both ends
      // and kick the pumps so queued data rides the new route now.
      session->on_path_change();
      for (tko::TransportSession* s : accepted_sessions) s->on_path_change();
    });
    mobility->set_membership_observer([&](net::NodeId member, bool joined) {
      if (joined) {
        // Tell the joiner where the stream starts for it (kAnchor — its
        // piggybacked SCS also creates the joiner's passive session).
        session->announce_anchor();
      } else {
        // Unpin the send window from the leaver's cumulative-ack entry.
        session->forget_receiver(member);
      }
    });
    mobility->arm(*opt.faults);
  }

  // --- resource timeline sampling ---------------------------------------
  // Driven by host 0's virtual clock, so the timeline is a pure function
  // of (scenario, seed) — identical for any sweep job count.
  std::optional<unites::Sampler> sampler;
  if (opt.timeline_period > sim::SimTime::zero()) {
    unites::Sampler::Config scfg;
    scfg.period = opt.timeline_period;
    sampler.emplace(world.host(0).timers(), scfg,
                    [&world] { return world.resource_snapshot(); });
    // qos.* gauges (budget burn, QoE, health rung) ride the same timeline
    // and its Chrome counter-track export.
    sampler->set_gauge_capture([&qos_mon](sim::SimTime when, unites::Timeline& tl) {
      qos_mon.capture_timeline(when, tl);
    });
  }

  // --- drive the workload -----------------------------------------------
  app::SourceApp source(*session, std::move(wl.model), world.host(opt.src).timers(),
                        opt.duration);
  if (qos_mon.enabled()) {
    source.set_send_observer([&](sim::SimTime now, std::uint32_t unit, std::size_t) {
      qos_mon.on_send(session->id(), unit, now);
    });
  }
  source.start();
  world.run_for(opt.duration + sim::SimTime::milliseconds(1));
  source.stop();
  world.run_for(opt.drain);

  // --- harvest ------------------------------------------------------------
  out.source = source.stats();
  out.receivers = sinks.size();
  const auto merge_sink = [](app::SinkStats& merged, const app::SinkStats& st) {
    merged.units_received += st.units_received;
    merged.bytes_received += st.bytes_received;
    merged.continuation_bytes += st.continuation_bytes;
    merged.duplicates += st.duplicates;
    merged.misordered += st.misordered;
    merged.latencies_sec.insert(merged.latencies_sec.end(), st.latencies_sec.begin(),
                                st.latencies_sec.end());
    merged.highest_id = std::max(merged.highest_id, st.highest_id);
    if (merged.first_arrival == sim::SimTime::zero() ||
        (st.first_arrival != sim::SimTime::zero() && st.first_arrival < merged.first_arrival)) {
      merged.first_arrival = st.first_arrival;
    }
    merged.last_arrival = std::max(merged.last_arrival, st.last_arrival);
  };
  app::SinkStats merged;
  for (const auto& s : sinks) merge_sink(merged, s->stats());
  out.sink = std::move(merged);

  // Grade against the ACD: for multicast, every full-duration receiver
  // must get its copy, so scale the source-unit count by that fan-out.
  // Joiners/leavers legitimately see a partial stream — they stay in
  // out.sink (duplicate/ordering evidence) but out of the QoS grade.
  app::SinkStats graded_sink;
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    if (!full_duration[i]) continue;
    merge_sink(graded_sink, sinks[i]->stats());
  }
  app::SourceStats graded_src = out.source;
  graded_src.units_sent *= std::max<std::uint64_t>(1, full_count);
  out.qos = app::evaluate_qos(wl.acd, graded_src,
                              full_count == sinks.size() ? out.sink : graded_sink);

  // Conformance plane: the drain is over, so freeze the window history and
  // fold time-in-contract into the graded report.
  if (qos_mon.enabled() && qos_mon.has_contract(session->id())) {
    qos_mon.finalize(session->id(), world.now());
    if (const unites::SessionConformance* rep = qos_mon.report(session->id())) {
      out.conformance = *rep;
      out.qos.time_in_contract = rep->time_in_contract;
      out.qos.windowed = !rep->windows.empty();
    }
  }

  out.config = session->config();
  out.context_text = session->context().describe();
  out.session = session->stats();
  out.reliability = session->context().reliability().stats();
  if (!accepted_sessions.empty()) {
    out.receiver_reliability = accepted_sessions.front()->context().reliability().stats();
    out.receiver_checksum_failures = accepted_sessions.front()->stats().checksum_failures;
  }
  out.reconfigurations = session->context().reconfigurations();
  if (opt.trace > 0) out.trace_text = session->render_trace();
  out.sender_cpu_instructions = world.host(opt.src).cpu().stats().instructions;

  // Survivability plane: harvested while the receiver contexts are still
  // live. Mechanism-instance counters (reseeds, anchors, stragglers) read
  // the *current* instances — a mid-run segue starts them fresh.
  if (mobility.has_value()) {
    MobilityOutcome& mo = out.mobility;
    mo.armed = true;
    mo.controller = mobility->stats();
    for (const BlackoutWatch& w : blackout_watches) {
      sim::SimTime worst = sim::SimTime::zero();
      bool measured = false;
      for (std::size_t i = 0; i < w.first_after.size(); ++i) {
        // Churn hosts sit outside the group for whole stretches of the
        // run; their delivery gaps are membership, not handover blackout.
        if (!full_duration[i]) continue;
        const sim::SimTime t = w.first_after[i];
        if (t == sim::SimTime::zero()) continue;  // receiver saw no later traffic
        measured = true;
        worst = std::max(worst, t - w.start);
      }
      if (measured) {
        mo.blackouts_sec.push_back(worst.sec());
      } else {
        ++mo.blackouts_unmeasured;  // stream had already drained
      }
    }
    mo.path_reseeds = out.reliability.path_reseeds;
    mo.anchors_sent = out.reliability.anchors_sent;
    for (tko::TransportSession* s : accepted_sessions) {
      mo.stragglers_dropped += s->context().sequencing().stragglers_dropped();
      mo.anchors_applied += s->context().reliability().stats().anchors_applied;
    }
    if (opt.mode == RunOptions::Mode::kMantttsAdaptive) {
      mo.synthesis_current = src_entity.synthesis_current(session->id());
    }
    mo.receivers.reserve(sinks.size());
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      mo.receivers.push_back({receiver_hosts[i], full_duration[i], sinks[i]->stats()});
    }
  }

  // Resource plane: final snapshot while sessions are still alive, plus
  // the periodic timeline (closed with one harvest-time sample so even a
  // run shorter than the period carries a point).
  out.resource = world.resource_snapshot();
  if (opt.collect_metrics) out.resource.record_into(world.repository());
  if (sampler.has_value()) {
    sampler->sample_now();
    sampler->cancel();
    out.timeline = sampler->take_timeline();
  }

  // Termination phase.
  if (opt.mode == RunOptions::Mode::kManntts || opt.mode == RunOptions::Mode::kMantttsAdaptive) {
    src_entity.close_session(*session, /*graceful=*/true);
  } else {
    session->close(/*graceful=*/true);
  }
  world.run_for(sim::SimTime::seconds(1));

  // Detach acceptors and delivery upcalls so later scenarios on the same
  // world cannot touch this scenario's (now-destroyed) sinks.
  for (const std::size_t r : receiver_hosts) {
    world.transport(r).set_acceptor(nullptr);
  }
  for (tko::TransportSession* s : accepted_sessions) {
    s->set_deliver(nullptr);
    s->set_delivery_tap(nullptr);
  }
  session->set_deliver(nullptr);

  out.mantts = src_entity.stats();
  if (injector.has_value()) out.fault = injector->stats();
  out.oracle = InvariantOracle::check(opt, out);
  return out;
}

}  // namespace adaptive
