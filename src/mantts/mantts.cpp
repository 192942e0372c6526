#include "mantts/mantts.hpp"

#include "unites/metric.hpp"

#include <algorithm>

namespace adaptive::mantts {

MantttsEntity::MantttsEntity(os::Host& host, tko::AdaptiveTransport& transport,
                             const ResourceLimits& limits)
    : host_(host),
      transport_(transport),
      limits_(limits),
      nmi_(host.network(), host.node_id()) {
  host_.bind_port(kSignalingPort, [this](net::Packet&& p) { on_signaling(std::move(p)); });
  // Transport-level admission: SYN-carried configurations are clamped to
  // the same local resource limits the out-of-band responder enforces.
  transport_.set_admission(
      [this](const tko::sa::SessionConfig& proposal) { return admit(proposal, limits_); });
  // A session the reaper destroys (closed through the transport, not
  // close_session) must take its entries here with it.
  transport_.set_reap_observer([this](std::uint32_t sid) { forget(sid); });
}

MantttsEntity::~MantttsEntity() {
  transport_.set_reap_observer(nullptr);
  adaptations_.clear();
  pending_reconfigs_.clear();
  collectors_.clear();
  host_.unbind_port(kSignalingPort);
}

void MantttsEntity::send_signal(net::NodeId to, const Signal& s) {
  net::Packet pkt;
  pkt.src = {host_.node_id(), kSignalingPort};
  pkt.dst = {to, kSignalingPort};
  pkt.priority = 7;  // signaling rides above all data traffic
  pkt.payload = encode_signal(s);
  host_.send(std::move(pkt));
}

void MantttsEntity::start_session(const Acd& acd, tko::TransportSession& session) {
  if (conformance_ != nullptr) {
    conformance_->register_contract(make_contract(acd, session.id(), host_.node_id()),
                                    host_.now());
    ++stats_.contracts_registered;
  }
  ++stats_.sessions_opened;
  open_.insert(session.id());
  if (acd.collect_metrics && repo_ != nullptr) {
    collectors_[session.id()] =
        std::make_unique<unites::SessionCollector>(*repo_, session, acd.measurement);
  }
  if (!acd.adjustments.empty()) {
    // "It is not generally useful to dynamically reconfigure sessions
    // that have very low duration" (Section 4.1.1).
    if (acd.quantitative.duration >= kShortSessionThreshold) {
      enable_adaptation(session, acd.adjustments);
    } else {
      ++stats_.adaptations_skipped_short_session;
    }
  }
  session.connect();
}

void MantttsEntity::forget(std::uint32_t sid) {
  open_.erase(sid);
  adaptations_.erase(sid);
  collectors_.erase(sid);
  qos_callbacks_.erase(sid);
  pending_reconfigs_.erase(sid);
  downgrade_rung_.erase(sid);
  // A cleanly closed session's derivation is still valid for the next
  // identical open; only the sid -> key mapping is released.
  synth_keys_.erase(sid);
  route_observed_.erase(sid);
  route_synth_.erase(sid);
}

void MantttsEntity::open_session(const Acd& acd, OpenCb cb) {
  if (acd.remotes.empty()) {
    cb(OpenResult{});
    return;
  }
  const sim::SimTime started = host_.now();

  // Stage I (classify) + Stage II (derive SCS against the network state
  // descriptor), memoized: identical (ACD, descriptor) keys reuse the
  // cached derivation instead of re-running the selection pipeline —
  // Section 4's template-cache argument applied where it matters at
  // session-plane scale, the open path.
  const auto descriptor = nmi_.sample(acd.remotes.front().node);
  const SynthesisKey synth_key = make_synthesis_key(acd, descriptor);
  Tsc tsc;
  tko::sa::SessionConfig scs;
  bool cache_hit = false;
  if (const auto* cached = synth_cache_.lookup(synth_key)) {
    tsc = cached->tsc;
    scs = cached->scs;
    cache_hit = true;
  } else {
    tsc = classify(acd);
    scs = derive_scs(tsc, acd, descriptor);
    // Only derivations TKO would accept are cached: a hit bypasses
    // Stage III validation (the prevalidated fast path).
    if (tko::sa::Synthesizer::validate(scs).empty()) {
      synth_cache_.insert(synth_key, tsc, scs);
    }
  }

  // Explicit negotiation only pays off when the application asked for an
  // explicit connection or the session is long enough to amortize the
  // round trip; multicast negotiates with the group implicitly (the SYN /
  // piggybacked SCS reaches every member).
  const bool explicit_negotiation =
      scs.connection != tko::sa::ConnectionScheme::kImplicit && !acd.wants_multicast();
  trace("mantts.open", 0, static_cast<double>(acd.remotes.size()),
        explicit_negotiation ? "explicit" : "implicit");

  if (!explicit_negotiation) {
    auto& session = transport_.open(acd.remotes, scs, /*prevalidated=*/cache_hit);
    synth_keys_[session.id()] = synth_key;
    start_session(acd, session);
    OpenResult r;
    r.session = &session;
    r.tsc = tsc;
    r.scs = scs;
    r.configuration_time = host_.now() - started;
    cb(std::move(r));
    return;
  }

  // Explicit: CONFIG / CONFIGACK over the signaling channel first.
  ++stats_.negotiations;
  const std::uint32_t nonce = next_nonce_++;
  Pending p;
  p.acd = acd;
  p.tsc = tsc;
  p.proposal = scs;
  p.cb = std::move(cb);
  p.started = started;
  p.retry = std::make_unique<tko::Event>(host_.timers(), [this, nonce] {
    auto it = pending_.find(nonce);
    if (it == pending_.end()) return;
    if (--it->second.retries_left < 0) {
      // Peer unreachable: deliver a refusal.
      finish_open(nonce, it->second.proposal, /*refused=*/true);
      return;
    }
    Signal s{tko::PduType::kConfig, nonce, it->second.proposal};
    send_signal(it->second.acd.remotes.front().node, s);
    it->second.retry->schedule(sim::SimTime::milliseconds(250));
  });
  auto [it, _] = pending_.emplace(nonce, std::move(p));
  Signal s{tko::PduType::kConfig, nonce, it->second.proposal};
  send_signal(acd.remotes.front().node, s);
  it->second.retry->schedule(sim::SimTime::milliseconds(250));
}

void MantttsEntity::finish_open(std::uint32_t nonce, const tko::sa::SessionConfig& cfg,
                                bool refused) {
  auto it = pending_.find(nonce);
  if (it == pending_.end()) return;
  OpenResult r;
  r.scs = cfg;  // before the erase: a retry timeout passes the entry's own proposal
  Pending p = std::move(it->second);
  pending_.erase(it);

  r.tsc = p.tsc;
  r.negotiated = true;
  r.refused = refused;
  r.configuration_time = host_.now() - p.started;
  host_.network().trace().span(unites::TraceCategory::kMantts, "mantts.negotiate", p.started,
                               r.configuration_time, host_.node_id(), nonce, 0.0,
                               refused ? "refused" : "accepted");
  if (refused) {
    ++stats_.refusals_received;
    p.cb(std::move(r));
    return;
  }
  auto& session = transport_.open(p.acd.remotes, r.scs);
  start_session(p.acd, session);
  r.session = &session;
  p.cb(std::move(r));
}

void MantttsEntity::on_signaling(net::Packet&& pkt) {
  auto sig = decode_signal(pkt.payload);
  if (!sig.has_value()) return;

  switch (sig->type) {
    case tko::PduType::kConfig: {
      // Responder side of negotiation: admission control, then ack with
      // the (possibly downgraded) configuration — or refuse outright when
      // over capacity.
      Signal reply;
      reply.type = tko::PduType::kConfigAck;
      reply.token = sig->token;
      if (open_.size() >= limits_.max_sessions || !sig->config.has_value()) {
        ++stats_.admissions_refused;
        // No config in the ack = refusal.
      } else {
        reply.config = admit(*sig->config, limits_);
      }
      trace("mantts.config_recv", sig->token, 0.0,
            reply.config.has_value() ? "admitted" : "refused");
      send_signal(pkt.src.node, reply);
      return;
    }
    case tko::PduType::kConfigAck: {
      if (sig->config.has_value()) {
        finish_open(sig->token, *sig->config, /*refused=*/false);
      } else {
        finish_open(sig->token, tko::sa::SessionConfig{}, /*refused=*/true);
      }
      return;
    }
    case tko::PduType::kReconfig: {
      ++stats_.reconfigs_received;
      trace("mantts.reconfig_recv", sig->token);
      tko::TransportSession* session = transport_.find_session(sig->token);
      if (session != nullptr && sig->config.has_value()) {
        session->reconfigure(*sig->config);
        auto cb = qos_callbacks_.find(sig->token);
        if (cb != qos_callbacks_.end() && cb->second) cb->second(*sig->config);
      }
      Signal reply;
      reply.type = tko::PduType::kReconfigAck;
      reply.token = sig->token;
      send_signal(pkt.src.node, reply);
      return;
    }
    case tko::PduType::kReconfigAck: {
      // The remote confirmed the new configuration: the renegotiation is
      // complete and the retry machinery stands down. For multicast the
      // first member's ack suffices — RECONFIG application is idempotent
      // and slower members are still being resent to by the data path's
      // duplicate tolerance.
      auto it = pending_reconfigs_.find(sig->token);
      if (it == pending_reconfigs_.end()) return;
      pending_reconfigs_.erase(it);
      ++stats_.renegotiations;
      trace("mantts.reconfig_ack", sig->token);
      return;
    }
    case tko::PduType::kProbe: {
      Signal reply;
      reply.type = tko::PduType::kProbeReply;
      reply.token = sig->token;
      send_signal(pkt.src.node, reply);
      return;
    }
    case tko::PduType::kProbeReply: {
      auto it = probe_sent_at_.find(sig->token);
      if (it == probe_sent_at_.end()) return;
      ++stats_.probe_replies;
      nmi_.record_probe_rtt(pkt.src.node, host_.now() - it->second);
      probe_sent_at_.erase(it);
      return;
    }
    default:
      return;
  }
}

void MantttsEntity::send_probe(net::NodeId remote) {
  const std::uint32_t nonce = next_nonce_++;
  probe_sent_at_[nonce] = host_.now();
  // Bound the outstanding-probe map: lost probes age out eldest-first.
  if (probe_sent_at_.size() > 64) probe_sent_at_.erase(probe_sent_at_.begin());
  ++stats_.probes_sent;
  trace("mantts.probe", nonce, static_cast<double>(remote));
  Signal s;
  s.type = tko::PduType::kProbe;
  s.token = nonce;
  send_signal(remote, s);
}

void MantttsEntity::close_session(tko::TransportSession& session, bool graceful) {
  // Finalizing is a no-op for a session the monitor holds no contract for.
  if (conformance_ != nullptr) conformance_->finalize(session.id(), host_.now());
  session.set_stall_observer(nullptr);
  forget(session.id());  // also the load recalculation (termination phase)
  session.close(graceful);
  ++stats_.sessions_closed;
}

void MantttsEntity::enable_adaptation(tko::TransportSession& session, std::vector<TsaRule> rules,
                                      sim::SimTime period) {
  const std::uint32_t sid = session.id();
  Adaptation a{&session, PolicyEngine(std::move(rules)), nullptr};
  a.timer = std::make_unique<tko::Event>(host_.timers(), [this, sid] {
    auto it = adaptations_.find(sid);
    if (it == adaptations_.end()) return;
    tko::TransportSession& s = *it->second.session;
    if (s.state() == tko::SessionState::kClosed || s.state() == tko::SessionState::kAborted) {
      return;
    }
    const net::NodeId remote = s.remotes().front().node;
    if (probe_based_rtt_ && !net::is_multicast(remote)) send_probe(remote);
    const auto descriptor = nmi_.sample(remote);

    // Contract-health rung: policy observes QoS conformance alongside the
    // path state the NMI reports.
    const auto health =
        conformance_ != nullptr ? conformance_->health(sid) : unites::ContractHealth::kNone;
    switch (health) {
      case unites::ContractHealth::kBurning: ++stats_.contract_burn_ticks; break;
      case unites::ContractHealth::kBreached: ++stats_.contract_breach_ticks; break;
      default: break;
    }

    // Descriptor-consistency ledger: the first tick baselines both sides
    // (the synthesis in force was derived around open time, i.e. under
    // this route); later ticks only move the observed side — the synth
    // side catches up when apply_and_propagate runs.
    route_observed_[sid] = descriptor.route_version;
    route_synth_.try_emplace(sid, descriptor.route_version);

    // Fault-episode bookkeeping: a degraded descriptor opens an episode;
    // the episode closes at the first healthy sample with no RECONFIG
    // still in flight (renegotiation completing is part of recovering).
    Adaptation& ad = it->second;
    if (descriptor.degraded && !ad.degraded) {
      ad.degraded = true;
      ad.degraded_since = host_.now();
      ad.segues_at_fault = s.context().reconfigurations();
      ++stats_.faults_detected;
      trace("mantts.fault_detected", sid, descriptor.recent_loss_rate,
            descriptor.reachable ? "degraded" : "unreachable");
    } else if (!descriptor.degraded && ad.degraded && !pending_reconfigs_.contains(sid)) {
      ad.degraded = false;
      ++stats_.recoveries;
      const sim::SimTime took = host_.now() - ad.degraded_since;
      const auto segues =
          static_cast<double>(s.context().reconfigurations() - ad.segues_at_fault);
      host_.network().trace().span(unites::TraceCategory::kMantts, "mantts.recovery",
                                   ad.degraded_since, took, host_.node_id(), sid, segues);
      if (repo_ != nullptr) {
        repo_->record({host_.node_id(), sid, unites::metrics::kRecoveryTimeNs}, host_.now(),
                      static_cast<double>(took.ns()));
        repo_->record({host_.node_id(), sid, unites::metrics::kRecoverySegues}, host_.now(),
                      segues);
      }
      downgrade_rung_.erase(sid);  // a healthy path resets the QoS ladder
    }

    const auto actions = it->second.engine.evaluate(descriptor, host_.now());
    if (actions.empty()) return;
    tko::sa::SessionConfig cfg = s.config();
    bool changed = false;
    for (const TsaAction action : actions) {
      ++stats_.policy_firings;
      trace("mantts.policy_fire", sid, static_cast<double>(action));
      if (action == TsaAction::kNotifyApplication) {
        auto cb = qos_callbacks_.find(sid);
        if (cb != qos_callbacks_.end() && cb->second) cb->second(cfg);
        continue;
      }
      cfg = apply_action(action, cfg);
      changed = true;
    }
    if (changed && tko::sa::Synthesizer::validate(cfg).empty()) {
      apply_and_propagate(s, cfg);
    }
  });
  a.timer->schedule_periodic(period);
  adaptations_.erase(sid);
  adaptations_.emplace(sid, std::move(a));

  // Watchdog escalation: a session the transport-level prod could not
  // unstick gets a forced renegotiation round — re-propagating the current
  // SCS through the RECONFIG path resynchronizes both ends' contexts (and
  // on retry exhaustion falls down the QoS ladder). One escalation at a
  // time: a RECONFIG already in flight absorbs further stall reports.
  session.set_stall_observer([this, sid] {
    auto it = adaptations_.find(sid);
    if (it == adaptations_.end()) return;
    tko::TransportSession& s = *it->second.session;
    if (s.state() != tko::SessionState::kEstablished) return;
    if (pending_reconfigs_.contains(sid)) return;
    ++stats_.watchdog_escalations;
    trace("mantts.watchdog_escalation", sid);
    if (repo_ != nullptr) {
      repo_->record({host_.node_id(), sid, unites::metrics::kWatchdogEscalations}, host_.now(),
                    1.0);
    }
    apply_and_propagate(s, s.config());
  });
}

void MantttsEntity::set_qos_callback(tko::TransportSession& session, QosChangeFn fn) {
  qos_callbacks_[session.id()] = std::move(fn);
}

void MantttsEntity::reconfigure_session(tko::TransportSession& session,
                                        const tko::sa::SessionConfig& cfg) {
  apply_and_propagate(session, cfg);
}

Tsc MantttsEntity::retarget_session(tko::TransportSession& session,
                                    const Acd& new_requirements) {
  const Tsc tsc = classify(new_requirements);
  const auto descriptor = nmi_.sample(session.remotes().front().node);
  tko::sa::SessionConfig scs = derive_scs(tsc, new_requirements, descriptor);
  // The connection is already up; switching connection schemes mid-flight
  // is meaningless, so the live session keeps its establishment scheme.
  scs.connection = session.config().connection;
  if (tko::sa::Synthesizer::validate(scs).empty()) {
    // The application's requirements changed, so the contract it is
    // graded against changes with the new configuration.
    const QosContract contract = make_contract(new_requirements, session.id(), host_.node_id());
    apply_and_propagate(session, scs, &contract);
  }
  return tsc;
}

void MantttsEntity::signal_session_remotes(tko::TransportSession& session, const Signal& s) {
  const auto& remotes = session.remotes();
  if (remotes.size() == 1 && net::is_multicast(remotes.front().node)) {
    for (const net::NodeId m : host_.network().group_members(remotes.front().node)) {
      if (m != host_.node_id()) send_signal(m, s);
    }
  } else {
    for (const auto& r : remotes) send_signal(r.node, s);
  }
}

void MantttsEntity::apply_and_propagate(tko::TransportSession& session,
                                        const tko::sa::SessionConfig& cfg,
                                        const QosContract* contract) {
  // Renegotiation makes this session's cached Stage I/II derivation
  // stale: conditions diverged enough to force a new configuration, so
  // serving the old entry to the next identical open would resurrect the
  // configuration that just failed. Drop it (RECONFIG/segue/retarget/
  // downgrade all funnel through here).
  if (auto kit = synth_keys_.find(session.id()); kit != synth_keys_.end()) {
    synth_cache_.invalidate(kit->second);
    synth_keys_.erase(kit);
    ++stats_.synth_invalidations;
  }
  // The propagated configuration now reflects everything observed up to
  // this tick, the current route included.
  if (auto oit = route_observed_.find(session.id()); oit != route_observed_.end()) {
    auto [sit, fresh] = route_synth_.try_emplace(session.id(), oit->second);
    if (!fresh && sit->second != oit->second) {
      sit->second = oit->second;
      ++stats_.resyntheses;
      trace("mantts.resynthesize", session.id(), static_cast<double>(oit->second));
    }
  }
  session.reconfigure(cfg);
  // Re-register the session's contract: the mechanisms changed but the
  // promise to the application did not, so the monitor's own copy (which
  // may be an override set after open) goes back in unless a retarget
  // brought a new one. Window history survives; later windows grade
  // against the re-registered bounds.
  if (conformance_ != nullptr) {
    if (const auto* rep = conformance_->report(session.id()); rep != nullptr) {
      const QosContract held = contract != nullptr ? *contract : rep->contract;
      conformance_->register_contract(held, host_.now());
      ++stats_.contracts_registered;
    }
  }
  auto cb = qos_callbacks_.find(session.id());
  if (cb != qos_callbacks_.end() && cb->second) cb->second(cfg);

  // Keep the remote mechanism bindings in step, and track the RECONFIG
  // until its ack: a signaling channel through a faulty network loses
  // RECONFIGs exactly when reconfiguring matters most.
  ++stats_.reconfigs_sent;
  trace("mantts.reconfig_send", session.id());
  Signal s{tko::PduType::kReconfig, session.id(), cfg};
  signal_session_remotes(session, s);
  track_reconfig(session, cfg);
}

void MantttsEntity::track_reconfig(tko::TransportSession& session,
                                   const tko::sa::SessionConfig& cfg) {
  const std::uint32_t sid = session.id();
  PendingReconfig p;
  p.session = &session;
  p.cfg = cfg;
  p.timer = std::make_unique<tko::Event>(host_.timers(), [this, sid] { resend_reconfig(sid); });
  p.timer->schedule(p.backoff);
  pending_reconfigs_.erase(sid);  // a newer RECONFIG supersedes any older one
  pending_reconfigs_.emplace(sid, std::move(p));
}

void MantttsEntity::resend_reconfig(std::uint32_t sid) {
  auto it = pending_reconfigs_.find(sid);
  if (it == pending_reconfigs_.end()) return;
  PendingReconfig& p = it->second;
  if (--p.retries_left < 0) {
    on_reconfig_exhausted(sid);
    return;
  }
  ++stats_.reconfig_retries;
  trace("mantts.reconfig_retry", sid, static_cast<double>(p.retries_left));
  Signal s{tko::PduType::kReconfig, sid, p.cfg};
  signal_session_remotes(*p.session, s);
  p.backoff = p.backoff * 2;  // exponential backoff between resends
  p.timer->schedule(p.backoff);
}

void MantttsEntity::on_reconfig_exhausted(std::uint32_t sid) {
  auto it = pending_reconfigs_.find(sid);
  if (it == pending_reconfigs_.end()) return;
  tko::TransportSession* session = it->second.session;
  pending_reconfigs_.erase(it);
  ++stats_.renegotiation_failures;
  trace("mantts.renegotiation_failed", sid);

  // Graceful degradation: step the session down the QoS ladder one rung
  // and try to renegotiate the humbler configuration. The ladder bounds
  // the loop; when it runs out, the application is told the service is
  // degraded and the session soldiers on with what it has.
  int& rung = downgrade_rung_[sid];
  const auto down = downgrade_qos(session->config(), rung);
  if (down.has_value() && tko::sa::Synthesizer::validate(*down).empty()) {
    ++rung;
    ++stats_.qos_downgrades;
    trace("mantts.qos_downgrade", sid, static_cast<double>(rung));
    apply_and_propagate(*session, *down);
    return;
  }
  auto cb = qos_callbacks_.find(sid);
  if (cb != qos_callbacks_.end() && cb->second) cb->second(session->config());
}

}  // namespace adaptive::mantts
