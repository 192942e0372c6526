// The MANTTS entity: one per host (Section 4.1).
//
// Owns the three communication phases:
//  * connection negotiation & configuration — Stage I (classify), Stage II
//    (derive SCS, reconciled with the NMI's network state), optional
//    explicit negotiation with the remote entity over the out-of-band
//    signaling channel (with admission control at the responder), and
//    Stage III (synthesis via the transport's TKO synthesizer);
//  * data transfer & reconfiguration — per-session policy engines sample
//    the network and segue mechanisms on rule firings, keeping the remote
//    side's configuration in step via RECONFIG signaling;
//  * connection termination — graceful or abortive close, resource
//    release, and load recalculation.
#pragma once

#include "mantts/acd.hpp"
#include "mantts/negotiation.hpp"
#include "mantts/nmi.hpp"
#include "mantts/policy.hpp"
#include "mantts/synthesis_cache.hpp"
#include "mantts/transform.hpp"
#include "tko/transport.hpp"
#include "unites/collector.hpp"
#include "unites/conformance.hpp"

#include <functional>
#include <map>
#include <memory>
#include <set>

namespace adaptive::mantts {

class MantttsEntity {
public:
  MantttsEntity(os::Host& host, tko::AdaptiveTransport& transport,
                const ResourceLimits& limits = {});
  ~MantttsEntity();
  MantttsEntity(const MantttsEntity&) = delete;
  MantttsEntity& operator=(const MantttsEntity&) = delete;

  struct OpenResult {
    tko::TransportSession* session = nullptr;  ///< null on refusal/failure
    Tsc tsc = Tsc::kNonRealTimeNonIsochronous;
    tko::sa::SessionConfig scs;
    bool negotiated = false;  ///< explicit out-of-band negotiation happened
    bool refused = false;
    sim::SimTime configuration_time = sim::SimTime::zero();  ///< open_session -> session ready
  };
  using OpenCb = std::function<void(OpenResult)>;

  /// The MANTTS-API entry point: run the transformation pipeline for
  /// `acd` and deliver the session via `cb` (synchronously for implicit
  /// configurations, after the signaling exchange for explicit ones).
  void open_session(const Acd& acd, OpenCb cb);

  /// Termination phase: close, release resources, recalculate load.
  void close_session(tko::TransportSession& session, bool graceful = true);

  // --- data-transfer-phase reconfiguration -----------------------------
  /// Attach a policy engine to a live session. Every `period` the NMI is
  /// sampled and the rules evaluated; fired actions are applied locally
  /// (segue) and propagated to the remote entity.
  void enable_adaptation(tko::TransportSession& session, std::vector<TsaRule> rules,
                         sim::SimTime period = sim::SimTime::milliseconds(100));
  void disable_adaptation(tko::TransportSession& session);
  [[nodiscard]] bool adaptation_enabled(std::uint32_t sid) const {
    return adaptations_.contains(sid);
  }

  /// Application callback for QoS changes (fired on every applied
  /// reconfiguration and for kNotifyApplication rule actions).
  using QosChangeFn = std::function<void(const tko::sa::SessionConfig&)>;
  void set_qos_callback(tko::TransportSession& session, QosChangeFn fn);

  /// Explicit application-initiated reconfiguration (Section 4.1.2):
  /// install `cfg` locally and signal the remote entity ("Adjust the
  /// SCS": parameters/mechanisms change, the service class does not).
  void reconfigure_session(tko::TransportSession& session, const tko::sa::SessionConfig& cfg);

  /// "Adjust the TSC" (Section 4.1.2): the application's requirements
  /// themselves changed (e.g. it switched video coding schemes and now
  /// requires isochronous service). Re-runs Stage I and Stage II against
  /// `new_requirements` and fresh network state, producing a potentially
  /// completely new SCS, applied live via segue and propagated to the
  /// remote entity. Returns the new class.
  Tsc retarget_session(tko::TransportSession& session, const Acd& new_requirements);

  /// UNITES hookup: sessions whose ACD requested metrics are instrumented
  /// into this repository.
  void set_repository(unites::MetricRepository* repo) { repo_ = repo; }

  /// Conformance hookup (DESIGN §16): every session this entity opens has
  /// its QoS contract registered with `mon`, which then owns it: every
  /// resynthesis re-registers the contract the monitor holds, and the
  /// adaptation tick reads the session's health rung ("in contract /
  /// burning / breached") from it.
  void set_conformance(unites::ConformanceMonitor* mon) { conformance_ = mon; }
  [[nodiscard]] unites::ConformanceMonitor* conformance() { return conformance_; }

  /// Send one PROBE to `remote`'s MANTTS entity over the signaling
  /// channel; the reply feeds the NMI's measured-RTT estimator.
  void send_probe(net::NodeId remote);

  /// When enabled, every adaptation tick probes the session's remote
  /// first, so policy decisions run on measured round trips rather than
  /// the simulator's idle-path estimate.
  void set_probe_based_rtt(bool enabled) { probe_based_rtt_ = enabled; }

  struct Stats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t negotiations = 0;
    std::uint64_t refusals_received = 0;
    std::uint64_t admissions_refused = 0;
    std::uint64_t reconfigs_sent = 0;
    std::uint64_t reconfigs_received = 0;
    std::uint64_t policy_firings = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t probe_replies = 0;
    std::uint64_t adaptations_skipped_short_session = 0;
    // Fault handling (data-transfer-phase recovery).
    std::uint64_t faults_detected = 0;    ///< degraded-descriptor onsets
    std::uint64_t recoveries = 0;         ///< degraded -> healthy completions
    std::uint64_t renegotiations = 0;     ///< RECONFIG round trips completed
    std::uint64_t reconfig_retries = 0;   ///< RECONFIG resends (lost/ignored)
    std::uint64_t renegotiation_failures = 0;  ///< retry budget exhausted
    std::uint64_t qos_downgrades = 0;     ///< graceful-degradation rungs taken
    std::uint64_t watchdog_escalations = 0;  ///< session stalls escalated to renegotiation
    // Mobility (handover-driven resynthesis).
    std::uint64_t synth_invalidations = 0;  ///< SynthesisCache entries dropped on propagate
    std::uint64_t resyntheses = 0;  ///< propagations that caught the synthesis up to a new route
    // Conformance plane (DESIGN §16).
    std::uint64_t contracts_registered = 0;  ///< contract (re-)registrations pushed
    std::uint64_t contract_burn_ticks = 0;   ///< adaptation ticks observing kBurning
    std::uint64_t contract_breach_ticks = 0;  ///< adaptation ticks observing kBreached
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Sessions this entity opened that have neither gone through
  /// close_session nor been reaped by the transport.
  [[nodiscard]] std::size_t active_sessions() const { return open_.size(); }

  /// Descriptor-consistency introspection (survivability oracle input):
  /// the route version the NMI most recently reported for the session's
  /// path, and the one its current synthesis was propagated under. They
  /// diverge transiently during a handover and must reconverge once the
  /// route-changed rule fires — a session whose post-handover traffic
  /// still runs on the pre-handover synthesis is a survivability bug.
  [[nodiscard]] std::uint64_t observed_route_version(std::uint32_t sid) const {
    auto it = route_observed_.find(sid);
    return it == route_observed_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::uint64_t synthesized_route_version(std::uint32_t sid) const {
    auto it = route_synth_.find(sid);
    return it == route_synth_.end() ? 0 : it->second;
  }
  [[nodiscard]] bool synthesis_current(std::uint32_t sid) const {
    return observed_route_version(sid) == synthesized_route_version(sid);
  }
  /// Stage I/II memoization (DESIGN §14): hit/miss/eviction counters and
  /// deterministic-LRU introspection for the session-plane test battery.
  [[nodiscard]] SynthesisCache& synthesis_cache() { return synth_cache_; }
  [[nodiscard]] const SynthesisCache& synthesis_cache() const { return synth_cache_; }
  [[nodiscard]] NetworkMonitorInterface& nmi() { return nmi_; }
  [[nodiscard]] os::Host& host() { return host_; }
  [[nodiscard]] tko::AdaptiveTransport& transport() { return transport_; }

private:
  void on_signaling(net::Packet&& p);
  void send_signal(net::NodeId to, const Signal& s);
  /// Open bookkeeping shared by implicit and negotiated opens: register
  /// the contract, count the session, attach its collector and adaptation,
  /// then connect.
  void start_session(const Acd& acd, tko::TransportSession& session);
  /// Release every per-session entry this entity keeps. The one release
  /// point: close_session calls it, and so does the transport's reaper.
  void forget(std::uint32_t sid);
  void finish_open(std::uint32_t nonce, const tko::sa::SessionConfig& cfg, bool refused);
  /// Install `cfg` and signal it to the remotes. The session's contract is
  /// re-registered with the monitor: `contract` when the requirements
  /// changed (retarget), else the one the monitor already holds.
  void apply_and_propagate(tko::TransportSession& session, const tko::sa::SessionConfig& cfg,
                           const QosContract* contract = nullptr);
  /// Track an in-flight RECONFIG until its ack (bounded retry with
  /// exponential backoff); exhaustion falls down the QoS ladder.
  void track_reconfig(tko::TransportSession& session, const tko::sa::SessionConfig& cfg);
  void resend_reconfig(std::uint32_t sid);
  void on_reconfig_exhausted(std::uint32_t sid);
  void signal_session_remotes(tko::TransportSession& session, const Signal& s);

  os::Host& host_;
  tko::AdaptiveTransport& transport_;
  ResourceLimits limits_;
  NetworkMonitorInterface nmi_;
  unites::MetricRepository* repo_ = nullptr;
  unites::ConformanceMonitor* conformance_ = nullptr;
  Stats stats_;
  std::set<std::uint32_t> open_;  ///< sessions counted by active_sessions()

  struct Pending {
    Acd acd;
    Tsc tsc;
    tko::sa::SessionConfig proposal;
    OpenCb cb;
    sim::SimTime started;
    std::unique_ptr<tko::Event> retry;
    int retries_left = 3;
  };
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_nonce_ = 1;
  bool probe_based_rtt_ = false;
  std::map<std::uint32_t, sim::SimTime> probe_sent_at_;  // by nonce

  struct Adaptation {
    tko::TransportSession* session;
    PolicyEngine engine;
    std::unique_ptr<tko::Event> timer;
    // Fault episode the NMI currently reports on this session's path.
    bool degraded = false;
    sim::SimTime degraded_since = sim::SimTime::zero();
    std::uint32_t segues_at_fault = 0;  ///< session segue count at onset
  };
  std::map<std::uint32_t, Adaptation> adaptations_;  // by session id
  std::map<std::uint32_t, QosChangeFn> qos_callbacks_;
  std::map<std::uint32_t, std::unique_ptr<unites::SessionCollector>> collectors_;

  /// One in-flight RECONFIG per session, resent with exponential backoff
  /// until acked or the retry budget runs out.
  struct PendingReconfig {
    tko::TransportSession* session;
    tko::sa::SessionConfig cfg;
    int retries_left = kReconfigRetries;
    sim::SimTime backoff = kReconfigBackoff;
    std::unique_ptr<tko::Event> timer;
  };
  static constexpr int kReconfigRetries = 4;
  static constexpr sim::SimTime kReconfigBackoff = sim::SimTime::milliseconds(100);
  std::map<std::uint32_t, PendingReconfig> pending_reconfigs_;  // by session id
  std::map<std::uint32_t, int> downgrade_rung_;                 // next ladder rung

  /// Stage I/II result cache plus the key each live implicit session was
  /// derived from — a renegotiation invalidates that key (the cached
  /// derivation no longer reflects what the pipeline would produce for
  /// the conditions it was keyed under).
  SynthesisCache synth_cache_;
  std::map<std::uint32_t, SynthesisKey> synth_keys_;  // by session id

  /// Route version last observed per adapted session vs the one its
  /// synthesis was last propagated under (see synthesis_current()).
  std::map<std::uint32_t, std::uint64_t> route_observed_;
  std::map<std::uint32_t, std::uint64_t> route_synth_;
};

}  // namespace adaptive::mantts
