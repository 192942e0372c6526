// The ADAPTIVE transport: TransportSession + AdaptiveTransport protocol.
//
// TransportSession is the executable session object Stage III produces: it
// owns a TKO_Context of mechanisms and acts as the interpreter that runs
// PDUs through them (Section 4.2). It implements the generic Session
// interface upward (applications) and the SessionCore interface inward
// (mechanisms).
//
// AdaptiveTransport is the TKO_Protocol object: it binds the transport
// port on a host, multiplexes sessions by session id, creates passive
// sessions from SYN-carried or piggybacked SCSs, and owns the synthesizer
// and template cache.
//
// Protocol processing is charged to the host CPU in virtual time with a
// per-PDU instruction budget derived from the mechanisms in use, so
// lightweight configurations are measurably faster end to end — the
// paper's overweight-configuration argument made quantitative.
#pragma once

#include "os/host.hpp"
#include "tko/pdu.hpp"
#include "tko/protocol.hpp"
#include "tko/sa/context.hpp"
#include "tko/sa/synthesizer.hpp"
#include "tko/session.hpp"
#include "tko/session_table.hpp"

#include <functional>
#include <memory>

namespace adaptive::tko {

/// Well-known port of the ADAPTIVE transport on every host.
inline constexpr net::PortId kTransportPort = 7000;

class AdaptiveTransport;

/// Lazy FIFO of queued TSDUs. libstdc++'s deque eagerly allocates a
/// ~512-byte chunk map per instance even when empty; at metro scale
/// (10^5..10^6 sessions per world) that is pure dead weight on every
/// session that never queues. This queue is a plain vector with a head
/// cursor: nothing is allocated until the first push, pops release the
/// popped Message's segments immediately, and the consumed prefix is
/// compacted away once it dominates — amortized O(1) per operation.
class MessageQueue {
public:
  [[nodiscard]] bool empty() const { return head_ == q_.size(); }
  [[nodiscard]] std::size_t size() const { return q_.size() - head_; }
  void push_back(Message&& m) { q_.push_back(std::move(m)); }
  [[nodiscard]] Message& front() { return q_[head_]; }
  void pop_front() {
    q_[head_++] = Message();  // drop segment refs now, not at compaction
    if (head_ >= kCompactAt && head_ * 2 >= q_.size()) {
      q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() {
    std::vector<Message>().swap(q_);  // free capacity: aborted queues can be large
    head_ = 0;
  }

private:
  static constexpr std::size_t kCompactAt = 32;
  std::vector<Message> q_;
  std::size_t head_ = 0;
};

struct TransportSessionStats {
  std::uint64_t pdus_sent = 0;
  std::uint64_t pdus_received = 0;
  std::uint64_t path_changes = 0;  ///< mobility handovers re-anchoring this session
  std::uint64_t bytes_sent = 0;       ///< app payload bytes handed to the network
  std::uint64_t bytes_delivered = 0;  ///< app payload bytes delivered upward
  std::uint64_t checksum_failures = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t reassembly_desyncs = 0;   ///< wild TSDU length prefixes dropped
  std::uint64_t watchdog_stalls = 0;      ///< deadlines elapsed with no progress
  std::uint64_t watchdog_recoveries = 0;  ///< stalls that later made progress
  /// Peak of live_bytes() over the session's life — the per-session memory
  /// footprint the resource telemetry plane tracks (DESIGN §12). Sampled
  /// at the send/receive choke points, so transient intra-event spikes
  /// between them are not observed.
  std::uint64_t live_bytes_high_water = 0;
  sim::SimTime connect_started = sim::SimTime::zero();
  sim::SimTime established_at = sim::SimTime::zero();
};

class TransportSession final : public Session, public sa::SessionCore {
public:
  TransportSession(AdaptiveTransport& proto, std::uint32_t id, net::Address local,
                   std::vector<net::Address> remotes, const sa::SessionConfig& cfg,
                   std::unique_ptr<sa::Context> ctx, bool active);
  ~TransportSession() override;

  // ---- Session interface (application-facing) -------------------------
  bool send(Message&& m) override;
  void connect() override;
  void close(bool graceful = true) override;
  [[nodiscard]] SessionState state() const override { return state_; }
  [[nodiscard]] std::optional<std::string> control(std::string_view op) const override;
  [[nodiscard]] os::BufferPool* buffer_pool() override { return &buffers(); }

  // ---- SessionCore interface (mechanism-facing) ----------------------
  void emit(Pdu&& p) override;
  void deliver(Message&& m) override;
  os::TimerFacility& timers() override;
  os::BufferPool& buffers() override;
  [[nodiscard]] sim::SimTime now() const override;
  [[nodiscard]] std::size_t receiver_count() const override;
  [[nodiscard]] bool is_receiver(net::NodeId node) const override;
  void tx_ready() override;
  void connection_established() override;
  void connection_closed(bool aborted) override;
  void loss_signal() override;
  void count(std::string_view metric, double value = 1.0) override;
  [[nodiscard]] net::NodeId node_id() const override { return local_.node; }
  [[nodiscard]] std::uint32_t session_id() const override { return id_; }

  // ---- management ------------------------------------------------------
  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const sa::SessionConfig& config() const { return cfg_; }
  [[nodiscard]] sa::Context& context() { return *ctx_; }
  [[nodiscard]] const TransportSessionStats& stats() const { return stats_; }
  [[nodiscard]] os::Host& host();

  /// Payload bytes this session currently pins: queued TSDUs, partial
  /// TSDU reassembly, the reliability scheme's retransmission/FEC
  /// buffers, and resequencer holds. The per-session live-memory gauge
  /// the UNITES Sampler and resource snapshots read (DESIGN §12).
  [[nodiscard]] std::size_t live_bytes() const;

  /// Packet handed over by the protocol demultiplexer. Charges receive-
  /// side CPU before protocol processing.
  void handle_packet(net::Packet&& p);

  /// Apply a new SCS to the live session: every slot whose mechanism
  /// choice differs is replaced via segue (no data loss). MANTTS's
  /// "adjust the SCS" reconfiguration action.
  void reconfigure(const sa::SessionConfig& next);

  /// Mobility handover completed for one of this session's endpoints:
  /// re-anchor retransmission state (Karn path reseed) and re-pump so
  /// queued data immediately tries the new path.
  void on_path_change();

  /// Multicast churn: `receiver` left the session's group — drop its ack
  /// state so it cannot pin the survivors' window.
  void forget_receiver(net::NodeId receiver);

  /// Multicast churn: a member joined mid-stream — broadcast a stream
  /// anchor so the joiner can seed its cumulative point.
  void announce_anchor();

  /// UNITES instrumentation: receives every whitebox count() this session
  /// makes. Unset = uninstrumented (near-zero overhead).
  using MetricFn = std::function<void(std::string_view, double)>;
  void set_metric_hook(MetricFn fn) { metric_ = std::move(fn); }

  /// MANTTS hook observing loss signals (policy trigger input).
  using LossFn = std::function<void()>;
  void set_loss_observer(LossFn fn) { on_loss_ = std::move(fn); }

  /// Liveness watchdog. While the session has outstanding work (queued or
  /// unacknowledged data) but makes no progress — no newly-acked PDU, no
  /// upward delivery — for a full deadline, the watchdog counts a stall,
  /// prods the reliability mechanism (backoff reset + forced
  /// retransmission), re-pumps the transmit queue, and notifies the stall
  /// observer so MANTTS can escalate to renegotiation. Zero disables.
  void set_watchdog_deadline(sim::SimTime deadline) { wd_deadline_ = deadline; }
  using StallFn = std::function<void()>;
  void set_stall_observer(StallFn fn) { on_stall_ = std::move(fn); }
  [[nodiscard]] bool watchdog_stalled() const { return wd_stalled_; }

  // ---- interpreter trace -----------------------------------------------
  /// The session object "guides the actions of an interpreter that
  /// performs protocol processing activities on PDUs" (Section 4.1.1);
  /// the trace records that interpreter's steps: every PDU in or out,
  /// with direction, type, and sequencing fields — the protocol-debugging
  /// view a controlled prototyping environment owes its users.
  struct TraceEntry {
    sim::SimTime when;
    bool outbound = false;
    PduType type = PduType::kData;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::size_t payload_bytes = 0;
  };
  void enable_trace(std::size_t capacity) {
    trace_capacity_ = capacity;
    trace_.clear();
    trace_next_ = 0;
  }
  void disable_trace() { trace_capacity_ = 0; }
  /// Entries in chronological order (materialized from the ring).
  [[nodiscard]] std::vector<TraceEntry> trace() const;
  [[nodiscard]] std::string render_trace() const;

private:
  void process_pdu(Pdu&& p, net::NodeId from);
  void pump();
  void note_memory();
  void check_close_drain();
  void note_progress();
  void arm_watchdog();
  void watchdog_check();
  [[nodiscard]] bool watchdog_outstanding() const;
  [[nodiscard]] std::uint64_t tx_instr(std::size_t payload_bytes, PduType type) const;
  [[nodiscard]] std::uint64_t rx_instr(std::size_t wire_bytes) const;
  void send_wire(Message&& wire);

  AdaptiveTransport& proto_;
  std::uint32_t id_;
  sa::SessionConfig cfg_;
  std::unique_ptr<sa::Context> ctx_;
  bool active_;
  SessionState state_ = SessionState::kIdle;
  MessageQueue tx_queue_;
  /// Sum of tx_queue_ message sizes, maintained at push/pop so the
  /// live_bytes() gauge never walks the queue on the hot path.
  std::size_t tx_queue_bytes_ = 0;
  bool peer_confirmed_ = false;
  std::uint32_t piggyback_budget_ = 16;
  bool pump_scheduled_ = false;
  sim::EventHandle pump_timer_;
  /// Message-oriented reassembly: delivered bytes accumulate here until a
  /// complete [u32 length][payload] TSDU record is available.
  Message rx_assembly_;
  TransportSessionStats stats_;
  MetricFn metric_;
  LossFn on_loss_;
  /// Watchdog state: armed while outstanding work exists; the check fires
  /// at deadline/2 granularity so a stall is flagged within 1.5 deadlines.
  sim::SimTime wd_deadline_ = sim::SimTime::seconds(1.0);
  sim::EventHandle wd_timer_;
  bool wd_armed_ = false;
  bool wd_stalled_ = false;
  sim::SimTime wd_last_progress_ = sim::SimTime::zero();
  sim::SimTime wd_stall_since_ = sim::SimTime::zero();
  StallFn on_stall_;
  std::size_t trace_capacity_ = 0;
  /// Bounded interpreter trace: a flat ring (write cursor wraps once the
  /// capacity is reached) instead of a deque — empty costs nothing.
  std::vector<TraceEntry> trace_;
  std::size_t trace_next_ = 0;
  /// Liveness token for deferred CPU-charge completions. Sessions can now
  /// be destroyed mid-run (closed-session reaping under churn); a charge
  /// scheduled before destruction must not touch the carcass after.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  void record_trace(bool outbound, const Pdu& p);
};

class AdaptiveTransport final : public Protocol {
public:
  explicit AdaptiveTransport(os::Host& host, net::PortId port = kTransportPort);
  ~AdaptiveTransport() override;

  /// Active open: synthesize a session toward `remotes` (one unicast
  /// address, several unicast addresses, or one multicast group address)
  /// with configuration `cfg`. Synthesis cost is charged to the host CPU.
  /// `prevalidated` marks a MANTTS synthesis-cache hit: `cfg` already
  /// passed validation, so Stage III charges only instantiation.
  TransportSession& open(std::vector<net::Address> remotes, const sa::SessionConfig& cfg,
                         bool prevalidated = false);

  /// Invoked when a passive session is created by an arriving SYN or
  /// piggybacked-config data PDU.
  using AcceptFn = std::function<void(TransportSession&)>;
  void set_acceptor(AcceptFn fn) { acceptor_ = std::move(fn); }

  /// Admission control applied to every remotely proposed configuration
  /// (SYN-carried or piggybacked) before a passive session is synthesized.
  /// The possibly-downgraded result travels back in the SYNACK — the
  /// paper's "negotiation combined with explicit connection management
  /// during the initial handshake" (Section 4.1.1). Default: accept as-is.
  using AdmissionFn = std::function<sa::SessionConfig(const sa::SessionConfig&)>;
  void set_admission(AdmissionFn fn) { admission_ = std::move(fn); }

  void demux(net::Packet&& p) override;
  [[nodiscard]] std::size_t session_count() const override { return sessions_.size(); }

  [[nodiscard]] TransportSession* find_session(std::uint32_t id);

  /// Closed-session reaping for churn worlds. When enabled, a session
  /// that reaches kClosed/kAborted is destroyed `linger` after the
  /// transition (the linger absorbs late retransmissions and the peer's
  /// FIN handshake tail). Off by default: scenario harnesses read
  /// per-session stats after close, so they keep the carcasses. Worlds
  /// that churn 10^5+ opens per run must enable this or dead sessions
  /// accumulate without bound.
  void set_session_reaper(sim::SimTime linger) { reap_linger_ = linger; }
  [[nodiscard]] std::uint64_t sessions_reaped() const { return reaped_; }

  /// Invoked with the session's id just before the reaper destroys it —
  /// the only place a session dies mid-run — so state kept about it
  /// elsewhere can be released. The MANTTS entity installs this, as it
  /// does the admission hook.
  using ReapFn = std::function<void(std::uint32_t id)>;
  void set_reap_observer(ReapFn fn) { on_reap_ = std::move(fn); }

  /// Session-plane table counters (probe lengths, rehashes) for tests
  /// pinning the O(1) datapath contract.
  [[nodiscard]] const SessionTableStats& table_stats() const { return sessions_.stats(); }

  /// Visit every live session (resource snapshots, sweep harvests).
  /// Deterministic order: shard index, then slot order within the shard.
  template <typename Fn>
  void for_each_session(Fn&& fn) const {
    sessions_.for_each(fn);
  }

  [[nodiscard]] os::Host& host() { return host_; }
  [[nodiscard]] net::PortId port() const { return port_; }
  [[nodiscard]] sa::Synthesizer& synthesizer() { return synth_; }
  [[nodiscard]] sa::TemplateCache& templates() { return templates_; }

  [[nodiscard]] std::uint64_t orphan_pdus() const { return orphans_; }

private:
  friend class TransportSession;
  TransportSession& create_passive(std::uint32_t id, net::Address remote,
                                   const sa::SessionConfig& cfg);
  /// Called by a session on its kClosed/kAborted transition; schedules
  /// destruction after the reap linger when reaping is enabled.
  void note_session_closed(std::uint32_t id);

  os::Host& host_;
  net::PortId port_;
  sa::TemplateCache templates_ = sa::TemplateCache::with_defaults();
  sa::Synthesizer synth_{&templates_};
  SessionTable<TransportSession> sessions_;
  std::uint32_t next_session_ = 1;
  AcceptFn acceptor_;
  AdmissionFn admission_;
  ReapFn on_reap_;
  std::uint64_t orphans_ = 0;
  sim::SimTime reap_linger_ = sim::SimTime::zero();  ///< zero = reaping off
  std::uint64_t reaped_ = 0;
};

}  // namespace adaptive::tko
