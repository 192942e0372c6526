// TKO session architecture: abstract mechanism base classes (Figure 5).
//
// Each session activity — connection management, transmission control,
// reliability management, error detection, acknowledgment, sequencing —
// is rooted at an abstract base class. Concrete derived subclasses
// specialize the activity (Sliding_Window from Transmission_Management in
// the paper's example), and a TKO_Context composes one object per slot.
//
// Every base carries the paper's `segue` operation: replace a live
// mechanism with another WITHOUT losing data, by exporting a typed state
// snapshot from the old object and restoring it into the new one.
//
// Mechanisms never touch the host, network, or session internals directly;
// they operate through the narrow SessionCore interface, which keeps them
// "plug-compatible" and individually unit-testable.
#pragma once

#include "net/packet.hpp"
#include "os/buffer_pool.hpp"
#include "os/timer_facility.hpp"
#include "tko/message.hpp"
#include "tko/pdu.hpp"
#include "tko/sa/config.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <string_view>

namespace adaptive::tko::sa {

/// What a mechanism may ask of its enclosing session.
class SessionCore {
public:
  virtual ~SessionCore() = default;

  /// Emit a PDU toward the session's remote participant(s). The session
  /// fills in the session id and applies error detection on the way out.
  virtual void emit(Pdu&& p) = 0;

  /// Hand received application data up (post-reliability, post-ordering).
  virtual void deliver(Message&& m) = 0;

  virtual os::TimerFacility& timers() = 0;
  virtual os::BufferPool& buffers() = 0;
  [[nodiscard]] virtual sim::SimTime now() const = 0;

  /// Number of remote receivers (1 unicast, N multicast).
  [[nodiscard]] virtual std::size_t receiver_count() const = 0;

  /// True when `node` is currently an intended receiver of this session's
  /// data (a live multicast group member; always true for unicast). A
  /// leaver's last acks can still be in flight when the membership change
  /// lands — re-admitting one would resurrect its cumulative-ack entry
  /// and pin the send window forever.
  [[nodiscard]] virtual bool is_receiver(net::NodeId) const { return true; }

  /// A transmission slot may have opened; the session should try to send
  /// queued data (called by transmission control on acks / pacing ticks).
  virtual void tx_ready() = 0;

  /// Connection-management callbacks.
  virtual void connection_established() = 0;
  virtual void connection_closed(bool aborted) = 0;

  /// Reliability detected loss (timeout or NACK); the session routes this
  /// to transmission control (congestion response) and MANTTS policies.
  virtual void loss_signal() = 0;

  /// Whitebox instrumentation hook (UNITES). Cheap no-op when the session
  /// is not instrumented.
  virtual void count(std::string_view metric, double value = 1.0) = 0;

  /// Trace hook (UNITES): a kTko instant in the World's trace ring,
  /// stamped with now, the owning host's node and session_id(). The
  /// defaults keep unit-test session stubs source-compatible: a stub
  /// records nothing and has session id 0.
  virtual void trace_event(const char* /*name*/, double /*value*/ = 0.0,
                           const char* /*detail*/ = nullptr) {}
  [[nodiscard]] virtual std::uint32_t session_id() const { return 0; }
};

enum class MechanismSlot : std::uint8_t {
  kConnection = 0,
  kTransmission,
  kReliability,
  kErrorDetection,
  kAckStrategy,
  kSequencing,
  kSlotCount,
};

[[nodiscard]] const char* to_string(MechanismSlot s);

class AckStrategy;
class Sequencing;

class Mechanism {
public:
  virtual ~Mechanism() = default;
  Mechanism() = default;
  Mechanism(const Mechanism&) = delete;
  Mechanism& operator=(const Mechanism&) = delete;

  [[nodiscard]] virtual MechanismSlot slot() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Bind to the enclosing session. Called once by the Context (and again
  /// on the replacement object during a segue).
  void attach(SessionCore& core) {
    core_ = &core;
    on_attach();
  }
  [[nodiscard]] bool attached() const { return core_ != nullptr; }

protected:
  virtual void on_attach() {}
  SessionCore* core_ = nullptr;
};

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

struct ConnectionState {
  bool established = false;
  bool closing = false;
};

class ConnectionMgmt : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kConnection; }

  /// Active open.
  virtual void open() = 0;
  /// Passive establishment: the transport accepted this session on behalf
  /// of an arriving SYN or piggybacked-config data PDU.
  virtual void open_passive() = 0;
  /// Begin close; graceful closes wait for `data_drained` before FIN.
  virtual void close(bool graceful) = 0;
  /// Handle SYN/SYNACK/FIN/FINACK/ABORT/CONFIG PDUs.
  virtual void on_pdu(const Pdu& p) = 0;
  /// May data PDUs be sent right now?
  [[nodiscard]] virtual bool can_carry_data() const = 0;
  /// Reliability reports that all outstanding data is acknowledged
  /// (unblocks a pending graceful close).
  virtual void data_drained() = 0;

  [[nodiscard]] virtual ConnectionState snapshot() const = 0;
  virtual void restore(const ConnectionState& s) = 0;
  virtual void segue_from(ConnectionMgmt& old) { restore(old.snapshot()); }
};

// ---------------------------------------------------------------------------
// Transmission control
// ---------------------------------------------------------------------------

struct TransmissionState {
  std::uint32_t in_flight_pdus = 0;
  /// 0xFFFF = no advertisement seen (windowless predecessors leave it so);
  /// restoring 0 would deadlock the window.
  std::uint16_t peer_window = 0xFFFF;
  double cwnd_pdus = 0.0;  ///< congestion window (slow-start variants)
  sim::SimTime earliest_send = sim::SimTime::zero();
};

class TransmissionCtrl : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kTransmission; }

  /// May another PDU be sent now, given `in_flight` unacknowledged PDUs
  /// (window space and pacing)?
  [[nodiscard]] virtual bool can_send(std::uint32_t in_flight) const = 0;
  /// Absolute time before which the next send must wait (pacing); zero()
  /// means "immediately".
  [[nodiscard]] virtual sim::SimTime earliest_send() const { return sim::SimTime::zero(); }
  virtual void on_pdu_sent(std::size_t bytes) = 0;
  /// `newly_acked` PDUs have left the network.
  virtual void on_ack(std::uint32_t newly_acked) = 0;
  /// Congestion signal (retransmission timeout or NACK).
  virtual void on_loss() {}
  /// Peer-advertised receive window (flow control).
  virtual void on_peer_window(std::uint16_t w) { (void)w; }
  /// Window to advertise to the peer.
  [[nodiscard]] virtual std::uint16_t advertised_window() const { return 0xFFFF; }

  [[nodiscard]] virtual TransmissionState snapshot() const = 0;
  virtual void restore(const TransmissionState& s) = 0;
  virtual void segue_from(TransmissionCtrl& old) { restore(old.snapshot()); }
};

// ---------------------------------------------------------------------------
// Reliability management (composite: detection hand-off, reporting,
// recovery — Section 4.2.2's composite component)
// ---------------------------------------------------------------------------

struct ReliabilityState {
  std::uint32_t next_seq = 1;   ///< next sequence number to assign
  std::uint32_t send_base = 1;  ///< lowest unacknowledged sequence
  std::map<std::uint32_t, Message> unacked;  ///< retransmission store
  /// Sum of unacked payload sizes, maintained at every insert/erase so
  /// buffered_bytes() is O(1) on the per-PDU accounting path.
  std::size_t unacked_bytes = 0;
  std::uint32_t rcv_cum = 0;    ///< highest in-order sequence received
  std::set<std::uint32_t> rcv_out_of_order;
  std::map<net::NodeId, std::uint32_t> per_receiver_cum;  ///< multicast acks
  /// Receiver side has anchored its cumulative point. A receiver that
  /// joins a group mid-stream sees its first DATA PDU at an arbitrary
  /// sequence; an unprimed receiver seeds rcv_cum just below it (and
  /// tells sequencing to start there) instead of demanding seq 1 — which
  /// would discard everything and ack cum=0 forever, wedging the sender.
  bool rcv_primed = false;
};

struct ReliabilityStats {
  std::uint64_t data_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t duplicates_received = 0;
  std::uint64_t parity_sent = 0;
  std::uint64_t fec_recoveries = 0;
  std::uint64_t unrecovered_losses = 0;
  /// Implausible wire inputs rejected (chaos hardening): acks serially
  /// ahead of anything sent, data sequences far beyond the receive window.
  std::uint64_t wild_acks_rejected = 0;
  std::uint64_t wild_seqs_rejected = 0;
  // Mobility (handover/churn survivability). Counters are per mechanism
  // instance, like everything else here — a mid-run segue starts fresh.
  std::uint64_t path_reseeds = 0;         ///< Karn path switches (RTT state dropped)
  std::uint64_t receivers_forgotten = 0;  ///< group leavers unpinned from the window
  std::uint64_t stale_acks_ignored = 0;   ///< acks from departed members dropped
  std::uint64_t anchors_sent = 0;         ///< kAnchor PDUs broadcast for joiners
  std::uint64_t anchors_applied = 0;      ///< receive side jumped forward to an anchor
};

class ReliabilityMgmt : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kReliability; }

  /// Sender path: assign a sequence number, emit a DATA PDU, and keep
  /// whatever recovery state the scheme needs.
  virtual void send_data(Message&& payload) = 0;
  /// Process an ACK from receiver `from`; returns how many PDUs it newly
  /// acknowledged (the session feeds this to transmission control).
  virtual std::uint32_t on_ack(const Pdu& p, net::NodeId from) = 0;
  virtual void on_nack(const Pdu& p, net::NodeId from) = 0;
  /// Receiver path: DATA and FECPARITY PDUs from sender `from`.
  virtual void on_data(Pdu&& p, net::NodeId from) = 0;

  /// The Context wires the sibling slots reliability collaborates with:
  /// the ack strategy (timing of acks) and sequencing (delivery order).
  virtual void wire(AckStrategy* ack, Sequencing* sequencing) = 0;

  /// The session is draining toward a graceful close; emit anything held
  /// back (e.g. a partial FEC group's parity).
  virtual void on_close_drain() {}

  /// Liveness-watchdog kick: the session saw no progress for a full
  /// deadline despite outstanding data. Retransmission schemes clear any
  /// accumulated RTO backoff and force a retransmission so a backed-off
  /// timer cannot wedge the session; schemes without retransmission
  /// ignore it.
  virtual void prod() {}

  /// Mobility handover: the network re-homed one of the session's
  /// endpoints, so every pending RTT timestamp describes the *old* path.
  /// Schemes discard them (Karn applied to path switches) and re-seed the
  /// estimator; stragglers still in flight on the dead path then cannot
  /// pollute the new path's RTO.
  virtual void on_path_change() {}

  /// Multicast churn: `receiver` left the group. The sender drops its
  /// per-receiver cumulative-ack entry so a departed member can no longer
  /// pin the group's effective cumulative ack (which would stall everyone
  /// else), and re-derives window state from the survivors.
  virtual void forget_receiver(net::NodeId receiver) { (void)receiver; }

  /// Multicast churn, sender side: broadcast a kAnchor PDU carrying the
  /// lowest retrievable sequence so a receiver that joined mid-stream can
  /// anchor its cumulative point (see on_anchor). Called on every join and
  /// re-announced by the watchdog prod path, so a lost anchor cannot wedge
  /// the group permanently.
  virtual void announce_anchor() {}

  /// Receiver side of announce_anchor. Anchors are safe to apply
  /// unconditionally: the sender's retransmission base can only advance
  /// past a sequence every *current* member has acknowledged, so for any
  /// receiver the sender is still tracking the anchor is at or below its
  /// own cum+1 (a no-op). Only a mid-stream joiner — whose entry the
  /// sender does not have — sees an anchor ahead of its cum, and for the
  /// joiner the skipped range is precisely the data sent while it was not
  /// a member.
  virtual void on_anchor(std::uint32_t anchor) { (void)anchor; }

  /// True when every sent PDU has been acknowledged (graceful-close gate).
  [[nodiscard]] virtual bool all_acked() const = 0;
  /// PDUs in flight (sent, unacknowledged) — transmission control input.
  [[nodiscard]] virtual std::uint32_t in_flight() const = 0;
  /// Payload bytes this scheme currently pins (retransmission store,
  /// partial FEC groups) — per-session memory-accounting gauge (DESIGN
  /// §12).
  [[nodiscard]] virtual std::size_t buffered_bytes() const { return 0; }

  [[nodiscard]] const ReliabilityStats& stats() const { return stats_; }

  [[nodiscard]] virtual ReliabilityState snapshot() = 0;
  virtual void restore(ReliabilityState&& s) = 0;
  virtual void segue_from(ReliabilityMgmt& old) { restore(old.snapshot()); }

protected:
  ReliabilityStats stats_;
};

// ---------------------------------------------------------------------------
// Error detection
// ---------------------------------------------------------------------------

class ErrorDetection : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kErrorDetection; }
  [[nodiscard]] virtual ChecksumKind kind() const = 0;
  [[nodiscard]] virtual ChecksumPlacement placement() const = 0;
  /// Stateless: segue is trivially a swap.
  virtual void segue_from(ErrorDetection&) {}
};

// ---------------------------------------------------------------------------
// Acknowledgment strategy (when to ack; reliability decides what)
// ---------------------------------------------------------------------------

class AckStrategy : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kAckStrategy; }

  /// Reliability installs the action that emits its current ACK state.
  using EmitAck = std::function<void()>;
  void set_emitter(EmitAck e) { emit_ack_ = std::move(e); }

  /// Called by the reliability receiver for each accepted data PDU.
  virtual void on_data_received(bool in_order) = 0;
  /// Force any coalesced ACK out now (window stall, close).
  virtual void flush() = 0;

  virtual void segue_from(AckStrategy&) {}

protected:
  void fire() {
    if (emit_ack_) emit_ack_();
  }
  EmitAck emit_ack_;
};

// ---------------------------------------------------------------------------
// Sequencing (delivery order)
// ---------------------------------------------------------------------------

struct SequencingState {
  std::uint32_t next_deliver = 1;
  std::map<std::uint32_t, Message> held;
};

class Sequencing : public Mechanism {
public:
  [[nodiscard]] MechanismSlot slot() const final { return MechanismSlot::kSequencing; }

  /// Offer an accepted (deduplicated, recovered) data unit for delivery.
  virtual void offer(std::uint32_t seq, Message&& payload) = 0;

  /// A reliability scheme that cannot fill a gap (no recovery, or FEC that
  /// failed to reconstruct) declares the hole permanent: release anything
  /// held below `next_expected` and move on.
  virtual void gap_skip(std::uint32_t next_expected) { (void)next_expected; }

  /// Data units currently buffered awaiting order.
  [[nodiscard]] virtual std::size_t held() const = 0;

  /// Payload bytes buffered awaiting order (memory-accounting gauge).
  [[nodiscard]] virtual std::size_t held_bytes() const { return 0; }

  /// Stale data units dropped because they arrived below the delivery
  /// horizon — old-path stragglers after a handover or segue. Counted,
  /// never delivered out of order.
  [[nodiscard]] virtual std::uint64_t stragglers_dropped() const { return 0; }

  [[nodiscard]] virtual SequencingState snapshot() = 0;
  virtual void restore(SequencingState&& s) = 0;
  virtual void segue_from(Sequencing& old) { restore(old.snapshot()); }
};

}  // namespace adaptive::tko::sa
