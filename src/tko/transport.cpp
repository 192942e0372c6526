#include "tko/transport.hpp"

#include "unites/metric.hpp"
#include "unites/profiler.hpp"
#include "unites/spans.hpp"
#include "unites/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace adaptive::tko {

namespace {

// Per-PDU instruction budgets by mechanism weight. A configuration's cost
// is the sum of what its mechanisms actually do — the quantitative form of
// the paper's overweight/underweight argument.
constexpr std::uint64_t kPduBaseInstr = 600;        // header build/parse, demux
constexpr std::uint64_t kWindowBookkeepingInstr = 80;
constexpr std::uint64_t kRecoveryNoneInstr = 40;
constexpr std::uint64_t kRecoveryGbnInstr = 180;
constexpr std::uint64_t kRecoverySrInstr = 300;
constexpr std::uint64_t kRecoveryFecInstr = 160;
constexpr double kCksum16InstrPerByte = 0.75;
constexpr double kCrc32InstrPerByte = 1.25;
constexpr double kFecXorInstrPerByte = 1.0;
constexpr std::uint64_t kOrderedInstr = 60;

// Largest credible TSDU length prefix during message reassembly. A
// corrupted prefix that slipped past error detection would otherwise wedge
// reassembly forever, waiting for gigabytes that never arrive.
constexpr std::uint32_t kMaxTsduBytes = 1u << 24;

std::uint64_t detection_instr(sa::DetectionScheme det, std::size_t bytes) {
  switch (det) {
    case sa::DetectionScheme::kNone: return 0;
    case sa::DetectionScheme::kInternet16Header:
      // Header placement forces a second pass over the image (footnote 2).
      return static_cast<std::uint64_t>(kCksum16InstrPerByte * 1.5 * static_cast<double>(bytes));
    case sa::DetectionScheme::kInternet16Trailer:
      return static_cast<std::uint64_t>(kCksum16InstrPerByte * static_cast<double>(bytes));
    case sa::DetectionScheme::kCrc32Trailer:
      return static_cast<std::uint64_t>(kCrc32InstrPerByte * static_cast<double>(bytes));
  }
  return 0;
}

std::uint64_t recovery_instr(sa::RecoveryScheme rec) {
  switch (rec) {
    case sa::RecoveryScheme::kNone: return kRecoveryNoneInstr;
    case sa::RecoveryScheme::kGoBackN: return kRecoveryGbnInstr;
    case sa::RecoveryScheme::kSelectiveRepeat: return kRecoverySrInstr;
    case sa::RecoveryScheme::kForwardErrorCorrection: return kRecoveryFecInstr;
  }
  return kRecoveryNoneInstr;
}

}  // namespace

// ===========================================================================
// TransportSession
// ===========================================================================

TransportSession::TransportSession(AdaptiveTransport& proto, std::uint32_t id,
                                   net::Address local, std::vector<net::Address> remotes,
                                   const sa::SessionConfig& cfg,
                                   std::unique_ptr<sa::Context> ctx, bool active)
    : Session(local, std::move(remotes)),
      proto_(proto),
      id_(id),
      cfg_(cfg),
      ctx_(std::move(ctx)),
      active_(active),
      pump_timer_(proto.host().timers().scheduler(), [this] { pump(); }),
      wd_timer_(proto.host().timers().scheduler(), [this] { watchdog_check(); }) {
  if (remotes_.empty()) throw std::invalid_argument("TransportSession: no remote participants");
  ctx_->attach_all(*this);
  if (cfg_.connection != sa::ConnectionScheme::kImplicit) {
    // Explicit sessions carry the config in the SYN, not piggybacked.
    piggyback_budget_ = 0;
  }
}

TransportSession::~TransportSession() = default;

os::Host& TransportSession::host() { return proto_.host(); }
os::TimerFacility& TransportSession::timers() { return proto_.host().timers(); }
os::BufferPool& TransportSession::buffers() { return proto_.host().buffers(); }
sim::SimTime TransportSession::now() const { return proto_.host().now(); }
unites::TraceRecorder& TransportSession::trace_ring() { return proto_.host().network().trace(); }

void TransportSession::trace_event(const char* name, double value, const char* detail) {
  unites::TraceRecorder& ring = trace_ring();
  if (ring.enabled()) {
    ring.instant(unites::TraceCategory::kTko, name, now(), local_.node, id_, value, detail);
  }
}

std::size_t TransportSession::receiver_count() const {
  if (remotes_.size() == 1 && net::is_multicast(remotes_.front().node)) {
    const auto& members = proto_.host().network().group_members(remotes_.front().node);
    std::size_t n = 0;
    for (const net::NodeId m : members) {
      if (m != proto_.host().node_id()) ++n;
    }
    return n;
  }
  return remotes_.size();
}

bool TransportSession::is_receiver(net::NodeId node) const {
  if (remotes_.size() == 1 && net::is_multicast(remotes_.front().node)) {
    const auto& members = proto_.host().network().group_members(remotes_.front().node);
    return std::find(members.begin(), members.end(), node) != members.end();
  }
  return true;
}

void TransportSession::count(std::string_view metric, double value) {
  if (metric_) metric_(metric, value);
}

// ---- application-facing ---------------------------------------------------

void TransportSession::connect() {
  if (state_ != SessionState::kIdle) return;
  state_ = SessionState::kConnecting;
  stats_.connect_started = now();
  trace_event("tko.connect");
  ctx_->connection().open();
}

bool TransportSession::send(Message&& m) {
  if (state_ == SessionState::kClosed || state_ == SessionState::kAborted ||
      state_ == SessionState::kClosing) {
    return false;
  }
  if (state_ == SessionState::kIdle) connect();

  UNITES_PROF_S("transport.send", id_);
  trace_event("tko.submit", static_cast<double>(m.size()));
  if (m.lifecycle() != 0) {
    trace_event(unites::lifecycle::kSubmit, static_cast<double>(m.lifecycle() - 1));
  }

  // Application -> transport boundary: one user/kernel crossing.
  proto_.host().cpu().run_context_switch(nullptr);

  if (cfg_.message_oriented) {
    // Prefix the TSDU with its length so the receiver can restore the
    // application message boundary after segmentation.
    const auto len = static_cast<std::uint32_t>(m.size());
    const std::uint8_t hdr[4] = {static_cast<std::uint8_t>(len >> 24),
                                 static_cast<std::uint8_t>(len >> 16),
                                 static_cast<std::uint8_t>(len >> 8),
                                 static_cast<std::uint8_t>(len)};
    m.push(hdr);
  }

  // Segment to the configured PDU payload size (bounded by the path MTU).
  std::size_t seg = cfg_.segment_bytes;
  if (!net::is_multicast(remotes_.front().node)) {
    const std::size_t mtu = proto_.host().nic().mtu_to(remotes_.front().node);
    if (mtu > kPduHeaderBytes + kChecksumTrailerBytes + 8) {
      seg = std::min<std::size_t>(
          seg, mtu - kPduHeaderBytes - kChecksumTrailerBytes - sa::SessionConfig::kWireBytes);
    }
  }
  tx_queue_bytes_ += m.size();  // every chunk of m lands in the queue
  while (m.size() > seg) {
    Message tail = m.split(seg);
    tx_queue_.push_back(std::move(m));
    m = std::move(tail);
  }
  tx_queue_.push_back(std::move(m));
  pump();
  arm_watchdog();
  note_memory();
  return true;
}

bool TransportSession::writable() const {
  if (state_ == SessionState::kClosing || state_ == SessionState::kClosed ||
      state_ == SessionState::kAborted) {
    return true;  // send() refuses: there is no room to wait for
  }
  // The send buffer is one window of the live SCS. A windowless (rate- or
  // un-controlled) SCS still buffers one segment, so the bound is never 0.
  const std::size_t window = std::max<std::size_t>(cfg_.window_pdus, 1);
  return tx_queue_bytes_ < window * cfg_.segment_bytes;
}

void TransportSession::close(bool graceful) {
  if (state_ == SessionState::kClosed || state_ == SessionState::kAborted) return;
  if (state_ == SessionState::kIdle) {
    state_ = SessionState::kClosed;
    notify_state(state_);
    proto_.note_session_closed(id_);
    return;
  }
  state_ = SessionState::kClosing;
  release_writable();  // a waiting producer's next send() is refused
  if (!graceful) {
    tx_queue_.clear();
    tx_queue_bytes_ = 0;
    ctx_->connection().close(/*graceful=*/false);
    return;
  }
  ctx_->connection().close(/*graceful=*/true);
  check_close_drain();
}

void TransportSession::check_close_drain() {
  if (state_ != SessionState::kClosing) return;
  if (!tx_queue_.empty()) return;
  if (!ctx_->reliability().all_acked()) return;
  ctx_->reliability().on_close_drain();
  ctx_->ack_strategy().flush();
  ctx_->connection().data_drained();
}

std::optional<std::string> TransportSession::control(std::string_view op) const {
  if (op == "config") return cfg_.describe();
  if (op == "context") return ctx_->describe();
  if (op == "mtu" && !remotes_.empty() && !net::is_multicast(remotes_.front().node)) {
    return std::to_string(
        const_cast<AdaptiveTransport&>(proto_).host().nic().mtu_to(remotes_.front().node));
  }
  return Session::control(op);
}

// ---- transmit path ----------------------------------------------------------

void TransportSession::pump() {
  if (!ctx_->connection().can_carry_data()) return;
  UNITES_PROF_S("transport.pump", id_);
  auto& tx = ctx_->transmission();
  auto& rel = ctx_->reliability();
  while (!tx_queue_.empty()) {
    const std::uint32_t in_flight = rel.in_flight();
    if (!tx.can_send(in_flight)) {
      const sim::SimTime at = tx.earliest_send();
      if (at > now() && !pump_timer_.pending()) {
        // Pacing gap: wake up when it elapses. Window stalls wake via
        // tx_ready() on the next ack instead.
        pump_timer_.arm_at(at);
      }
      if (writable()) release_writable();
      return;
    }
    Message chunk = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    const std::size_t bytes = chunk.size();
    tx_queue_bytes_ -= bytes;
    rel.send_data(std::move(chunk));
    tx.on_pdu_sent(bytes);
    stats_.bytes_sent += bytes;
  }
  if (writable()) release_writable();
  check_close_drain();
  note_memory();
}

std::size_t TransportSession::live_bytes() const {
  // Everything this session pins on behalf of the application: unsent
  // TSDUs, the partial reassembly, retransmission/FEC retention, and
  // resequencer holds. Wire copies in flight belong to the network, not
  // the session.
  // All four terms are maintained counters, so the gauge is O(1): it runs
  // inside note_memory() at every send/receive choke point, where walking
  // the tx queue would cost O(queued TSDUs) per PDU.
  std::size_t n = rx_assembly_.size() + tx_queue_bytes_;
  n += ctx_->reliability().buffered_bytes();
  n += ctx_->sequencing().held_bytes();
  return n;
}

void TransportSession::note_memory() {
  stats_.live_bytes_high_water =
      std::max<std::uint64_t>(stats_.live_bytes_high_water, live_bytes());
}

void TransportSession::tx_ready() { pump(); }

std::uint64_t TransportSession::tx_instr(std::size_t payload_bytes, PduType type) const {
  const std::size_t wire = payload_bytes + kPduHeaderBytes;
  // Checksum offload: the adapter computes error detection at line rate,
  // so the host charges nothing for it (remedy category 3 of Section 3B).
  const bool offload = proto_.host().nic().config().checksum_offload;
  std::uint64_t instr = kPduBaseInstr + kWindowBookkeepingInstr +
                        recovery_instr(cfg_.recovery) +
                        (offload ? 0 : detection_instr(cfg_.detection, wire));
  if (type == PduType::kFecParity) {
    instr += static_cast<std::uint64_t>(kFecXorInstrPerByte * static_cast<double>(payload_bytes) *
                                        cfg_.fec_group_size);
  }
  return instr;
}

std::uint64_t TransportSession::rx_instr(std::size_t wire_bytes) const {
  const bool offload = proto_.host().nic().config().checksum_offload;
  std::uint64_t instr = kPduBaseInstr + recovery_instr(cfg_.recovery) +
                        (offload ? 0 : detection_instr(cfg_.detection, wire_bytes));
  if (cfg_.ordered_delivery) instr += kOrderedInstr;
  return instr;
}

void TransportSession::emit(Pdu&& p) {
  UNITES_PROF_S("transport.emit", id_);
  p.session_id = id_;
  p.window = ctx_->transmission().advertised_window();
  // Read the lifecycle before any config piggyback replaces the payload
  // message (the prefix Message would otherwise reset it to untracked).
  const std::uint64_t lifecycle = p.payload.lifecycle();

  // Implicit negotiation: piggyback the SCS onto early data PDUs until the
  // peer is known to have seen one (Section 4.1.1). Multicast sessions
  // piggyback on every data PDU so participants who join mid-session can
  // synthesize the configuration from any frame they receive.
  const bool always_piggyback = is_multicast_session();
  // Anchors piggyback the SCS too: a mid-stream joiner's first parseable
  // frame is often the anchor itself, and the demux needs the config to
  // create the joiner's passive session from it.
  if ((p.type == PduType::kData || (p.type == PduType::kAnchor && always_piggyback)) &&
      (always_piggyback || (piggyback_budget_ > 0 && !peer_confirmed_))) {
    if (!always_piggyback) --piggyback_budget_;
    p.flags |= pdu_flags::kPiggybackConfig;
    Message with_cfg = Message::from_bytes(cfg_.serialize(), &buffers());
    with_cfg.concat(std::move(p.payload));
    p.payload = std::move(with_cfg);
  }

  record_trace(/*outbound=*/true, p);
  if (p.type == PduType::kData && lifecycle != 0) {
    trace_event(unites::lifecycle::kTx,
                unites::pack_unit_seq(static_cast<std::uint32_t>(lifecycle - 1), p.seq));
  }
  const std::size_t payload_bytes = p.payload.size();
  const PduType type = p.type;
  auto& det = ctx_->detection();
  Message wire = encode_pdu(std::move(p), det.kind(), det.placement());

  ++stats_.pdus_sent;
  count("pdu.sent");

  // Charge transmit-side protocol processing, then hand to the NIC. The
  // completion may land after a churn reap destroyed this session; the
  // weak token turns that into a dropped wire image instead of a
  // use-after-free.
  proto_.host().cpu().run(
      tx_instr(payload_bytes, type),
      [this, alive = std::weak_ptr<char>(alive_), wire = std::move(wire)]() mutable {
        if (alive.expired()) return;
        send_wire(std::move(wire));
      });
}

void TransportSession::send_wire(Message&& wire) {
  if (remotes_.size() == 1) {
    net::Packet pkt;
    pkt.src = local_;
    pkt.dst = remotes_.front();
    pkt.priority = cfg_.priority;
    pkt.payload = std::move(wire);  // segment chain rides through untouched
    proto_.host().send(std::move(pkt));
    return;
  }
  // Several unicast participants: shallow clones share the wire segments —
  // the fan-out a transport without network multicast is forced to do
  // (experiment E-X3's underweight case) now costs headers, not payloads.
  for (const auto& r : remotes_) {
    net::Packet pkt;
    pkt.src = local_;
    pkt.dst = r;
    pkt.priority = cfg_.priority;
    pkt.payload = wire.clone();
    proto_.host().send(std::move(pkt));
  }
}

// ---- receive path ---------------------------------------------------------

void TransportSession::handle_packet(net::Packet&& p) {
  const std::size_t wire_bytes = p.payload.size();
  const net::NodeId from = p.src.node;
  // Adopt the wire image: the packet's segment chain becomes the session's,
  // re-homed to this host's pool for copy accounting.
  Message wire = std::move(p.payload);
  wire.set_pool(&buffers());
  proto_.host().cpu().run(rx_instr(wire_bytes), [this, alive = std::weak_ptr<char>(alive_),
                                                 wire = std::move(wire), from]() mutable {
    if (alive.expired()) return;  // reaped while the charge was in flight
    UNITES_PROF_S("transport.rx", id_);
    auto result = decode_pdu(std::move(wire));
    if (result.status == DecodeStatus::kChecksumMismatch) {
      ++stats_.checksum_failures;
      count("pdu.checksum_error");
      return;
    }
    if (result.status != DecodeStatus::kOk) {
      count("pdu.malformed");
      return;
    }
    process_pdu(std::move(result.pdu), from);
    note_memory();
  });
}

void TransportSession::process_pdu(Pdu&& p, net::NodeId from) {
  record_trace(/*outbound=*/false, p);
  ++stats_.pdus_received;
  peer_confirmed_ = true;
  count("pdu.received");

  if (p.has_flag(pdu_flags::kPiggybackConfig) && p.payload.size() >= sa::SessionConfig::kWireBytes) {
    // Config prefix was consumed at session-creation time; strip it here.
    p.payload.consume(sa::SessionConfig::kWireBytes);
  }

  switch (p.type) {
    case PduType::kSynAck:
      // In-handshake negotiation: the SYNACK may carry the responder's
      // (possibly downgraded) configuration; adopt it before data flows.
      if (active_ && p.payload.size() >= sa::SessionConfig::kWireBytes) {
        const auto counter =
            sa::SessionConfig::deserialize(p.payload.peek(sa::SessionConfig::kWireBytes));
        if (counter.has_value() && !(*counter == cfg_)) {
          count("negotiation.counter_proposal");
          reconfigure(*counter);
        }
      }
      [[fallthrough]];
    case PduType::kSyn:
    case PduType::kHandshakeAck:
    case PduType::kFin:
    case PduType::kFinAck:
    case PduType::kAbort:
      ctx_->connection().on_pdu(p);
      return;
    case PduType::kAck: {
      const std::uint32_t newly = ctx_->reliability().on_ack(p, from);
      ctx_->transmission().on_peer_window(p.window);
      ctx_->transmission().on_ack(newly);
      if (newly > 0) note_progress();
      check_close_drain();
      return;
    }
    case PduType::kNack:
      ctx_->reliability().on_nack(p, from);
      return;
    case PduType::kData:
    case PduType::kFecParity:
      ctx_->reliability().on_data(std::move(p), from);
      return;
    case PduType::kProbe: {
      Pdu reply;
      reply.type = PduType::kProbeReply;
      reply.aux = p.aux;
      emit(std::move(reply));
      return;
    }
    case PduType::kProbeReply:
      count("probe.reply");
      return;
    case PduType::kAnchor:
      ctx_->reliability().on_anchor(p.seq);
      return;
    case PduType::kConfig:
    case PduType::kConfigAck:
    case PduType::kReconfig:
    case PduType::kReconfigAck:
      // Signaling PDUs belong on the MANTTS out-of-band channel; arriving
      // here means a misdirected packet.
      count("pdu.misdirected_signaling");
      return;
  }
}

// ---- SessionCore callbacks --------------------------------------------------

void TransportSession::deliver(Message&& m) {
  UNITES_PROF_S("transport.deliver", id_);
  // Transport -> application boundary: one user/kernel crossing.
  proto_.host().cpu().run_context_switch(nullptr);
  note_progress();
  stats_.bytes_delivered += m.size();
  count("data.delivered_bytes", static_cast<double>(m.size()));
  trace_event("tko.deliver", static_cast<double>(m.size()));
  if (!cfg_.message_oriented) {
    ++stats_.messages_delivered;
    deliver_up(std::move(m));
    return;
  }
  // Reassemble [u32 length][payload] TSDU records from the (ordered,
  // reliable) segment stream and deliver complete application messages.
  rx_assembly_.concat(std::move(m));
  while (rx_assembly_.size() >= 4) {
    std::uint8_t head[4];
    auto pfx = rx_assembly_.contiguous_prefix(4);
    if (pfx.empty()) {
      const auto v = rx_assembly_.peek(4);
      std::copy(v.begin(), v.end(), head);
      pfx = head;
    }
    const std::uint32_t len = (static_cast<std::uint32_t>(pfx[0]) << 24) |
                              (static_cast<std::uint32_t>(pfx[1]) << 16) |
                              (static_cast<std::uint32_t>(pfx[2]) << 8) | pfx[3];
    if (len > kMaxTsduBytes) {
      // Desynced stream (a corrupted prefix slipped past detection, or a
      // no-checksum config took a wire hit): waiting for `len` bytes would
      // wedge the session forever. Drop the partial assembly and resync at
      // the next delivered record boundary.
      ++stats_.reassembly_desyncs;
      count("tko.reassembly_desync");
      rx_assembly_ = Message(&buffers());
      break;
    }
    if (rx_assembly_.size() < 4 + static_cast<std::size_t>(len)) break;
    rx_assembly_.consume(4);
    Message whole = rx_assembly_;
    rx_assembly_ = whole.split(len);
    ++stats_.messages_delivered;
    deliver_up(std::move(whole));
  }
}

void TransportSession::connection_established() {
  if (state_ == SessionState::kEstablished || state_ == SessionState::kAborted ||
      state_ == SessionState::kClosed) {
    return;
  }
  stats_.established_at = now();
  if (stats_.connect_started > sim::SimTime::zero() || active_) {
    count("connection.setup_ns",
          static_cast<double>((stats_.established_at - stats_.connect_started).ns()));
    trace_ring().span(unites::TraceCategory::kTko, "tko.connection_setup",
                      stats_.connect_started, stats_.established_at - stats_.connect_started,
                      local_.node, id_);
  }
  if (state_ != SessionState::kClosing) {
    // A close() issued during the handshake stays in force: the session
    // drains and FINs, it does not reopen.
    state_ = SessionState::kEstablished;
    notify_state(state_);
  }
  pump();
  check_close_drain();
}

void TransportSession::connection_closed(bool aborted) {
  state_ = aborted ? SessionState::kAborted : SessionState::kClosed;
  pump_timer_.cancel();
  wd_timer_.cancel();
  if (wd_stalled_) {
    wd_stalled_ = false;
    if (!aborted && ctx_->reliability().all_acked()) {
      // The stalled work drained before the close completed: a recovery.
      ++stats_.watchdog_recoveries;
      count(unites::metrics::kWatchdogRecoveryNs,
            static_cast<double>((now() - wd_stall_since_).ns()));
    }
  }
  notify_state(state_);
  release_writable();
  proto_.note_session_closed(id_);
}

// ---- liveness watchdog ------------------------------------------------------

bool TransportSession::watchdog_outstanding() const {
  if (state_ == SessionState::kClosed || state_ == SessionState::kAborted) return false;
  return !tx_queue_.empty() || !ctx_->reliability().all_acked();
}

void TransportSession::arm_watchdog() {
  if (wd_deadline_ <= sim::SimTime::zero() || wd_timer_.pending()) return;
  if (!watchdog_outstanding()) return;
  wd_last_progress_ = now();
  wd_timer_.arm_after(wd_deadline_ / 2);
}

void TransportSession::note_progress() {
  wd_last_progress_ = now();
  if (!wd_stalled_) return;
  wd_stalled_ = false;
  ++stats_.watchdog_recoveries;
  const sim::SimTime stalled_for = now() - wd_stall_since_;
  count(unites::metrics::kWatchdogRecoveryNs, static_cast<double>(stalled_for.ns()));
  trace_ring().span(unites::TraceCategory::kTko, "tko.watchdog_recovery", wd_stall_since_,
                    stalled_for, local_.node, id_);
}

void TransportSession::watchdog_check() {
  UNITES_PROF_S("transport.watchdog", id_);
  if (wd_deadline_ <= sim::SimTime::zero()) return;
  if (!watchdog_outstanding()) {
    // The stalled work drained away (a segue re-emitted it, or the close
    // path reaped it) without passing through an ack: that is progress.
    if (wd_stalled_) note_progress();
    return;  // disarm; the next send() re-arms
  }
  if (now() - wd_last_progress_ >= wd_deadline_) {
    if (!wd_stalled_) {
      wd_stalled_ = true;
      wd_stall_since_ = now();
      ++stats_.watchdog_stalls;
      count(unites::metrics::kWatchdogStall);
      trace_event("tko.watchdog_stall", static_cast<double>((now() - wd_last_progress_).ns()));
    }
    // Local kick first: reset reliability backoff and force retransmission,
    // then re-pump; the observer lets MANTTS escalate to renegotiation.
    count(unites::metrics::kWatchdogProd);
    ctx_->reliability().prod();
    pump();
    if (on_stall_) on_stall_();
  }
  wd_timer_.arm_after(wd_deadline_ / 2);
}

void TransportSession::loss_signal() {
  ctx_->transmission().on_loss();
  count("loss.signal");
  if (on_loss_) on_loss_();
}

void TransportSession::record_trace(bool outbound, const Pdu& p) {
  if (trace_capacity_ == 0) return;
  TraceEntry e{now(), outbound, p.type, p.seq, p.ack, p.payload.size()};
  if (trace_.size() < trace_capacity_) {
    trace_.push_back(e);
  } else {
    // Ring full: overwrite the oldest entry in place.
    trace_[trace_next_] = e;
    trace_next_ = (trace_next_ + 1) % trace_capacity_;
  }
}

std::vector<TransportSession::TraceEntry> TransportSession::trace() const {
  std::vector<TraceEntry> out;
  out.reserve(trace_.size());
  for (std::size_t i = 0; i < trace_.size(); ++i)
    out.push_back(trace_[(trace_next_ + i) % trace_.size()]);
  return out;
}

std::string TransportSession::render_trace() const {
  std::string out;
  char buf[160];
  for (const auto& e : trace()) {
    std::snprintf(buf, sizeof buf, "%12s %s %-9s seq=%u ack=%u len=%zu\n",
                  e.when.to_string().c_str(), e.outbound ? "->" : "<-", to_string(e.type),
                  e.seq, e.ack, e.payload_bytes);
    out += buf;
  }
  return out;
}

// ---- reconfiguration --------------------------------------------------------

void TransportSession::reconfigure(const sa::SessionConfig& next) {
  UNITES_PROF_S("transport.reconfigure", id_);
  const sa::SessionConfig prev = cfg_;
  cfg_ = next;
  using Slot = sa::MechanismSlot;
  const bool conn_changed = prev.connection != next.connection;
  const bool tx_changed = prev.transmission != next.transmission ||
                          prev.window_pdus != next.window_pdus ||
                          prev.inter_pdu_gap != next.inter_pdu_gap;
  const bool rel_changed = prev.recovery != next.recovery ||
                           (next.recovery == sa::RecoveryScheme::kForwardErrorCorrection &&
                            prev.fec_group_size != next.fec_group_size);
  const bool det_changed = prev.detection != next.detection;
  const bool ack_changed = prev.ack != next.ack || prev.ack_every_n != next.ack_every_n ||
                           prev.delayed_ack != next.delayed_ack;
  const bool seq_changed = prev.ordered_delivery != next.ordered_delivery;

  auto swap_slot = [&](Slot slot) {
    ctx_->segue(sa::Synthesizer::make_mechanism(slot, cfg_));
  };
  // Order matters: sequencing and ack strategy before reliability, so the
  // rewire after the reliability segue binds the new siblings.
  if (seq_changed) swap_slot(Slot::kSequencing);
  if (ack_changed) swap_slot(Slot::kAckStrategy);
  if (rel_changed) swap_slot(Slot::kReliability);
  if (tx_changed) swap_slot(Slot::kTransmission);
  if (det_changed) swap_slot(Slot::kErrorDetection);
  if (conn_changed) swap_slot(Slot::kConnection);
  count("session.reconfigured");
  trace_event("tko.reconfigure", static_cast<double>(ctx_->reconfigurations()));
  pump();
}

void TransportSession::on_path_change() {
  ++stats_.path_changes;
  count("session.path_change");
  trace_event("tko.path_change", static_cast<double>(stats_.path_changes));
  ctx_->reliability().on_path_change();
  // Queued data should try the new path now, not at the next (possibly
  // reseeded, conservative) timer expiry.
  pump();
}

void TransportSession::forget_receiver(net::NodeId receiver) {
  ctx_->reliability().forget_receiver(receiver);
  check_close_drain();  // the leaver may have been the last unacked holdout
  pump();
}

void TransportSession::announce_anchor() { ctx_->reliability().announce_anchor(); }

// ===========================================================================
// AdaptiveTransport
// ===========================================================================

AdaptiveTransport::AdaptiveTransport(os::Host& host, net::PortId port)
    : Protocol("adaptive-transport"), host_(host), port_(port) {
  host_.bind_port(port_, [this](net::Packet&& p) { demux(std::move(p)); });
  synth_.set_trace_identity(host_.network().trace(), [this] { return host_.now(); },
                            host_.node_id());
}

AdaptiveTransport::~AdaptiveTransport() { host_.unbind_port(port_); }

TransportSession& AdaptiveTransport::open(std::vector<net::Address> remotes,
                                          const sa::SessionConfig& cfg, bool prevalidated) {
  auto ctx = synth_.synthesize(cfg, prevalidated);
  // Charge the configuration work to the host CPU (Fig. 5 economics).
  host_.cpu().run(synth_.last_cost_instr(), nullptr);

  const std::uint32_t id = (host_.node_id() << 20) | (next_session_++ & 0xFFFFF);
  const net::Address local{host_.node_id(), port_};
  auto session = std::make_unique<TransportSession>(*this, id, local, std::move(remotes), cfg,
                                                    std::move(ctx), /*active=*/true);
  return sessions_.insert(id, std::move(session));
}

TransportSession& AdaptiveTransport::create_passive(std::uint32_t id, net::Address remote,
                                                    const sa::SessionConfig& cfg) {
  auto ctx = synth_.synthesize(cfg);
  host_.cpu().run(synth_.last_cost_instr(), nullptr);
  const net::Address local{host_.node_id(), port_};
  auto session = std::make_unique<TransportSession>(*this, id, local,
                                                    std::vector<net::Address>{remote}, cfg,
                                                    std::move(ctx), /*active=*/false);
  TransportSession& s = sessions_.insert(id, std::move(session));
  s.context().connection().open_passive();
  if (acceptor_) acceptor_(s);
  return s;
}

void AdaptiveTransport::demux(net::Packet&& p) {
  // Quick header peek for the session id (full decode happens inside the
  // session after the CPU charge).
  if (p.payload.size() < kPduHeaderBytes) {
    ++orphans_;
    return;
  }
  std::uint8_t sid_scratch[8];
  auto hd = p.payload.contiguous_prefix(8);
  if (hd.empty()) {
    const auto v = p.payload.peek(8);
    std::copy(v.begin(), v.end(), sid_scratch);
    hd = sid_scratch;
  }
  const std::uint32_t sid = (static_cast<std::uint32_t>(hd[4]) << 24) |
                            (static_cast<std::uint32_t>(hd[5]) << 16) |
                            (static_cast<std::uint32_t>(hd[6]) << 8) |
                            static_cast<std::uint32_t>(hd[7]);
  if (TransportSession* s = sessions_.find(sid)) {
    s->handle_packet(std::move(p));
    return;
  }

  // Unknown session: a SYN (explicit open) or a data PDU with a
  // piggybacked SCS (implicit open) creates a passive session. Decode a
  // shallow clone so the packet stays intact for handle_packet below.
  Message wire = p.payload.clone();
  wire.set_pool(&host_.buffers());
  auto result = decode_pdu(std::move(wire));
  if (result.status != DecodeStatus::kOk) {
    ++orphans_;
    return;
  }
  Pdu& pdu = result.pdu;
  std::optional<sa::SessionConfig> cfg;
  if (pdu.type == PduType::kSyn) {
    cfg = sa::SessionConfig::deserialize(pdu.payload.peek(pdu.payload.size()));
  } else if ((pdu.type == PduType::kData || pdu.type == PduType::kAnchor) &&
             pdu.has_flag(pdu_flags::kPiggybackConfig) &&
             pdu.payload.size() >= sa::SessionConfig::kWireBytes) {
    cfg = sa::SessionConfig::deserialize(pdu.payload.peek(sa::SessionConfig::kWireBytes));
  }
  if (!cfg.has_value()) {
    ++orphans_;
    return;
  }
  if (admission_) *cfg = admission_(*cfg);  // in-handshake negotiation
  TransportSession& s = create_passive(sid, p.src, *cfg);
  s.handle_packet(std::move(p));
}

TransportSession* AdaptiveTransport::find_session(std::uint32_t id) {
  return sessions_.find(id);
}

void AdaptiveTransport::note_session_closed(std::uint32_t id) {
  if (reap_linger_ <= sim::SimTime::zero()) return;
  // Fire-and-forget wheel event: never cancelled, so no handle. The
  // callback re-checks liveness and terminal state — a session id reused
  // before the linger elapses cannot exist (ids are never recycled while
  // live), and a session resurrected by a late handshake stays.
  host_.timers().scheduler().post_after(reap_linger_, [this, id] {
    TransportSession* s = sessions_.find(id);
    if (s == nullptr) return;
    const SessionState st = s->state();
    if (st != SessionState::kClosed && st != SessionState::kAborted) return;
    if (on_reap_) on_reap_(id);
    sessions_.erase(id);
    ++reaped_;
  });
}

}  // namespace adaptive::tko
