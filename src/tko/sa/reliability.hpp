// Reliability management: shared base and the no-recovery scheme.
//
// The reliability composite performs the paper's three sub-activities:
// error *detection* hand-off (corrupted PDUs never reach here — the
// session drops them after ErrorDetection fails), error *reporting*
// (ACK/NACK emission, timed by the AckStrategy slot), and error *recovery*
// (retransmission or reconstruction — the concrete subclasses).
//
// All schemes share one sequence-number space and one receiver-side
// tracking representation (ReliabilityState), which is what makes the
// paper's on-the-fly segue between schemes possible without losing data.
#pragma once

#include "tko/event.hpp"
#include "tko/sa/mechanism.hpp"
#include "tko/sa/rtt_estimator.hpp"
#include "tko/sa/seqnum.hpp"

#include <memory>

namespace adaptive::tko::sa {

class ReliabilityBase : public ReliabilityMgmt {
public:
  void wire(AckStrategy* ack, Sequencing* sequencing) override;

  [[nodiscard]] ReliabilityState snapshot() override { return std::move(st_); }
  void restore(ReliabilityState&& s) override { st_ = std::move(s); }

  [[nodiscard]] bool all_acked() const override { return st_.unacked.empty(); }
  [[nodiscard]] std::uint32_t in_flight() const override {
    return static_cast<std::uint32_t>(st_.unacked.size());
  }
  [[nodiscard]] std::size_t buffered_bytes() const override {
    // Maintained counter (O(1)): this gauge runs on the per-PDU
    // memory-accounting path via TransportSession::live_bytes().
    return st_.unacked_bytes;
  }

  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }

  /// Karn for path switches: drop every pending RTT timestamp (they
  /// describe the old path) and reseed the estimator; stragglers still in
  /// flight on the dead path then cannot pollute the new path's RTO.
  void on_path_change() override;

  /// Drop the departed receiver's cumulative-ack entry and advance the
  /// send window as far as the survivors allow.
  void forget_receiver(net::NodeId receiver) override;

  /// Broadcast the scheme's lowest retrievable sequence (kAnchor PDU).
  void announce_anchor() override;

  /// Anchor the receive side for a mid-stream join (see ReliabilityMgmt).
  void on_anchor(std::uint32_t anchor) override;

protected:
  explicit ReliabilityBase(sim::SimTime initial_rto, bool filter_duplicates)
      : rtt_(initial_rto), filter_duplicates_(filter_duplicates) {}

  /// Emit the current cumulative ack (AckStrategy's emitter action).
  virtual void emit_ack();

  /// Has the receiver already accepted `seq`?
  [[nodiscard]] bool receiver_seen(std::uint32_t seq) const;

  /// Record acceptance of `seq`; advances the cumulative point through any
  /// buffered out-of-order sequences. Returns true if `seq` was in order.
  bool receiver_mark(std::uint32_t seq);

  /// Hand an accepted payload to sequencing (or straight up if unwired).
  void offer_up(std::uint32_t seq, Message&& payload);

  /// Whitebox span milestone: a tracked payload entered the reliability
  /// send path with sequence `seq` (msg.enqueue). No-op when untracked.
  void trace_enqueue(const Message& payload, std::uint32_t seq) const;

  /// Effective cumulative ack across all receivers (multicast: the
  /// minimum; a receiver that has never acked pins it at send_base - 1).
  [[nodiscard]] std::uint32_t effective_cum_ack() const;

  /// Record `cum` from receiver `from`; erase newly-acked PDUs from the
  /// store and return how many sequences were newly acknowledged.
  std::uint32_t apply_cum_ack(std::uint32_t cum, net::NodeId from);

  /// Advance send_base to the effective cumulative ack, erasing acked
  /// PDUs. RTT sampling is suppressed when the advance is driven by
  /// receiver departure rather than a fresh ack (the elapsed time then
  /// measures how long the leaver pinned the window, not the path).
  std::uint32_t advance_send_base(bool take_rtt_samples);

  /// Lowest sequence the scheme can still produce for a late joiner:
  /// the retransmission base for retransmitting schemes, next_seq for
  /// schemes that retain nothing (None, FEC — the joiner starts at the
  /// next fresh emission).
  [[nodiscard]] virtual std::uint32_t anchor_seq() const { return st_.next_seq; }

  /// A cumulative ack can never exceed the highest sequence assigned; a
  /// "future" ack is wire corruption (possible under no-checksum configs)
  /// and acting on it would reap unacked data the receiver never got —
  /// silent loss. Callers must drop implausible acks.
  [[nodiscard]] bool plausible_ack(std::uint32_t cum) const {
    return !seq_gt(cum, st_.next_seq - 1);
  }

  /// Widest receive-side lead we admit before declaring a data sequence
  /// garbage: far beyond any window this transport configures, but small
  /// enough that hostile sequences cannot bloat rcv_out_of_order or fake
  /// permanent gaps.
  static constexpr std::uint32_t kMaxSeqAhead = 1 << 16;
  [[nodiscard]] bool plausible_data_seq(std::uint32_t seq) const {
    return !seq_gt(seq, st_.rcv_cum + kMaxSeqAhead);
  }

  AckStrategy* ack_ = nullptr;
  Sequencing* sequencing_ = nullptr;
  ReliabilityState st_;
  RttEstimator rtt_;
  bool filter_duplicates_;
  std::map<std::uint32_t, sim::SimTime> send_time_;  ///< Karn-valid RTT samples
};

/// No recovery: sequence numbers are still assigned (for dedup/ordering
/// and monitoring), nothing is retained, nothing is retransmitted — the
/// lightweight configuration for loss-tolerant isochronous traffic.
class NoneReliability final : public ReliabilityBase {
public:
  NoneReliability(sim::SimTime initial_rto, bool filter_duplicates)
      : ReliabilityBase(initial_rto, filter_duplicates) {}

  [[nodiscard]] std::string_view name() const override { return "none"; }

  void send_data(Message&& payload) override;
  std::uint32_t on_ack(const Pdu& p, net::NodeId from) override;
  void on_nack(const Pdu&, net::NodeId) override {}
  void on_data(Pdu&& p, net::NodeId from) override;

  [[nodiscard]] bool all_acked() const override { return true; }
  [[nodiscard]] std::uint32_t in_flight() const override { return 0; }
};

/// Factory over every concrete scheme (declared in their own headers).
[[nodiscard]] std::unique_ptr<ReliabilityMgmt> make_reliability(const SessionConfig& cfg);

}  // namespace adaptive::tko::sa
