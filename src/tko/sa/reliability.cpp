#include "tko/sa/reliability.hpp"

#include "tko/sa/fec.hpp"
#include "tko/sa/gbn.hpp"
#include "tko/sa/selective_repeat.hpp"
#include "tko/sa/seqnum.hpp"
#include "unites/profiler.hpp"
#include "unites/spans.hpp"

#include <algorithm>

namespace adaptive::tko::sa {

void ReliabilityBase::wire(AckStrategy* ack, Sequencing* sequencing) {
  ack_ = ack;
  sequencing_ = sequencing;
  if (ack_ != nullptr) {
    ack_->set_emitter([this] { emit_ack(); });
  }
}

void ReliabilityBase::emit_ack() {
  Pdu ack;
  ack.type = PduType::kAck;
  ack.ack = st_.rcv_cum;
  core_->emit(std::move(ack));
}

bool ReliabilityBase::receiver_seen(std::uint32_t seq) const {
  return seq_leq(seq, st_.rcv_cum) || st_.rcv_out_of_order.contains(seq);
}

bool ReliabilityBase::receiver_mark(std::uint32_t seq) {
  if (seq == st_.rcv_cum + 1) {
    ++st_.rcv_cum;
    // Pull any buffered successors into the cumulative range.
    auto it = st_.rcv_out_of_order.find(st_.rcv_cum + 1);
    while (it != st_.rcv_out_of_order.end()) {
      st_.rcv_out_of_order.erase(it);
      ++st_.rcv_cum;
      it = st_.rcv_out_of_order.find(st_.rcv_cum + 1);
    }
    return true;
  }
  st_.rcv_out_of_order.insert(seq);
  return false;
}

void ReliabilityBase::trace_enqueue(const Message& payload, std::uint32_t seq) const {
  const std::uint64_t lc = payload.lifecycle();
  if (lc == 0) return;
  core_->trace_event(unites::lifecycle::kEnqueue,
                     unites::pack_unit_seq(static_cast<std::uint32_t>(lc - 1), seq));
}

void ReliabilityBase::offer_up(std::uint32_t seq, Message&& payload) {
  if (sequencing_ != nullptr) {
    sequencing_->offer(seq, std::move(payload));
  } else {
    core_->deliver(std::move(payload));
  }
}

std::uint32_t ReliabilityBase::effective_cum_ack() const {
  const std::size_t receivers = core_->receiver_count();
  if (receivers <= 1) {
    auto it = st_.per_receiver_cum.begin();
    return it == st_.per_receiver_cum.end() ? st_.send_base - 1 : it->second;
  }
  if (st_.per_receiver_cum.size() < receivers) return st_.send_base - 1;
  auto it = st_.per_receiver_cum.begin();
  std::uint32_t m = it->second;
  for (++it; it != st_.per_receiver_cum.end(); ++it) m = seq_min(m, it->second);
  return m;
}

std::uint32_t ReliabilityBase::apply_cum_ack(std::uint32_t cum, net::NodeId from) {
  if (!plausible_ack(cum)) {
    ++stats_.wild_acks_rejected;
    core_->count("reliability.wild_ack");
    return 0;
  }
  if (!core_->is_receiver(from)) {
    ++stats_.stale_acks_ignored;
    core_->count("reliability.stale_ack");
    return 0;
  }
  // First ack from a receiver seeds its entry directly: a default 0 would
  // compare serially *ahead* of sequences just below the wrap point.
  auto [rec, fresh] = st_.per_receiver_cum.try_emplace(from, cum);
  if (!fresh) rec->second = seq_max(rec->second, cum);
  const std::uint32_t newly = advance_send_base(/*take_rtt_samples=*/true);
  if (newly > 0) rtt_.clear_backoff();
  return newly;
}

std::uint32_t ReliabilityBase::advance_send_base(bool take_rtt_samples) {
  const std::uint32_t eff = effective_cum_ack();
  std::uint32_t newly = 0;
  while (seq_leq(st_.send_base, eff)) {
    auto it = st_.unacked.find(st_.send_base);
    if (it != st_.unacked.end()) {
      st_.unacked_bytes -= it->second.size();
      st_.unacked.erase(it);
      ++newly;
    }
    // RTT sample (Karn: send_time_ entries are erased on retransmission).
    auto ts = send_time_.find(st_.send_base);
    if (ts != send_time_.end()) {
      if (take_rtt_samples) rtt_.sample(core_->now() - ts->second);
      send_time_.erase(ts);
    }
    ++st_.send_base;
  }
  return newly;
}

void ReliabilityBase::on_path_change() {
  send_time_.clear();
  rtt_.reseed_path();
  ++stats_.path_reseeds;
  if (core_ != nullptr) core_->count("reliability.path_reseed");
}

void ReliabilityBase::forget_receiver(net::NodeId receiver) {
  // Erase even when absent changes nothing; the advance below still
  // matters — a leaver that never acked pinned effective_cum_ack through
  // the receiver-count check, not through an entry.
  st_.per_receiver_cum.erase(receiver);
  ++stats_.receivers_forgotten;
  const std::uint32_t newly = advance_send_base(/*take_rtt_samples=*/false);
  if (core_ != nullptr) {
    core_->count("reliability.receiver_forgotten");
    if (newly > 0) {
      rtt_.clear_backoff();
      core_->tx_ready();
    }
  }
}

void ReliabilityBase::announce_anchor() {
  if (core_ == nullptr) return;
  Pdu p;
  p.type = PduType::kAnchor;
  p.seq = anchor_seq();
  ++stats_.anchors_sent;
  core_->count("reliability.anchor_sent");
  core_->emit(std::move(p));
}

void ReliabilityBase::on_anchor(std::uint32_t anchor) {
  if (!plausible_data_seq(anchor)) {
    ++stats_.wild_seqs_rejected;
    if (core_ != nullptr) core_->count("reliability.wild_seq");
    return;
  }
  st_.rcv_primed = true;
  if (seq_leq(anchor, st_.rcv_cum + 1)) return;  // already at or past the anchor
  st_.rcv_cum = anchor - 1;
  std::erase_if(st_.rcv_out_of_order,
                [cum = st_.rcv_cum](std::uint32_t s) { return seq_leq(s, cum); });
  // Pull buffered successors into the cumulative range (a selective-repeat
  // joiner may have buffered post-anchor data before the anchor arrived).
  auto it = st_.rcv_out_of_order.find(st_.rcv_cum + 1);
  while (it != st_.rcv_out_of_order.end()) {
    st_.rcv_out_of_order.erase(it);
    ++st_.rcv_cum;
    it = st_.rcv_out_of_order.find(st_.rcv_cum + 1);
  }
  if (sequencing_ != nullptr) sequencing_->gap_skip(anchor);
  ++stats_.anchors_applied;
  if (core_ != nullptr) core_->count("reliability.anchored");
  // Ack promptly so the sender unpins from the joiner's cum=0 entry.
  if (ack_ != nullptr) ack_->on_data_received(/*in_order=*/false);
}

// ---------------------------------------------------------------------------
// NoneReliability
// ---------------------------------------------------------------------------

void NoneReliability::send_data(Message&& payload) {
  UNITES_PROF_S("reliability.none.send_data", core_->session_id());
  Pdu p;
  p.type = PduType::kData;
  p.seq = st_.next_seq++;
  trace_enqueue(payload, p.seq);
  p.payload = std::move(payload);
  send_time_[p.seq] = core_->now();
  // Bound the sample map: unacknowledged probes age out.
  if (send_time_.size() > 256) send_time_.erase(send_time_.begin());
  ++stats_.data_sent;
  core_->emit(std::move(p));
}

std::uint32_t NoneReliability::on_ack(const Pdu& p, net::NodeId from) {
  // Acks (if the ack scheme sends any) feed RTT monitoring only.
  auto ts = send_time_.find(p.ack);
  if (ts != send_time_.end()) {
    rtt_.sample(core_->now() - ts->second);
    send_time_.erase(ts);
  }
  auto& rec = st_.per_receiver_cum[from];
  rec = seq_max(rec, p.ack);
  return 0;
}

void NoneReliability::on_data(Pdu&& p, net::NodeId) {
  if (p.type != PduType::kData) return;
  UNITES_PROF_S("reliability.none.on_data", core_->session_id());
  if (!plausible_data_seq(p.seq)) {
    ++stats_.wild_seqs_rejected;
    core_->count("reliability.wild_seq");
    return;
  }
  if (filter_duplicates_ && receiver_seen(p.seq)) {
    ++stats_.duplicates_received;
    return;
  }
  const bool in_order = receiver_mark(p.seq);
  // Without retransmission the out-of-order set must not grow without
  // bound: drop tracking below a sliding horizon.
  while (!st_.rcv_out_of_order.empty() &&
         *st_.rcv_out_of_order.begin() + 1024 < *st_.rcv_out_of_order.rbegin()) {
    st_.rcv_out_of_order.erase(st_.rcv_out_of_order.begin());
  }
  // With no recovery a gap will never fill; once it is clearly permanent,
  // jump the cumulative point forward so ordered delivery cannot deadlock.
  if (!in_order && seq_lt(st_.rcv_cum + 64, p.seq)) {
    st_.rcv_cum = p.seq;
    std::erase_if(st_.rcv_out_of_order,
                  [seq = p.seq](std::uint32_t s) { return seq_leq(s, seq); });
    if (sequencing_ != nullptr) sequencing_->gap_skip(p.seq);
  }
  offer_up(p.seq, std::move(p.payload));
  if (ack_ != nullptr) ack_->on_data_received(in_order);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<ReliabilityMgmt> make_reliability(const SessionConfig& cfg) {
  switch (cfg.recovery) {
    case RecoveryScheme::kNone:
      return std::make_unique<NoneReliability>(cfg.rto_initial, cfg.filter_duplicates);
    case RecoveryScheme::kGoBackN:
      return std::make_unique<GoBackN>(cfg.rto_initial, cfg.filter_duplicates);
    case RecoveryScheme::kSelectiveRepeat:
      return std::make_unique<SelectiveRepeat>(cfg.rto_initial, cfg.filter_duplicates);
    case RecoveryScheme::kForwardErrorCorrection:
      return std::make_unique<FecReliability>(cfg.rto_initial, cfg.filter_duplicates,
                                              cfg.fec_group_size);
  }
  return std::make_unique<NoneReliability>(cfg.rto_initial, cfg.filter_duplicates);
}

}  // namespace adaptive::tko::sa
