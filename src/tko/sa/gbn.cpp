#include "tko/sa/gbn.hpp"

#include "tko/sa/seqnum.hpp"
#include "unites/metric.hpp"
#include "unites/profiler.hpp"

#include <algorithm>
#include <vector>

namespace adaptive::tko::sa {

void GoBackN::on_attach() {
  retx_timer_ = std::make_unique<Event>(core_->timers(), [this] { on_timeout(); });
}

void GoBackN::arm_timer() {
  if (st_.unacked.empty()) {
    retx_timer_->cancel();
  } else if (!retx_timer_->pending()) {
    retx_timer_->schedule(rtt_.rto());
  }
}

void GoBackN::emit_data(std::uint32_t seq, Message payload, bool retransmission) {
  Pdu p;
  p.type = PduType::kData;
  p.seq = seq;
  p.payload = std::move(payload);
  if (retransmission) {
    ++stats_.retransmissions;
    send_time_.erase(seq);  // Karn: never sample a retransmitted PDU
    core_->trace_event("tko.retransmit", seq, "go-back-n");
  } else {
    ++stats_.data_sent;
    send_time_[seq] = core_->now();
  }
  core_->emit(std::move(p));
}

void GoBackN::send_data(Message&& payload) {
  UNITES_PROF_S("reliability.gbn.send_data", core_->session_id());
  const std::uint32_t seq = st_.next_seq++;
  trace_enqueue(payload, seq);
  st_.unacked.emplace(seq, payload.clone());  // lazy copy: shares buffers
  st_.unacked_bytes += payload.size();
  emit_data(seq, std::move(payload), /*retransmission=*/false);
  arm_timer();
}

std::uint32_t GoBackN::on_ack(const Pdu& p, net::NodeId from) {
  UNITES_PROF_S("reliability.gbn.on_ack", core_->session_id());
  const std::uint32_t newly = apply_cum_ack(p.ack, from);
  if (newly > 0) {
    retx_timer_->cancel();
    arm_timer();
  }
  return newly;
}

void GoBackN::on_nack(const Pdu& p, net::NodeId) {
  core_->loss_signal();
  go_back(p.aux);
}

void GoBackN::on_timeout() {
  if (st_.unacked.empty()) return;
  UNITES_PROF_S("reliability.gbn.on_timeout", core_->session_id());
  ++stats_.timeouts;
  rtt_.backoff();
  core_->loss_signal();
  core_->count("reliability.timeout");
  core_->count(unites::metrics::kRtoNs, static_cast<double>(rtt_.rto().ns()));
  core_->trace_event("tko.rto", static_cast<double>(rtt_.rto().ns()), "go-back-n");
  go_back(st_.send_base);
  retx_timer_->schedule(rtt_.rto());
}

void GoBackN::prod() {
  // Watchdog kick: a stalled session means the RTO backed off past the
  // stall deadline (or the timer state was lost). Reset the backoff and
  // retransmit the whole window now instead of waiting out the backoff.
  if (st_.unacked.empty() || retx_timer_ == nullptr) return;
  rtt_.clear_backoff();
  core_->count("reliability.prod");
  // A multicast stall can also mean a mid-stream joiner is pinning the
  // group with cum=0 acks because the original anchor was lost; re-anchor
  // before retransmitting so the joiner can accept the resent window.
  if (core_->receiver_count() > 1) announce_anchor();
  go_back(st_.send_base);
  retx_timer_->cancel();
  retx_timer_->schedule(rtt_.rto());
}

void GoBackN::forget_receiver(net::NodeId receiver) {
  ReliabilityBase::forget_receiver(receiver);
  if (retx_timer_ != nullptr) {
    retx_timer_->cancel();
    arm_timer();  // survivors may have fully acked: stop the timer
  }
}

void GoBackN::go_back(std::uint32_t from_seq) {
  // Retransmit every retained PDU at or beyond `from_seq`, in serial
  // order. The retention map is keyed by raw sequence value, so around a
  // wrap it interleaves old (huge) and new (tiny) sequences; collect and
  // sort by serial comparison instead of trusting map order.
  std::vector<std::uint32_t> pending;
  pending.reserve(st_.unacked.size());
  for (const auto& [seq, _] : st_.unacked) {
    if (seq_geq(seq, from_seq)) pending.push_back(seq);
  }
  std::sort(pending.begin(), pending.end(), SeqLess{});
  for (const std::uint32_t seq : pending) {
    emit_data(seq, st_.unacked.at(seq).clone(), /*retransmission=*/true);
  }
}

void GoBackN::on_data(Pdu&& p, net::NodeId) {
  if (p.type != PduType::kData) return;  // go-back-n ignores FEC parity
  UNITES_PROF_S("reliability.gbn.on_data", core_->session_id());
  if (seq_leq(p.seq, st_.rcv_cum)) {
    ++stats_.duplicates_received;
    // Duplicate: re-ack so a lost ACK cannot stall the sender.
    if (ack_ != nullptr) ack_->on_data_received(/*in_order=*/false);
    return;
  }
  if (p.seq != st_.rcv_cum + 1) {
    // Classic go-back-n: discard out-of-order data, re-ack the cumulative
    // point (serves as an implicit NACK via duplicate acks).
    core_->count("reliability.discard_out_of_order");
    if (ack_ != nullptr) ack_->on_data_received(/*in_order=*/false);
    return;
  }
  receiver_mark(p.seq);
  offer_up(p.seq, std::move(p.payload));
  if (ack_ != nullptr) ack_->on_data_received(/*in_order=*/true);
}

void GoBackN::restore(ReliabilityState&& s) {
  ReliabilityBase::restore(std::move(s));
  // Discard any out-of-order receiver state a selective-repeat predecessor
  // accumulated? No — those PDUs were already delivered to sequencing.
  // Keep the set so duplicates remain detectable.
  arm_timer();
}

}  // namespace adaptive::tko::sa
