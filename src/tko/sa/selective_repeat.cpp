#include "tko/sa/selective_repeat.hpp"

#include "tko/sa/seqnum.hpp"
#include "unites/metric.hpp"
#include "unites/profiler.hpp"

#include <algorithm>

namespace adaptive::tko::sa {

void SelectiveRepeat::on_attach() {
  retx_timer_ = std::make_unique<Event>(core_->timers(), [this] { on_timeout(); });
}

void SelectiveRepeat::arm_timer() {
  retx_timer_->cancel();
  if (deadline_.empty()) return;
  sim::SimTime earliest = sim::SimTime::infinity();
  for (const auto& [_, t] : deadline_) earliest = std::min(earliest, t);
  const sim::SimTime now = core_->now();
  retx_timer_->schedule(earliest > now ? earliest - now : sim::SimTime::zero());
}

void SelectiveRepeat::send_data(Message&& payload) {
  UNITES_PROF_S("reliability.sr.send_data", core_->session_id());
  const std::uint32_t seq = st_.next_seq++;
  trace_enqueue(payload, seq);
  st_.unacked.emplace(seq, payload.clone());
  st_.unacked_bytes += payload.size();
  deadline_[seq] = core_->now() + rtt_.rto();
  send_time_[seq] = core_->now();
  ++stats_.data_sent;

  Pdu p;
  p.type = PduType::kData;
  p.seq = seq;
  p.payload = std::move(payload);
  core_->emit(std::move(p));
  arm_timer();
}

void SelectiveRepeat::retransmit(std::uint32_t seq) {
  auto it = st_.unacked.find(seq);
  if (it == st_.unacked.end()) return;
  ++stats_.retransmissions;
  send_time_.erase(seq);  // Karn
  deadline_[seq] = core_->now() + rtt_.rto();
  core_->trace_event("tko.retransmit", seq, "selective-repeat");

  Pdu p;
  p.type = PduType::kData;
  p.seq = seq;
  p.payload = it->second.clone();
  core_->emit(std::move(p));
}

bool SelectiveRepeat::fully_acked(std::uint32_t seq) const {
  const std::size_t receivers = std::max<std::size_t>(1, core_->receiver_count());
  std::size_t acked = 0;
  for (const auto& [node, cum] : st_.per_receiver_cum) {
    if (seq_leq(seq, cum)) {
      ++acked;
      continue;
    }
    auto sit = sacked_.find(node);
    if (sit != sacked_.end() && sit->second.contains(seq)) ++acked;
  }
  return acked >= receivers;
}

void SelectiveRepeat::reap_acked() {
  for (auto it = st_.unacked.begin(); it != st_.unacked.end();) {
    if (fully_acked(it->first)) {
      deadline_.erase(it->first);
      auto ts = send_time_.find(it->first);
      if (ts != send_time_.end()) {
        rtt_.sample(core_->now() - ts->second);
        send_time_.erase(ts);
      }
      st_.unacked_bytes -= it->second.size();
      it = st_.unacked.erase(it);
    } else {
      ++it;
    }
  }
  // Advance send_base over fully-acked prefix.
  while (seq_lt(st_.send_base, st_.next_seq) && !st_.unacked.contains(st_.send_base) &&
         fully_acked(st_.send_base)) {
    ++st_.send_base;
  }
}

std::uint32_t SelectiveRepeat::on_ack(const Pdu& p, net::NodeId from) {
  UNITES_PROF_S("reliability.sr.on_ack", core_->session_id());
  if (!plausible_ack(p.ack)) {
    // A corrupted ack serially ahead of anything sent would reap unacked
    // PDUs the receiver never got — silent loss. Drop it.
    ++stats_.wild_acks_rejected;
    core_->count("reliability.wild_ack");
    return 0;
  }
  if (!core_->is_receiver(from)) {
    // Same guard as ReliabilityBase::apply_cum_ack: a departed member's
    // in-flight ack must not resurrect its window entry.
    ++stats_.stale_acks_ignored;
    core_->count("reliability.stale_ack");
    return 0;
  }
  const std::size_t before = st_.unacked.size();
  auto& cum = st_.per_receiver_cum[from];
  cum = seq_max(cum, p.ack);
  // Decode the selective bitmap: bit i set => (ack + 1 + i) received.
  auto& sacks = sacked_[from];
  for (std::uint32_t i = 0; i < 32; ++i) {
    if ((p.aux >> i) & 1u) sacks.insert(p.ack + 1 + i);
  }
  // Trim per-receiver sack state below the cumulative point. erase_if
  // rather than a range erase: raw set order breaks across a wrap.
  std::erase_if(sacks, [cum](std::uint32_t s) { return seq_leq(s, cum); });

  reap_acked();
  const std::size_t after = st_.unacked.size();
  const auto newly = static_cast<std::uint32_t>(before - after);
  if (newly > 0) {
    rtt_.clear_backoff();
    arm_timer();
  }
  return newly;
}

void SelectiveRepeat::on_nack(const Pdu& p, net::NodeId) {
  core_->loss_signal();
  retransmit(p.aux);
  arm_timer();
}

void SelectiveRepeat::on_timeout() {
  UNITES_PROF_S("reliability.sr.on_timeout", core_->session_id());
  const sim::SimTime now = core_->now();
  bool any = false;
  for (auto& [seq, t] : deadline_) {
    if (t <= now) {
      any = true;
      break;
    }
  }
  if (any) {
    ++stats_.timeouts;
    rtt_.backoff();
    core_->loss_signal();
    core_->count("reliability.timeout");
    core_->count(unites::metrics::kRtoNs, static_cast<double>(rtt_.rto().ns()));
    core_->trace_event("tko.rto", static_cast<double>(rtt_.rto().ns()), "selective-repeat");
    // Retransmit only expired PDUs (selective).
    std::vector<std::uint32_t> expired;
    for (const auto& [seq, t] : deadline_) {
      if (t <= now) expired.push_back(seq);
    }
    for (const std::uint32_t seq : expired) retransmit(seq);
  }
  arm_timer();
}

void SelectiveRepeat::forget_receiver(net::NodeId receiver) {
  st_.per_receiver_cum.erase(receiver);
  sacked_.erase(receiver);
  // fully_acked counts against the post-leave receiver_count, so the
  // departed member no longer holds any sequence hostage.
  const std::size_t before = st_.unacked.size();
  reap_acked();
  core_->count("reliability.receiver_forgotten");
  if (st_.unacked.size() < before) {
    rtt_.clear_backoff();
    arm_timer();
    core_->tx_ready();
  }
}

void SelectiveRepeat::prod() {
  // Watchdog kick: clear accumulated backoff and resend everything still
  // outstanding (in serial order); retransmit() refreshes each deadline.
  if (st_.unacked.empty() || retx_timer_ == nullptr) return;
  rtt_.clear_backoff();
  core_->count("reliability.prod");
  // Re-anchor a possibly-wedged mid-stream joiner (see GoBackN::prod).
  if (core_->receiver_count() > 1) announce_anchor();
  std::vector<std::uint32_t> pending;
  pending.reserve(st_.unacked.size());
  for (const auto& [seq, _] : st_.unacked) pending.push_back(seq);
  std::sort(pending.begin(), pending.end(), SeqLess{});
  for (const std::uint32_t seq : pending) retransmit(seq);
  arm_timer();
}

void SelectiveRepeat::on_data(Pdu&& p, net::NodeId) {
  if (p.type != PduType::kData) return;
  UNITES_PROF_S("reliability.sr.on_data", core_->session_id());
  if (!plausible_data_seq(p.seq)) {
    // The NACK scan below is already gap-bounded, but receiver_mark would
    // still buffer a wild far-ahead sequence in rcv_out_of_order forever
    // (nothing ever fills the fake gap). Reject it outright.
    ++stats_.wild_seqs_rejected;
    core_->count("reliability.wild_seq");
    return;
  }
  if (receiver_seen(p.seq)) {
    ++stats_.duplicates_received;
    if (ack_ != nullptr) ack_->on_data_received(/*in_order=*/false);
    return;
  }
  // NACK unseen gaps below this arrival; refresh a NACK after several
  // more arrivals if the hole persists (the original may have been lost).
  // Bound the scan: a (corrupt or hostile) sequence far beyond any sane
  // window must not trigger a 2^31-iteration NACK storm.
  if (seq_gt(p.seq, st_.rcv_cum + 1) && p.seq - st_.rcv_cum <= kMaxNackGap) {
    for (std::uint32_t miss = st_.rcv_cum + 1; seq_lt(miss, p.seq); ++miss) {
      if (receiver_seen(miss)) continue;
      auto [it, fresh] = nacked_.try_emplace(miss, kNackRefreshArrivals);
      if (!fresh) {
        if (--it->second > 0) continue;
        it->second = kNackRefreshArrivals;
      }
      ++stats_.nacks_sent;
      Pdu nack;
      nack.type = PduType::kNack;
      nack.ack = st_.rcv_cum;
      nack.aux = miss;
      core_->emit(std::move(nack));
    }
  }
  const bool in_order = receiver_mark(p.seq);
  std::erase_if(nacked_, [cum = st_.rcv_cum](const auto& kv) { return seq_leq(kv.first, cum); });
  offer_up(p.seq, std::move(p.payload));
  if (ack_ != nullptr) ack_->on_data_received(in_order);
}

void SelectiveRepeat::emit_ack() {
  Pdu ack;
  ack.type = PduType::kAck;
  ack.ack = st_.rcv_cum;
  std::uint32_t bitmap = 0;
  for (const std::uint32_t seq : st_.rcv_out_of_order) {
    // Offset arithmetic is modulo 2^32, so this window test is wrap-safe.
    const std::uint32_t offset = seq - st_.rcv_cum;
    if (offset >= 1 && offset <= 32) bitmap |= 1u << (offset - 1);
  }
  ack.aux = bitmap;
  core_->emit(std::move(ack));
}

void SelectiveRepeat::restore(ReliabilityState&& s) {
  ReliabilityBase::restore(std::move(s));
  // Every inherited unacked PDU gets a fresh deadline; a go-back-n
  // predecessor had a single timer, we track per PDU.
  deadline_.clear();
  const sim::SimTime due = core_->now() + rtt_.rto();
  for (const auto& [seq, _] : st_.unacked) deadline_[seq] = due;
  arm_timer();
}

}  // namespace adaptive::tko::sa
