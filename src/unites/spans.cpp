#include "unites/spans.hpp"

#include "unites/json_writer.hpp"
#include "unites/metric.hpp"

#include <cstring>
#include <map>
#include <set>
#include <string>

namespace adaptive::unites {

using detail::JsonWriter;

std::vector<MessageSpan> assemble_spans(const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, MessageSpan> by_unit;
  // Per-unit set of sequence numbers already seen on the wire: a repeated
  // (unit, seq) emission is a retransmission.
  std::map<std::uint32_t, std::set<std::uint32_t>> txed;

  auto span_of = [&](std::uint32_t unit) -> MessageSpan& {
    auto [it, fresh] = by_unit.try_emplace(unit);
    if (fresh) it->second.unit = unit;
    return it->second;
  };

  for (const auto& e : events) {
    if (std::strcmp(e.name, lifecycle::kSubmit) == 0) {
      MessageSpan& s = span_of(static_cast<std::uint32_t>(e.value));
      s.submit_ns = e.when.ns();
      s.session = e.session;
      s.src = e.node;
    } else if (std::strcmp(e.name, lifecycle::kEnqueue) == 0) {
      std::uint32_t unit = 0, seq = 0;
      unpack_unit_seq(e.value, unit, seq);
      MessageSpan& s = span_of(unit);
      if (s.enqueue_ns < 0) s.enqueue_ns = e.when.ns();
    } else if (std::strcmp(e.name, lifecycle::kTx) == 0) {
      std::uint32_t unit = 0, seq = 0;
      unpack_unit_seq(e.value, unit, seq);
      MessageSpan& s = span_of(unit);
      const std::int64_t t = e.when.ns();
      if (s.first_tx_ns < 0) s.first_tx_ns = t;
      if (t > s.last_tx_ns) s.last_tx_ns = t;
      if (txed[unit].insert(seq).second) {
        ++s.segments;
      } else {
        ++s.retx;
      }
    } else if (std::strcmp(e.name, "app.deliver") == 0) {
      // Existing sink event: session field carries the unit id (the
      // lifecycle id does not cross the wire; the UnitHeader does).
      MessageSpan& s = span_of(e.session);
      s.deliver_ns = e.when.ns();
    } else if (std::strcmp(e.name, "app.playout") == 0) {
      MessageSpan& s = span_of(e.session);
      s.playout_ns = e.when.ns();
    }
  }

  std::vector<MessageSpan> out;
  out.reserve(by_unit.size());
  for (auto& [unit, s] : by_unit) {
    // A span with only receiver-side milestones (trace ring wrapped past
    // the submit) still reports what it saw.
    out.push_back(std::move(s));
  }
  return out;
}

void record_span_breakdown(const std::vector<MessageSpan>& spans, MetricRepository& repo) {
  for (const auto& s : spans) {
    if (s.open() || s.submit_ns < 0 || s.first_tx_ns < 0) continue;
    const MetricKey queue{s.src, s.session, metrics::kMsgQueueNs};
    const MetricKey tx{s.src, s.session, metrics::kMsgTxNs};
    const MetricKey retx{s.src, s.session, metrics::kMsgRetxNs};
    const sim::SimTime when(s.deliver_ns);
    repo.record(queue, when, static_cast<double>(s.queue_ns()), MetricClass::kWhitebox);
    repo.record(tx, when, static_cast<double>(s.tx_ns()), MetricClass::kWhitebox);
    repo.record(retx, when, static_cast<double>(s.retx_ns()), MetricClass::kWhitebox);
    if (s.playout_ns >= 0) {
      const MetricKey hold{s.src, s.session, metrics::kMsgPlayoutHoldNs};
      repo.record(hold, sim::SimTime(s.playout_ns), static_cast<double>(s.playout_hold_ns()),
                  MetricClass::kWhitebox);
    }
  }
}

namespace {

void async_event(JsonWriter& w, bool& first, const char* ph, const MessageSpan& s,
                 std::int64_t t_ns, const char* name) {
  if (t_ns < 0) return;
  if (!first) w.raw(',');
  first = false;
  w.raw("{\"ph\":\"").raw(ph).raw("\",\"cat\":\"msg\",\"id\":\"s").num(s.seed);
  w.raw(".u").num(s.unit).raw("\",\"name\":\"").raw(name).raw("\",\"pid\":").num(s.src);
  w.raw(",\"tid\":").num(s.session).raw(",\"ts\":").num(static_cast<double>(t_ns) / 1e3);
  if (ph[0] == 'n') {
    w.raw(",\"args\":{\"unit\":").num(s.unit).raw(",\"retx\":").num(s.retx).raw('}');
  }
  w.raw('}');
}

}  // namespace

void write_spans_chrome(std::ostream& out, const std::vector<MessageSpan>& spans) {
  JsonWriter w(out);
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const auto& s : spans) {
    const std::int64_t start = s.submit_ns >= 0 ? s.submit_ns : s.deliver_ns;
    async_event(w, first, "b", s, start, "msg");
    async_event(w, first, "n", s, s.enqueue_ns, "enqueue");
    async_event(w, first, "n", s, s.first_tx_ns, "tx");
    if (s.retx > 0) async_event(w, first, "n", s, s.last_tx_ns, "retx");
    async_event(w, first, "n", s, s.deliver_ns, "deliver");
    async_event(w, first, "n", s, s.playout_ns, "playout");
    // Open spans (undelivered messages) end at their last known milestone
    // so the track renders; the flight recorder lists them explicitly.
    std::int64_t end = s.playout_ns;
    if (end < 0) end = s.deliver_ns;
    if (end < 0) end = s.last_tx_ns;
    if (end < 0) end = s.enqueue_ns;
    if (end < 0) end = s.submit_ns;
    async_event(w, first, "e", s, end, "msg");
  }
  w.raw("]}\n");
  w.flush();
}

std::string span_to_json(const MessageSpan& s) {
  std::string out;
  JsonWriter w(out);
  w.raw("{\"seed\":").num(s.seed).raw(",\"unit\":").num(s.unit);
  w.raw(",\"session\":").num(s.session).raw(",\"src\":").num(s.src);
  w.raw(",\"submit_ns\":").num(s.submit_ns).raw(",\"enqueue_ns\":").num(s.enqueue_ns);
  w.raw(",\"first_tx_ns\":").num(s.first_tx_ns).raw(",\"last_tx_ns\":").num(s.last_tx_ns);
  w.raw(",\"segments\":").num(s.segments).raw(",\"retx\":").num(s.retx);
  w.raw(",\"deliver_ns\":").num(s.deliver_ns).raw(",\"playout_ns\":").num(s.playout_ns);
  w.raw(",\"open\":").raw(s.open() ? "true" : "false").raw('}');
  w.flush();
  return out;
}

}  // namespace adaptive::unites
