#include "unites/export.hpp"

#include "unites/json_writer.hpp"

#include <algorithm>

namespace adaptive::unites {

using detail::JsonWriter;

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonWriter w(out);
  w.str(s);
  w.flush();
  return out;
}

namespace {

// Distinct nodes in ascending order. Events come in runs from one node,
// so a repeat of the previous node skips the search.
std::vector<net::NodeId> distinct_nodes(const std::vector<TraceEvent>& events) {
  std::vector<net::NodeId> nodes;
  for (const auto& e : events) {
    if (!nodes.empty() && e.node == nodes.back()) continue;
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), e.node);
    if (it == nodes.end() || *it != e.node) nodes.insert(it, e.node);
  }
  return nodes;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceRecorder& recorder) {
  write_chrome_trace(out, recorder.snapshot());
}

void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events) {
  JsonWriter w(out);
  w.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  // Name each node's track so Perfetto shows "node N" instead of "pid N".
  for (const net::NodeId n : distinct_nodes(events)) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"ph\":\"M\",\"pid\":").num(n);
    w.raw(",\"name\":\"process_name\",\"args\":{\"name\":\"node ").num(n).raw("\"}}");
  }
  for (const auto& e : events) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"name\":\"").str(e.name).raw("\",\"cat\":\"").raw(to_string(e.category));
    w.raw("\",\"pid\":").num(e.node).raw(",\"tid\":").num(e.session);
    w.raw(",\"ts\":").num(static_cast<double>(e.when.ns()) / 1e3);
    if (e.duration > sim::SimTime::zero()) {
      w.raw(",\"ph\":\"X\",\"dur\":").num(static_cast<double>(e.duration.ns()) / 1e3);
    } else {
      w.raw(",\"ph\":\"i\",\"s\":\"t\"");
    }
    w.raw(",\"args\":{\"value\":").num(e.value);
    if (e.detail != nullptr) w.raw(",\"detail\":\"").str(e.detail).raw('"');
    w.raw("}}");
  }
  w.raw("]}\n");
  w.flush();
}

void write_metrics_jsonl(std::ostream& out, const MetricRepository& repo) {
  JsonWriter w(out);
  for (const auto& key : repo.keys()) {
    const auto summary = repo.summary(key);
    if (!summary.has_value()) continue;
    // The *stored* class, not a fresh classify_metric(name): a metric
    // recorded with an explicit class keeps it through merge and export.
    w.raw("{\"host\":").num(key.host).raw(",\"connection\":").num(key.connection);
    w.raw(",\"name\":\"").str(key.name).raw("\",\"class\":\"");
    w.raw(metric_class_name(repo.metric_class(key))).raw("\",\"count\":").num(summary->count);
    w.raw(",\"sum\":").num(summary->sum).raw(",\"min\":").num(summary->min);
    w.raw(",\"max\":").num(summary->max).raw(",\"last\":").num(summary->last);
    if (const Histogram* h = repo.histogram(key); h != nullptr && h->count() > 0) {
      w.raw(",\"mean\":").num(h->mean()).raw(",\"p50\":").num(h->p50());
      w.raw(",\"p90\":").num(h->p90()).raw(",\"p99\":").num(h->p99());
      w.raw(",\"p999\":").num(h->p999());
    }
    w.raw("}\n");
  }
  w.flush();
}

namespace {

void collapsed_lines(JsonWriter& w, const std::string& stack, const ProfileNode& n) {
  const std::string frame = stack.empty() ? n.name : stack + ";" + n.name;
  w.raw(frame).raw(' ').num(n.calls).raw('\n');
  for (const auto& c : n.children) collapsed_lines(w, frame, c);
}

void profile_node_json(JsonWriter& w, const ProfileNode& n, bool include_wall) {
  w.raw("{\"name\":\"").str(n.name).raw("\",\"calls\":").num(n.calls);
  w.raw(",\"sim_ns\":").num(n.sim_ns);
  if (include_wall) w.raw(",\"wall_ns\":").num(n.wall_ns);
  w.raw(",\"children\":[");
  bool first = true;
  for (const auto& c : n.children) {
    if (!first) w.raw(',');
    first = false;
    profile_node_json(w, c, include_wall);
  }
  w.raw("]}");
}

}  // namespace

void write_profile_collapsed(std::ostream& out, const ProfileTree& tree) {
  JsonWriter w(out);
  for (const auto& root : tree.roots) {
    // Session roots carry no samples of their own; skip empty sessions so
    // a detached run collapses to an empty file.
    for (const auto& c : root.children) collapsed_lines(w, root.name, c);
  }
  w.flush();
}

std::string profile_to_json(const ProfileTree& tree, bool include_wall) {
  std::string out;
  JsonWriter w(out);
  w.raw("{\"profile\":[");
  bool first = true;
  for (const auto& root : tree.roots) {
    if (!first) w.raw(',');
    first = false;
    profile_node_json(w, root, include_wall);
  }
  w.raw("]}");
  w.flush();
  return out;
}

void write_profile_json(std::ostream& out, const ProfileTree& tree, bool include_wall) {
  out << profile_to_json(tree, include_wall) << "\n";
}

std::string histogram_to_json(const Histogram& h) {
  std::string out;
  JsonWriter w(out);
  w.raw("{\"count\":").num(h.count()).raw(",\"sum\":").num(h.sum());
  w.raw(",\"min\":").num(h.min()).raw(",\"max\":").num(h.max());
  w.raw(",\"mean\":").num(h.mean()).raw(",\"p50\":").num(h.p50());
  w.raw(",\"p90\":").num(h.p90()).raw(",\"p99\":").num(h.p99());
  w.raw(",\"p999\":").num(h.p999()).raw('}');
  w.flush();
  return out;
}

}  // namespace adaptive::unites
