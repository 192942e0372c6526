#include "unites/flight_recorder.hpp"

#include "unites/export.hpp"
#include "unites/json_writer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace adaptive::unites {

namespace {

// Re-render metrics JSONL ("{...}\n{...}\n") as a JSON array body.
void jsonl_as_array(detail::JsonWriter& w, std::string_view jsonl) {
  bool first = true;
  while (!jsonl.empty()) {
    const std::size_t nl = std::min(jsonl.find('\n'), jsonl.size());
    if (nl > 0) {
      if (!first) w.raw(',');
      first = false;
      w.raw(jsonl.substr(0, nl));
    }
    jsonl.remove_prefix(std::min(nl + 1, jsonl.size()));
  }
}

}  // namespace

void FlightRecorder::write_bundle(std::ostream& out, const FlightBundle& b) {
  detail::JsonWriter w(out);
  w.raw("{\"seed\":").num(b.seed).raw(",\"reason\":\"").str(b.reason).raw('"');

  w.raw(",\"violations\":[");
  bool first = true;
  for (const auto& v : b.violations) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"rule\":\"").str(v.rule).raw("\",\"zone\":\"").str(v.zone);
    w.raw("\",\"detail\":\"").str(v.detail).raw("\"}");
  }
  w.raw(']');

  w.raw(",\"session_config\":\"").str(b.session_config).raw('"');
  w.raw(",\"context\":\"").str(b.context).raw('"');
  w.raw(",\"fault_plan\":\"").str(b.fault_plan).raw('"');
  w.raw(",\"chaos_plan\":\"").str(b.chaos_plan).raw('"');

  w.raw(",\"counters\":[");
  jsonl_as_array(w, b.metrics_jsonl);
  w.raw(']');

  w.raw(",\"resource\":").raw(b.resource_json.empty() ? "null" : b.resource_json);

  w.raw(",\"conformance\":").raw(b.conformance_json.empty() ? "null" : b.conformance_json);

  w.raw(",\"open_spans\":[");
  first = true;
  for (const auto& s : b.open_spans) {
    if (!first) w.raw(',');
    first = false;
    w.raw(span_to_json(s));
  }
  w.raw("],\"spans_total\":").num(b.spans_total);

  // Canonical bundles never include wall time: a bundle must be
  // byte-identical between serial and parallel sweeps of the same seed.
  w.raw(",\"profile\":").raw(profile_to_json(b.profile, /*include_wall=*/false));

  w.raw(",\"trace\":[");
  first = true;
  for (const auto& e : b.trace) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"t\":").num(e.when.ns()).raw(",\"cat\":\"").raw(to_string(e.category));
    w.raw("\",\"name\":\"").str(e.name).raw("\",\"node\":").num(e.node);
    w.raw(",\"session\":").num(e.session).raw(",\"value\":").num(e.value);
    if (e.detail != nullptr) w.raw(",\"detail\":\"").str(e.detail).raw('"');
    w.raw('}');
  }
  w.raw("]}\n");
  w.flush();
}

std::string FlightRecorder::dump(const FlightBundle& b) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("FlightRecorder: cannot create '" + dir_ + "': " + ec.message());
  }
  const std::string path =
      (std::filesystem::path(dir_) / ("flight-seed" + std::to_string(b.seed) + ".json")).string();
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("FlightRecorder: cannot write '" + path + "'");
  write_bundle(out, b);
  out.close();
  if (!out) throw std::runtime_error("FlightRecorder: write failed for '" + path + "'");
  return path;
}

}  // namespace adaptive::unites
