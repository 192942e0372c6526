#include "unites/presentation.hpp"

#include "unites/json_writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace adaptive::unites {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_row_values(const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  char buf[64];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    cells.emplace_back(buf);
  }
  add_row(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  }
  auto pad = [](const std::string& s, std::size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    out += pad(headers_[i], widths[i]);
    out += i + 1 < headers_.size() ? "  " : "\n";
  }
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    out += std::string(widths[i], '-');
    out += i + 1 < headers_.size() ? "  " : "\n";
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += pad(row[i], widths[i]);
      out += i + 1 < row.size() ? "  " : "\n";
    }
  }
  return out;
}

std::string format_si(double value, int precision) {
  const char* suffix = "";
  double v = value;
  if (std::abs(v) >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (std::abs(v) >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (std::abs(v) >= 1e3) {
    v /= 1e3;
    suffix = "k";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%s", precision, v, suffix);
  return buf;
}

std::string render_connection_report(const MetricRepository& repo, net::NodeId host,
                                     std::uint32_t connection) {
  TextTable table({"metric", "class", "count", "mean", "min", "max", "stddev", "p50", "p99"});
  for (const auto& key : repo.keys_for_connection(host, connection)) {
    const Series* s = repo.series(key);
    if (s == nullptr) continue;
    const auto st = analyze(*s);
    // Percentiles come from the full-run histogram, not the (aged) series.
    const Histogram* h = repo.histogram(key);
    table.add_row({key.name,
                   metric_class_name(classify_metric(key.name)),
                   std::to_string(st.count), format_si(st.mean), format_si(st.min),
                   format_si(st.max), format_si(st.stddev),
                   h != nullptr ? format_si(h->p50()) : "-",
                   h != nullptr ? format_si(h->p99()) : "-"});
  }
  return "connection " + std::to_string(connection) + " @ host " + std::to_string(host) + "\n" +
         table.render();
}

std::string render_distribution_report(const MetricRepository& repo, net::NodeId host,
                                       std::uint32_t connection) {
  TextTable table({"metric", "count", "mean", "p50", "p90", "p99", "p99.9", "max"});
  for (const auto& key : repo.keys_for_connection(host, connection)) {
    const Histogram* h = repo.histogram(key);
    if (h == nullptr || h->count() == 0) continue;
    const auto d = analyze_histogram(*h);
    table.add_row({key.name, std::to_string(d.count), format_si(d.mean), format_si(d.p50),
                   format_si(d.p90), format_si(d.p99), format_si(d.p999), format_si(d.max)});
  }
  return "distributions, connection " + std::to_string(connection) + " @ host " +
         std::to_string(host) + "\n" + table.render();
}

std::string render_host_report(const MetricRepository& repo, net::NodeId host) {
  TextTable table({"conn", "metric", "count", "sum", "last"});
  for (const auto& key : repo.keys_for_host(host)) {
    const auto sum = repo.summary(key);
    if (!sum.has_value()) continue;
    table.add_row({std::to_string(key.connection), key.name, std::to_string(sum->count),
                   format_si(sum->sum), format_si(sum->last)});
  }
  return "host " + std::to_string(host) + "\n" + table.render();
}

std::string series_to_csv(const MetricRepository& repo, const MetricKey& key) {
  std::string out;
  detail::JsonWriter w(out);
  w.raw("when_ns,value\n");
  if (const Series* s = repo.series(key); s != nullptr) {
    for (const auto& smp : *s) w.num(smp.when.ns()).raw(',').num(smp.value).raw('\n');
  }
  w.flush();
  return out;
}

}  // namespace adaptive::unites
