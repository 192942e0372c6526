// Metric presentation: fixed-width text tables and CSV export — the
// "interactive graphic displays or standard network management protocols"
// surface of Figure 6, rendered for a terminal.
#pragma once

#include "unites/analysis.hpp"
#include "unites/repository.hpp"

#include <string>

namespace adaptive::unites {

/// Generic fixed-width table builder used by every bench harness.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Per-connection report: one row per metric with analyze() statistics.
[[nodiscard]] std::string render_connection_report(const MetricRepository& repo,
                                                   net::NodeId host, std::uint32_t connection);

/// Per-host report: one row per (connection, metric) summary.
[[nodiscard]] std::string render_host_report(const MetricRepository& repo, net::NodeId host);

/// CSV dump of every sample of a series ("when_ns,value" lines).
[[nodiscard]] std::string series_to_csv(const MetricRepository& repo, const MetricKey& key);

/// Helpers for bench output formatting.
[[nodiscard]] std::string format_si(double value, int precision = 2);

}  // namespace adaptive::unites
