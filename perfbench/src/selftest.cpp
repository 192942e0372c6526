// Tests of the benchmark's own arithmetic: percentiles and their sample
// counts, success fractions under multicast fan-out and refused opens,
// layer attribution summing to the traced total, timed-phase windows, and
// zone-to-layer grouping. Exits non-zero on the first failure.
#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, already sorted
  return v;
}

void test_percentiles() {
  // Nearest rank: p50 of 1..10 is the 5th value, p99.9 of 1..10000 the 9990th.
  check(quantile_nearest_rank(ramp(10), 0.5) == 5.0, "p50 of 1..10 is 5");
  check(quantile_nearest_rank(ramp(10000), 0.999) == 9990.0, "p99.9 of 1..10000 is 9990");
  check(samples_beyond(10000, 0.999) == 10, "10 samples lie beyond p99.9 of 10000");
  check(samples_beyond(9999, 0.999) == 9, "9 samples lie beyond p99.9 of 9999");
  check(p999_if_supported(ramp(10000)).has_value(), "p99.9 reported at 10000 samples");
  check(!p999_if_supported(ramp(9999)).has_value(), "p99.9 withheld below 10 beyond");

  // The reported tail is the highest percentile with >= 10 samples beyond.
  const struct {
    std::size_t n;
    double expect;
  } cases[] = {{100000, 99.99}, {10000, 99.9}, {9999, 99.0}, {1000, 99.0}, {999, 90.0},
               {100, 90.0},     {20, 50.0}};
  for (const auto& c : cases) {
    const auto t = highest_supported_tail(ramp(c.n));
    char what[96];
    std::snprintf(what, sizeof what, "highest tail of %zu samples is p%g", c.n, c.expect);
    check(t.has_value() && t->percentile == c.expect && t->beyond >= kTailSamples &&
              t->samples == c.n,
          what);
    if (t) {
      std::printf("     p%g = %g, %llu beyond, %llu samples\n", t->percentile, t->value,
                  static_cast<unsigned long long>(t->beyond),
                  static_cast<unsigned long long>(t->samples));
      // Highest: the next rung up has fewer than kTailSamples beyond it.
      const double ladder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
      for (std::size_t i = 1; i < std::size(ladder); ++i) {
        if (ladder[i] == t->percentile) {
          check(samples_beyond(c.n, ladder[i - 1] / 100.0) < kTailSamples,
                "the next rung up lacks 10 samples beyond");
        }
      }
    }
  }
  check(!highest_supported_tail(ramp(19)).has_value(), "no tail from 19 samples");
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5, "median odd/even");
}

void test_success_fraction() {
  // Multicast: 100 units to 7 receivers owe 700 deliveries.
  const double owed_mc = units_owed(100, 7);
  check(owed_mc == 700.0, "multicast owes units x receivers");
  check(success_fraction(650, owed_mc) == 650.0 / 700.0, "fan-out charged per receiver");
  // A refused open delivers nothing but still owes its units.
  const double owed = units_owed(100, 1) + units_owed(100, 1);
  check(success_fraction(100, owed) == 0.5, "refused open charged as missing");
  bool threw = false;
  try {
    (void)success_fraction(1, 0);
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "nothing owed is an error, not a fraction");
}

void test_attribution() {
  const std::map<std::string, double> layers = {
      {"net", 12.5}, {"tko.transport", 30.25}, {"mantts", 4.0}, {"app", 3.0}};
  const Attribution a = attribute(100.0, layers);
  double sum = a.unattributed_ms;
  for (const auto& [k, v] : a.layer_ms) sum += v;
  check(std::fabs(sum - 100.0) < 1e-9, "layers + unattributed sum to the traced total");
  check(std::fabs(a.unattributed_ms - 50.25) < 1e-9, "unattributed is the remainder");
  check(std::fabs(a.unattributed_share - 0.5025) < 1e-12, "unattributed share");
  check(a.layer_ms.size() == timed_layers().size(), "every timed layer reported");

  // Self times from a profile tree: children's time is not the parent's.
  adaptive::unites::ProfileTree tree;
  adaptive::unites::ProfileNode root;
  root.name = "session/0";
  adaptive::unites::ProfileNode send{"bench.tko.transport.send", 1, 0, 2'000'000, {}};
  send.children.push_back({"transport.send", 1, 0, 5'000'000, {}});
  send.children.back().children.push_back({"net.link.transmit", 1, 0, 1'000'000, {}});
  root.children.push_back(send);
  root.children.push_back({"bench.app.deliver", 1, 0, 3'000'000, {}});
  root.children.push_back({"unknown.zone", 1, 0, 7'000'000, {}});
  tree.roots.push_back(root);
  const auto ms = layer_self_ms(tree);
  check(ms.at("tko.transport") == 7.0 && ms.at("net") == 1.0 && ms.at("app") == 3.0,
        "zone self times grouped by layer");
  const Attribution b = attribute(20.0, ms);
  check(std::fabs(b.unattributed_ms - 9.0) < 1e-9, "unmapped zones stay unattributed");
}

void test_layer_names() {
  check(layer_of_zone("reliability.sr.on_ack") == "tko.reliability", "reliability zone");
  check(layer_of_zone("sequencing.offer") == "tko.control", "sequencing zone");
  check(layer_of_zone("ack.flush") == "tko.control", "ack zone");
  check(layer_of_zone("mantts.synthesize") == "mantts", "mantts zone");
  check(layer_of_zone("bench.mantts.open") == "mantts", "benchmark span layer");
  check(layer_of_zone("bench.tko.transport.send") == "tko.transport", "dotted span layer");
  check(layer_of_zone("something.else").empty(), "unknown zone unattributed");
}

/// Spin until this process has used `s` more seconds of CPU.
void burn_cpu(double s) {
  const double until = cpu_now() + s;
  while (cpu_now() < until) {
  }
}

void test_timed_window() {
  // CPU burnt before start() and after stop() must land in neither window.
  burn_cpu(0.06);
  const double w1 = wall_now();
  TimedPhase phase;
  phase.start();
  burn_cpu(0.1);
  phase.stop();
  const double w2 = wall_now();
  burn_cpu(0.06);
  std::printf("     window wall %.4fs cpu %.4fs (phase bracket %.4fs)\n", phase.wall_s(),
              phase.cpu_s(), w2 - w1);
  check(phase.wall_s() <= w2 - w1 && phase.wall_s() > w2 - w1 - 1e-3,
        "wall window covers the phase only");
  check(phase.cpu_s() >= 0.1 && phase.cpu_s() < 0.13, "CPU window covers the phase only");
  check(phase.cpu_s() <= phase.wall_s() + 1e-3, "one thread uses no more CPU than wall");
}

}  // namespace

int main() {
  test_percentiles();
  test_success_fraction();
  test_attribution();
  test_layer_names();
  test_timed_window();
  std::printf("%s (%d failure(s))\n", failures == 0 ? "selftest OK" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
