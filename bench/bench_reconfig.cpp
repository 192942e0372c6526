// E-X4 — run-time adaptive reconfiguration (Section 4.1.2).
//
// Scenario A (congestion onset): a transfer starts on a quiet WAN; heavy
// cross-traffic arrives mid-session. Three contenders: a static go-back-n
// session, a static selective-repeat session, and an ADAPTIVE session
// whose policies segue GBN -> SR (and widen the pacing gap) when the
// congestion threshold is crossed. The throughput timeline shows the
// adaptation.
//
// Scenario B (route failover): the terrestrial path dies under a
// latency-bounded stream; the ADAPTIVE session segues to FEC when the
// RTT policy fires, a static SR session keeps paying satellite RTOs.
//
// Both scenarios also verify the paper's "no loss of data" segue
// guarantee: every unit the source emitted is delivered (where the scheme
// promises delivery).
#include "common.hpp"

#include "net/background_traffic.hpp"

#include <algorithm>

using namespace adaptive;

int main() {
  bench::banner("E-X4", "mid-session reconfiguration: congestion onset and route failover");

  // ---------------- scenario A: congestion onset --------------------------
  std::printf("\n-- A: 1.8 MB transfer; 3 Mbps cross-traffic floods the T1 from t=4s to t=30s --\n\n");
  bench::Report report("reconfig");
  unites::TextTable a({"configuration", "completed", "bytes delivered", "retx", "segues",
                       "data intact"});
  for (int contender = 0; contender < 3; ++contender) {
    World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 71); });
    net::BackgroundTrafficConfig bg;
    bg.src = {world.node(2), 9};
    bg.dst = {world.node(3), 9};
    bg.burst_rate = sim::Rate::mbps(3);
    bg.always_on = true;
    net::BackgroundTraffic cross(world.network(), bg, 9);
    world.scheduler().post_after(sim::SimTime::seconds(4), [&] { cross.start(); });
    world.scheduler().post_after(sim::SimTime::seconds(30), [&] { cross.stop(); });

    RunOptions opt;
    opt.application = app::Table1App::kFileTransfer;
    opt.scale = 0.9;  // 1.8 MB: spans the congestion episode
    opt.duration = sim::SimTime::seconds(60);
    opt.drain = sim::SimTime::seconds(40);
    opt.seed = 72;
    const char* label;
    // Identical window (16, under the 24-packet bottleneck queue) for the
    // fixed contenders so the difference is the recovery scheme's response
    // to EXTERNAL congestion, not self-inflicted overflow.
    if (contender == 0) {
      opt.mode = RunOptions::Mode::kFixedConfig;
      auto cfg = tko::sa::tcp_compat_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.transmission = tko::sa::TransmissionScheme::kSlidingWindow;
      cfg.window_pdus = 16;
      cfg.ack = tko::sa::AckScheme::kImmediate;
      opt.fixed = cfg;
      label = "static go-back-n";
    } else if (contender == 1) {
      opt.mode = RunOptions::Mode::kFixedConfig;
      auto cfg = tko::sa::reliable_bulk_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.window_pdus = 16;
      cfg.ack = tko::sa::AckScheme::kImmediate;
      opt.fixed = cfg;
      label = "static selective-repeat";
    } else {
      opt.mode = RunOptions::Mode::kMantttsAdaptive;
      label = "ADAPTIVE (policy-driven segue)";
    }
    const auto out = run_scenario(world, opt);
    const bool intact = out.sink.bytes_received == out.source.bytes_sent;
    if (contender == 2) {
      report.add_latencies_sec("adaptive.latency.ns", out.sink.latencies_sec);
      report.scalar("adaptive.segues", static_cast<double>(out.reconfigurations));
      report.scalar("adaptive.retx", static_cast<double>(out.reliability.retransmissions));
    }
    a.add_row({label,
               bench::fmt((out.sink.last_arrival - out.sink.first_arrival).sec(), 1) + "s",
               std::to_string(out.sink.bytes_received),
               std::to_string(out.reliability.retransmissions),
               std::to_string(out.reconfigurations), intact ? "yes" : "NO"});
  }
  std::printf("%s", a.render().c_str());
  std::printf("\nexpected shape: when congestion hits, go-back-n floods the overloaded queue"
              "\nwith whole-window resends; the ADAPTIVE session segues to selective repeat"
              "\n(and slows its pacing), finishing close to the always-SR session while"
              "\nhaving run the cheaper mechanism during the quiet phase. 'data intact'"
              "\nconfirms the segue lost nothing.\n");

  // ---------------- scenario B: route failover ---------------------------
  std::printf("\n-- B: latency-bounded stream; terrestrial route dies at t=5s --\n\n");
  unites::TextTable b({"configuration", "mean delay", "p95 delay", "retx", "final recovery",
                       "segues"});
  for (const bool adaptive_mode : {false, true}) {
    World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s, 73); });
    world.scheduler().post_after(sim::SimTime::seconds(5), [&] {
      world.network().set_link_pair_up(world.topology().scenario_links[0], false);
    });

    RunOptions opt;
    opt.application = app::Table1App::kManufacturingControl;
    opt.scale = 0.5;
    opt.duration = sim::SimTime::seconds(14);
    opt.drain = sim::SimTime::seconds(4);
    opt.seed = 74;
    if (adaptive_mode) {
      opt.mode = RunOptions::Mode::kMantttsAdaptive;
    } else {
      opt.mode = RunOptions::Mode::kFixedConfig;
      auto cfg = tko::sa::realtime_control_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      opt.fixed = cfg;
    }
    const auto out = run_scenario(world, opt);
    report.add_latencies_sec(adaptive_mode ? "failover.adaptive.latency.ns"
                                           : "failover.static.latency.ns",
                             out.sink.latencies_sec);

    auto lat = out.sink.latencies_sec;
    std::sort(lat.begin(), lat.end());
    const double p95 = lat.empty() ? 0.0 : lat[lat.size() * 95 / 100];
    b.add_row({adaptive_mode ? "ADAPTIVE (RTT policy -> FEC)" : "static selective-repeat",
               bench::fmt_ms(static_cast<double>(out.qos.mean_latency_ns) * 1e-9),
               bench::fmt_ms(p95),
               std::to_string(out.reliability.retransmissions),
               std::string(tko::sa::to_string(out.config.recovery)),
               std::to_string(out.reconfigurations)});
  }
  std::printf("%s", b.render().c_str());
  std::printf("\nexpected shape: after failover both pay the 250ms satellite propagation,"
              "\nbut the static session adds RTO-scale recovery spikes on every loss while"
              "\nthe ADAPTIVE session's FEC reconstructs locally — and its recovery column"
              "\nshows the segue happened.\n");
  report.write();
  return 0;
}
