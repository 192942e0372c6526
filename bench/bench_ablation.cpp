// Ablations over individual SCS design choices (the knobs Table 2's
// negotiation "parameters, mechanisms, and representations" expose),
// isolating one dimension at a time:
//   1. acknowledgment strategy (ack traffic vs goodput),
//   2. error-detection scheme (CPU cost of integrity),
//   3. segment size vs path MTU,
//   4. buffer representation (fixed vs variable, §4.1.1),
//   5. FEC group size (overhead vs residual loss under corruption).
#include "common.hpp"

#include "mantts/policy.hpp"
#include "net/background_traffic.hpp"

#include <cmath>

using namespace adaptive;
using tko::sa::SessionConfig;

namespace {

RunOutcome run_fixed(World& world, const SessionConfig& cfg, double scale = 0.25,
                     std::uint64_t seed = 7) {
  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.mode = RunOptions::Mode::kFixedConfig;
  opt.fixed = cfg;
  opt.scale = scale;  // 500 KB default
  opt.duration = sim::SimTime::seconds(60);
  opt.drain = sim::SimTime::seconds(30);
  opt.seed = seed;
  return run_scenario(world, opt);
}

double completion_sec(const RunOutcome& out) {
  return (out.sink.last_arrival - out.sink.first_arrival).sec();
}

}  // namespace

int main() {
  bench::banner("ablations", "one SCS dimension at a time");
  bench::Report report("ablation");

  // ---- 1. acknowledgment strategy ---------------------------------------
  std::printf("\n-- ack strategy: 500 KB, selective repeat, 10 Mbps WAN --\n\n");
  {
    unites::TextTable t({"ack scheme", "completion", "acks on wire", "ack overhead"});
    struct Case {
      const char* label;
      tko::sa::AckScheme scheme;
      std::uint16_t n;
    };
    for (const Case c : {Case{"immediate (per PDU)", tko::sa::AckScheme::kImmediate, 0},
                         Case{"delayed (20ms coalesce)", tko::sa::AckScheme::kDelayed, 0},
                         Case{"every 2nd", tko::sa::AckScheme::kEveryN, 2},
                         Case{"every 8th", tko::sa::AckScheme::kEveryN, 8}}) {
      World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 1, 71); });
      auto cfg = tko::sa::reliable_bulk_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.window_pdus = 16;
      cfg.ack = c.scheme;
      if (c.n != 0) cfg.ack_every_n = c.n;
      const auto out = run_fixed(world, cfg);
      report.add_latencies_sec("ack.latency.ns", out.sink.latencies_sec);
      report.dist("ack.completion_sec").add(completion_sec(out));
      // ACKs received by the sender == acks the receiver put on the wire
      // (modulo loss).
      const auto acks = out.session.pdus_received;
      t.add_row({c.label, bench::fmt(completion_sec(out), 2) + "s", std::to_string(acks),
                 bench::fmt_pct(static_cast<double>(acks) /
                                static_cast<double>(out.session.pdus_sent))});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: sparser acks cut reverse-path traffic several-fold with"
                "\nlittle goodput cost — until they starve window advancement.\n");
  }

  // ---- 2. error detection -------------------------------------------------
  std::printf("\n-- error detection: 500 KB on a slow (25 MIPS) host, clean FDDI --\n\n");
  {
    unites::TextTable t({"detection", "completion", "sender CPU Minstr", "undetected corruption"});
    for (const auto det :
         {tko::sa::DetectionScheme::kNone, tko::sa::DetectionScheme::kInternet16Trailer,
          tko::sa::DetectionScheme::kInternet16Header, tko::sa::DetectionScheme::kCrc32Trailer}) {
      World world([](sim::EventScheduler& s) { return net::make_fddi_ring(s, 4, 72); });
      // Identical no-recovery paced configuration in every row so the only
      // varying dimension is the detection code itself.
      SessionConfig cfg;
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.transmission = tko::sa::TransmissionScheme::kRateControl;
      cfg.inter_pdu_gap = sim::SimTime::microseconds(900);
      cfg.recovery = tko::sa::RecoveryScheme::kNone;
      cfg.ack = tko::sa::AckScheme::kNone;
      cfg.ordered_delivery = false;
      cfg.segment_bytes = 1024;
      cfg.detection = det;
      const auto out = run_fixed(world, cfg);
      t.add_row({tko::sa::to_string(det), bench::fmt(completion_sec(out), 2) + "s",
                 bench::fmt(static_cast<double>(out.sender_cpu_instructions) / 1e6, 1),
                 det == tko::sa::DetectionScheme::kNone ? "possible" : "caught"});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: integrity costs CPU — CRC32 > cksum16-trailer, and header"
                "\nplacement pays an extra pass; 'none' is cheapest and unsafe.\n");
  }

  // ---- 3. segment size vs MTU -------------------------------------------
  std::printf("\n-- segment size: 500 KB over Ethernet (MTU 1500) --\n\n");
  {
    unites::TextTable t({"segment", "completion", "data PDUs", "header overhead"});
    for (const std::uint32_t seg : {128u, 256u, 512u, 1024u, 1400u}) {
      World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 73); });
      auto cfg = tko::sa::reliable_bulk_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.segment_bytes = seg;
      cfg.window_pdus = 32;
      const auto out = run_fixed(world, cfg);
      report.dist("segment.completion_sec").add(completion_sec(out));
      const double overhead =
          static_cast<double>(out.session.pdus_sent) * (24.0 + 4.0 + 28.0) /
          static_cast<double>(out.sink.bytes_received == 0 ? 1 : out.sink.bytes_received);
      t.add_row({std::to_string(seg) + "B", bench::fmt(completion_sec(out), 3) + "s",
                 std::to_string(out.session.pdus_sent), bench::fmt_pct(overhead)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: larger segments amortize per-PDU header and processing"
                "\ncosts until the path MTU caps them.\n");
  }

  // ---- 4. buffer representation ------------------------------------------
  std::printf("\n-- buffer representation: fixed-size vs variable-size pools --\n\n");
  {
    unites::TextTable t({"scheme", "allocations", "allocated MB", "wasted MB", "copies MB"});
    for (const bool fixed : {false, true}) {
      World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 74); });
      world.host(0).buffers().set_scheme(fixed ? os::BufferScheme::kFixedSize
                                               : os::BufferScheme::kVariableSize);
      auto cfg = tko::sa::reliable_bulk_config();
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      (void)run_fixed(world, cfg);
      const auto& st = world.host(0).buffers().stats();
      t.add_row({fixed ? "fixed (2 KB blocks)" : "variable (exact fit)",
                 std::to_string(st.allocations),
                 bench::fmt(static_cast<double>(st.allocated_bytes) / 1e6, 2),
                 bench::fmt(static_cast<double>(st.wasted_bytes) / 1e6, 2),
                 bench::fmt(static_cast<double>(st.copied_bytes) / 1e6, 2)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: fixed-size blocks trade internal fragmentation (wasted"
                "\nbytes) for allocator simplicity — the 'representation' choice MANTTS"
                "\nnegotiates per session.\n");
  }

  // ---- 5. FEC group size ----------------------------------------------------
  std::printf("\n-- FEC group size: paced stream, 2%% packet corruption --\n\n");
  {
    unites::TextTable t({"group k", "parity overhead", "recoveries", "residual loss"});
    for (const std::uint16_t k : {2, 4, 8, 16}) {
      sim::EventScheduler sched;  // custom lossy point-to-point path
      World world(
          [&](sim::EventScheduler& s) {
            net::Topology topo;
            topo.network = std::make_unique<net::Network>(s, 75);
            const auto a = topo.network->add_host("a");
            const auto b = topo.network->add_host("b");
            net::LinkConfig link;
            link.bandwidth = sim::Rate::mbps(10);
            // Tuned so a typical ~270-byte wire PDU is corrupted with
            // probability ~2%.
            link.bit_error_rate = -std::log(1.0 - 0.02) / (270.0 * 8.0);
            topo.network->connect(a, b, link);
            topo.hosts = {a, b};
            return topo;
          });
      SessionConfig cfg;
      cfg.connection = tko::sa::ConnectionScheme::kImplicit;
      cfg.transmission = tko::sa::TransmissionScheme::kRateControl;
      cfg.inter_pdu_gap = sim::SimTime::milliseconds(1);
      cfg.recovery = tko::sa::RecoveryScheme::kForwardErrorCorrection;
      cfg.fec_group_size = k;
      cfg.detection = tko::sa::DetectionScheme::kCrc32Trailer;
      cfg.ack = tko::sa::AckScheme::kNone;
      cfg.ordered_delivery = false;
      cfg.segment_bytes = 600;
      RunOptions opt;
      opt.application = app::Table1App::kManufacturingControl;
      opt.mode = RunOptions::Mode::kFixedConfig;
      opt.fixed = cfg;
      opt.duration = sim::SimTime::seconds(10);
      opt.drain = sim::SimTime::seconds(5);
      opt.seed = 76;
      const auto out = run_scenario(world, opt);
      const auto& rx = out.receiver_reliability;
      const double residual =
          out.source.units_sent == 0
              ? 0.0
              : static_cast<double>(rx.unrecovered_losses) /
                    static_cast<double>(out.source.units_sent);
      t.add_row({std::to_string(k), bench::fmt_pct(1.0 / static_cast<double>(k), 1),
                 std::to_string(rx.fec_recoveries), bench::fmt_pct(residual)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: small groups burn bandwidth (1/k parity) but almost"
                "\nnever meet two losses per group; large groups are cheap but leak"
                "\nresidual loss as double-hits become likely.\n");
  }

  // ---- 5b. FEC vs BURSTY errors (Gilbert-Elliott) ------------------------
  std::printf("\n-- FEC vs burst errors: same 2%% marginal loss, bursty vs independent --\n\n");
  {
    unites::TextTable t({"error process", "group k", "recoveries", "residual loss"});
    for (const bool bursty : {false, true}) {
      for (const std::uint16_t k : {4, 16}) {
        World world([&](sim::EventScheduler& s) {
          net::Topology topo;
          topo.network = std::make_unique<net::Network>(s, 85);
          const auto a = topo.network->add_host("a");
          const auto b = topo.network->add_host("b");
          net::LinkConfig link;
          link.bandwidth = sim::Rate::mbps(10);
          if (bursty) {
            // ~2% of packets in the bad state (p_gb/(p_gb+p_bg)), near-
            // certain corruption while there: bursts of mean length ~3.
            link.p_good_to_bad = 0.0068;
            link.p_bad_to_good = 0.33;
            link.burst_error_rate = 1e-3;
          } else {
            link.bit_error_rate = -std::log(1.0 - 0.02) / (270.0 * 8.0);
          }
          topo.network->connect(a, b, link);
          topo.hosts = {a, b};
          return topo;
        });
        SessionConfig cfg;
        cfg.connection = tko::sa::ConnectionScheme::kImplicit;
        cfg.transmission = tko::sa::TransmissionScheme::kRateControl;
        cfg.inter_pdu_gap = sim::SimTime::milliseconds(1);
        cfg.recovery = tko::sa::RecoveryScheme::kForwardErrorCorrection;
        cfg.fec_group_size = k;
        cfg.detection = tko::sa::DetectionScheme::kCrc32Trailer;
        cfg.ack = tko::sa::AckScheme::kNone;
        cfg.ordered_delivery = false;
        cfg.segment_bytes = 600;
        RunOptions opt;
        opt.application = app::Table1App::kManufacturingControl;
        opt.mode = RunOptions::Mode::kFixedConfig;
        opt.fixed = cfg;
        opt.duration = sim::SimTime::seconds(10);
        opt.drain = sim::SimTime::seconds(5);
        opt.seed = 86;
        const auto out = run_scenario(world, opt);
        const auto& rx = out.receiver_reliability;
        const double residual =
            out.source.units_sent == 0
                ? 0.0
                : static_cast<double>(rx.unrecovered_losses) /
                      static_cast<double>(out.source.units_sent);
        t.add_row({bursty ? "bursty (Gilbert-Elliott)" : "independent",
                   std::to_string(k), std::to_string(rx.fec_recoveries),
                   bench::fmt_pct(residual)});
      }
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: at the same marginal loss rate, bursts put several"
                "\nlosses into one parity group — residual loss jumps where independent"
                "\nerrors were fully recoverable.\n");
  }
  // ---- 6. adaptation sampling period --------------------------------------
  std::printf("\n-- adaptation sampling period: reaction time to congestion onset --\n\n");
  {
    unites::TextTable t({"sampling period", "first reaction after onset", "policy firings",
                         "reconfig"});
    for (const int period_ms : {20, 100, 500, 2000}) {
      World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 77); });
      net::BackgroundTrafficConfig bg;
      bg.src = {world.node(2), 9};
      bg.dst = {world.node(3), 9};
      bg.burst_rate = sim::Rate::mbps(3);
      bg.always_on = true;
      net::BackgroundTraffic cross(world.network(), bg, 78);
      const auto onset = sim::SimTime::seconds(3);
      world.scheduler().post_after(onset, [&] { cross.start(); });

      // A paced, low-rate session (it cannot congest the path itself, so
      // the policies react purely to the external onset).
      auto workload = app::make_workload(app::Table1App::kManufacturingControl, 79, 0.2);
      workload.acd.remotes = {world.transport_address(1)};
      workload.acd.quantitative.duration = sim::SimTime::seconds(600);
      tko::TransportSession* session = nullptr;
      world.mantts(0).open_session(workload.acd,
                                   [&](auto r) { session = r.session; });
      world.run_for(sim::SimTime::seconds(1));
      world.mantts(0).enable_adaptation(*session, mantts::PolicyEngine::default_rules(),
                                        sim::SimTime::milliseconds(period_ms));
      sim::SimTime first_segue = sim::SimTime::infinity();
      world.mantts(0).set_qos_callback(*session, [&](const SessionConfig&) {
        if (first_segue.is_infinite()) first_segue = world.now();
      });
      world.transport(1).set_acceptor([](tko::TransportSession& s) {
        s.set_deliver([](tko::Message&&) {});
      });
      app::SourceApp source(*session, std::move(workload.model), world.host(0).timers(),
                            sim::SimTime::seconds(40));
      source.start();
      world.run_for(sim::SimTime::seconds(30));
      cross.stop();
      source.stop();
      world.run_for(sim::SimTime::seconds(5));

      const double reaction =
          first_segue.is_infinite() ? -1.0 : (first_segue - (onset + sim::SimTime::seconds(1))).sec();
      t.add_row({std::to_string(period_ms) + "ms",
                 first_segue.is_infinite() ? "(never)"
                                           : bench::fmt((first_segue - onset).sec(), 3) + "s",
                 std::to_string(world.mantts(0).stats().policy_firings),
                 std::to_string(session->context().reconfigurations()) + " segues"});
      (void)reaction;
    }
    std::printf("%s", t.render().c_str());
    std::printf("\nexpected shape: reaction time tracks the sampling period (the paper's"
                "\n'when to reconfigure' question has a measurement-frequency cost axis).\n");
  }
  report.write();
  return 0;
}
