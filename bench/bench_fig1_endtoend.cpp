// E-F1 — Figure 1: one pass through the whole ADAPTIVE architecture.
//
// A single session traverses every box in the architecture diagram:
// application ACD -> MANTTS (Stage I/II, out-of-band negotiation) -> TKO
// (synthesis, protocol/session architecture, PDU data path) -> UNITES
// (instrumentation, repository, presentation) -> MANTTS reconfiguration
// feedback loop. Each arrow is demonstrated with a measured number.
#include "common.hpp"

#include "mantts/policy.hpp"
#include "net/background_traffic.hpp"

using namespace adaptive;

int main() {
  bench::banner("E-F1 / Figure 1", "end-to-end dataflow through MANTTS, TKO, and UNITES");

  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 91); });

  // [application] -> MANTTS-API: an ACD with TSA rules and a TMC.
  auto workload = app::make_workload(app::Table1App::kFileTransfer, 92, 0.25);
  workload.acd.remotes = {world.transport_address(1)};
  workload.acd.adjustments = mantts::PolicyEngine::default_rules();
  workload.acd.collect_metrics = true;
  std::printf("\n[app -> MANTTS-API] ACD: %s\n", workload.acd.describe().c_str());

  app::SinkApp sink(world.host(1).timers());
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { sink.attach(s); });

  tko::TransportSession* session = nullptr;
  mantts::MantttsEntity::OpenResult opened;
  world.mantts(0).open_session(workload.acd, [&](mantts::MantttsEntity::OpenResult r) {
    opened = r;
    session = r.session;
  });
  world.run_for(sim::SimTime::seconds(2));

  std::printf("[MANTTS Stage I]   TSC = %s\n", mantts::to_string(opened.tsc));
  std::printf("[MANTTS Stage II]  SCS = %s\n", opened.scs.describe().c_str());
  std::printf("[MANTTS-TSI -> TKO] synthesized context = %s\n",
              session->context().describe().c_str());
  std::printf("[signaling channel] negotiated=%s, configuration time=%s\n",
              opened.negotiated ? "yes" : "no", opened.configuration_time.to_string().c_str());

  // [TKO data path]: drive the workload; congestion arrives mid-stream so
  // the UNITES -> MANTTS feedback edge (reconfiguration) also fires.
  net::BackgroundTrafficConfig bg;
  bg.src = {world.node(2), 9};
  bg.dst = {world.node(3), 9};
  bg.burst_rate = sim::Rate::mbps(3);
  bg.always_on = true;
  net::BackgroundTraffic cross(world.network(), bg, 93);
  world.scheduler().post_after(sim::SimTime::seconds(6), [&] { cross.start(); });

  app::SourceApp source(*session, std::move(workload.model), world.host(0).timers(),
                        sim::SimTime::seconds(20));
  source.start();
  world.run_for(sim::SimTime::seconds(35));
  source.stop();
  cross.stop();
  world.run_for(sim::SimTime::seconds(10));

  std::printf("\n[TKO data path]    PDUs sent=%llu received=%llu, checksum drops=%llu,"
              " retransmissions=%llu\n",
              static_cast<unsigned long long>(session->stats().pdus_sent),
              static_cast<unsigned long long>(session->stats().pdus_received),
              static_cast<unsigned long long>(session->stats().checksum_failures),
              static_cast<unsigned long long>(session->context().reliability().stats()
                                                  .retransmissions));
  std::printf("[UNITES -> MANTTS] policy firings=%llu, segues applied=%u (context now: %s)\n",
              static_cast<unsigned long long>(world.mantts(0).stats().policy_firings),
              session->context().reconfigurations(), session->context().describe().c_str());
  std::printf("[delivery]         %llu/%llu units, %llu bytes, mean latency %s\n",
              static_cast<unsigned long long>(sink.stats().units_received),
              static_cast<unsigned long long>(source.stats().units_sent),
              static_cast<unsigned long long>(sink.stats().bytes_received),
              bench::fmt_ms(sink.stats().mean_latency_sec()).c_str());

  std::printf("\n[UNITES repository] %llu samples; per-connection report:\n\n%s\n",
              static_cast<unsigned long long>(world.repository().total_samples()),
              unites::render_connection_report(world.repository(), world.host(0).node_id(),
                                               session->id())
                  .c_str());

  bench::Report report("fig1_endtoend");
  report.add_latencies_sec("latency.ns", sink.stats().latencies_sec);
  report.scalar("units.sent", static_cast<double>(source.stats().units_sent));
  report.scalar("units.received", static_cast<double>(sink.stats().units_received));
  report.scalar("retransmissions",
                static_cast<double>(session->context().reliability().stats().retransmissions));
  report.scalar("policy.firings", static_cast<double>(world.mantts(0).stats().policy_firings));
  report.scalar("segues", static_cast<double>(session->context().reconfigurations()));

  // Resource plane (DESIGN §12): memory and copy cost per unit of work,
  // snapshotted while the session is still live. These are the scalars
  // the zero-copy roadmap item gates on.
  const unites::ResourceSnapshot resource = world.resource_snapshot();
  const double live_sessions = static_cast<double>(std::max<std::size_t>(1, resource.sessions.size()));
  const double units = static_cast<double>(std::max<std::uint64_t>(1, source.stats().units_sent));
  std::printf("[resource]         pool high-water=%llu B, session high-water=%llu B, copies=%llu\n",
              static_cast<unsigned long long>(resource.pool_high_water_bytes()),
              static_cast<unsigned long long>(resource.session_high_water_bytes()),
              static_cast<unsigned long long>(resource.total_copies()));
  report.trajectory("mem.bytes_per_session",
                    static_cast<double>(resource.session_high_water_bytes()) / live_sessions);
  report.trajectory("os.copies_per_msg", static_cast<double>(resource.total_copies()) / units);
  report.write();

  world.mantts(0).close_session(*session);
  world.run_for(sim::SimTime::seconds(1));
  std::printf("[termination] closed; entity load: %zu active sessions\n",
              world.mantts(0).active_sessions());
  return 0;
}
