// Video over a WAN whose terrestrial route fails onto a satellite backup —
// the paper's Section 3 adaptive-reconfiguration scenario.
//
// A video stream runs with MANTTS adaptation enabled. Mid-session the
// terrestrial link dies; routing fails over to a 250 ms satellite path;
// the RTT-above policy fires and segues the reliability mechanism to
// forward error correction. The throughput/latency timeline shows the
// disruption and the recovery.
//
//   ./video_wan_failover
#include "adaptive/world.hpp"
#include "app/application.hpp"
#include "app/workloads.hpp"
#include "unites/presentation.hpp"

#include <cstdio>

using namespace adaptive;

int main() {
  World world([](sim::EventScheduler& s) { return net::make_dual_path_wan(s); });

  app::SinkApp sink(world.host(1).timers());
  world.transport(1).set_acceptor([&](tko::TransportSession& s) { sink.attach(s); });

  auto workload = app::make_workload(app::Table1App::kVideoCompressed, /*seed=*/3, /*scale=*/1.0);
  workload.acd.remotes = {world.transport_address(1)};
  workload.acd.adjustments = mantts::PolicyEngine::default_rules();

  tko::TransportSession* session = nullptr;
  world.mantts(0).open_session(workload.acd, [&](mantts::MantttsEntity::OpenResult r) {
    session = r.session;
    std::printf("video session: TSC=%s\n  SCS=%s\n", mantts::to_string(r.tsc),
                r.scs.describe().c_str());
  });
  world.run_for(sim::SimTime::milliseconds(200));

  app::SourceApp source(*session, std::move(workload.model), world.host(0).timers(),
                        sim::SimTime::seconds(16));
  source.start();

  // Fail the terrestrial backbone at t = 6 s.
  world.scheduler().post_after(sim::SimTime::seconds(6), [&] {
    std::printf("-- t=6s: terrestrial backbone FAILS; rerouting via satellite --\n");
    world.network().set_link_pair_up(world.topology().scenario_links[0], false);
  });

  // Timeline: one row per second.
  unites::TextTable timeline({"t", "frames", "window latency", "recovery mechanism", "segues"});
  std::uint64_t last_units = 0;
  std::size_t last_lat_index = 0;
  for (int second = 1; second <= 16; ++second) {
    world.run_for(sim::SimTime::seconds(1));
    const auto& st = sink.stats();
    const std::uint64_t frames = st.units_received - last_units;
    last_units = st.units_received;
    double win_lat = 0.0;
    std::size_t n = 0;
    for (std::size_t i = last_lat_index; i < st.latencies_sec.size(); ++i, ++n) {
      win_lat += st.latencies_sec[i];
    }
    last_lat_index = st.latencies_sec.size();
    if (n > 0) win_lat /= static_cast<double>(n);
    char lat[32];
    std::snprintf(lat, sizeof lat, "%.1f ms", win_lat * 1000.0);
    timeline.add_row({std::to_string(second) + "s", std::to_string(frames), lat,
                      std::string(session->context().reliability().name()),
                      std::to_string(session->context().reconfigurations())});
  }
  std::printf("\n%s", timeline.render().c_str());

  const auto& rel = session->context().reliability();
  std::printf("\nfinal mechanism: %s (FEC recoveries at receiver: see below)\n",
              std::string(rel.name()).c_str());
  auto* passive = world.transport(1).find_session(session->id());
  if (passive != nullptr) {
    const auto& rx = passive->context().reliability().stats();
    std::printf("receiver: fec_recoveries=%llu unrecovered=%llu duplicates=%llu\n",
                static_cast<unsigned long long>(rx.fec_recoveries),
                static_cast<unsigned long long>(rx.unrecovered_losses),
                static_cast<unsigned long long>(rx.duplicates_received));
  }
  std::printf("MANTTS policy firings: %llu, reconfigs sent: %llu\n",
              static_cast<unsigned long long>(world.mantts(0).stats().policy_firings),
              static_cast<unsigned long long>(world.mantts(0).stats().reconfigs_sent));

  source.stop();
  world.mantts(0).close_session(*session);
  world.run_for(sim::SimTime::seconds(1));
  return 0;
}
