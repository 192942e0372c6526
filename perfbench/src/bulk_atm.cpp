// bulk_atm: eight concurrent reliable bulk transfers across the 155 Mb/s,
// 10 ms ATM WAN — the paper's Figure-1 high-speed path, where per-byte
// datapath work dominates and MANTTS, the session table and UNITES capture
// are idle.
//
// Set-up (timed as setup_s): World build + eight session opens run until
// established. Timed phase: the sources submit every 16 KB TSDU, the run
// continues until every unit is delivered, then the sessions close and
// drain. The benchmark owns the receivers' delivery callback (span
// bench.app.deliver) and grades every session itself.
#include "harness.hpp"

#include "app/application.hpp"
#include "app/workloads.hpp"
#include "mantts/qos_contract.hpp"
#include "sim/random.hpp"

#include <algorithm>

namespace perfbench {

namespace ad = adaptive;

namespace {

constexpr std::size_t kTransfers = 8;
constexpr std::size_t kTransferBytes = 32 * 1024 * 1024;
constexpr std::size_t kUnitBytes = 16 * 1024;
constexpr std::size_t kUnitsPerTransfer = kTransferBytes / kUnitBytes;
constexpr double kUnitsOwed = static_cast<double>(kTransfers * kUnitsPerTransfer);

/// The SCS bench_hotpath pins: selective repeat, 16-PDU window,
/// Internet-16 trailer, ack every 8, 8 KB segments.
ad::tko::sa::SessionConfig pinned_scs() {
  ad::tko::sa::SessionConfig scs;
  scs.connection = ad::tko::sa::ConnectionScheme::kImplicit;
  scs.transmission = ad::tko::sa::TransmissionScheme::kSlidingWindow;
  scs.recovery = ad::tko::sa::RecoveryScheme::kSelectiveRepeat;
  scs.detection = ad::tko::sa::DetectionScheme::kInternet16Trailer;
  scs.ack = ad::tko::sa::AckScheme::kEveryN;
  scs.ack_every_n = 8;
  scs.message_oriented = true;
  scs.window_pdus = 16;
  scs.segment_bytes = 8192;
  return scs;
}

struct Receiver {
  std::unique_ptr<ad::app::SinkApp> sink;
  ad::tko::TransportSession* session = nullptr;
  std::uint64_t duplicates = 0, misordered = 0;
};

struct Env {
  std::unique_ptr<ad::World> world;
  std::vector<ad::tko::TransportSession*> senders;
  std::vector<Receiver> receivers;
  std::vector<double> latency_ms;
  std::int64_t first_send_ns = -1;
  double world_build_s = 0;
};

class BulkAtm final : public Workload {
public:
  explicit BulkAtm(std::uint64_t seed) : seed_(seed) {
    // The seed staggers the transfers' start times within 2 ms and seeds
    // the network's bit-error stream.
    ad::sim::Rng rng(seed);
    for (std::size_t i = 0; i < kTransfers; ++i) {
      start_offset_ns_.push_back(static_cast<std::int64_t>(rng.uniform_int(0, 2'000'000)));
    }
  }

  SetupSample setup_once() override {
    const double t0 = wall_now();
    auto env = build();
    SetupSample s{wall_now() - t0, env->world_build_s};
    return s;
  }

  IterationResult iterate(bool traced) override;

  [[nodiscard]] std::string check_work_content(const IterationResult& r) const override {
    if (r.owed != kUnitsOwed) return "bulk_atm: units owed differ from 8 x 2048";
    if (r.exact.at("units_submitted") != kUnitsOwed) {
      return "bulk_atm: sources submitted a different number of units than 8 x 2048";
    }
    if (r.exact.at("opens_attempted") != static_cast<double>(kTransfers)) {
      return "bulk_atm: session opens differ from 8";
    }
    return "";
  }

private:
  std::unique_ptr<Env> build();

  std::uint64_t seed_;
  std::vector<std::int64_t> start_offset_ns_;
};

std::unique_ptr<Env> BulkAtm::build() {
  auto env = std::make_unique<Env>();
  ad::os::NicConfig nic;
  nic.interrupt_coalescing = 8;
  nic.coalesce_timeout = ad::sim::SimTime::microseconds(200);
  const std::uint64_t seed = seed_;
  const double t0 = wall_now();
  env->world = std::make_unique<ad::World>(
      [seed](ad::sim::EventScheduler& s) { return ad::net::make_atm_wan(s, kTransfers, seed); },
      ad::os::CpuConfig{}, ad::mantts::ResourceLimits{}, nic);
  env->world_build_s = wall_now() - t0;
  ad::World& world = *env->world;

  env->receivers.resize(kTransfers);
  env->latency_ms.reserve(kTransfers * kUnitsPerTransfer);
  const std::uint64_t inject_ns = trace_switch().inject_deliver_ns;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    Receiver& rx = env->receivers[i];
    rx.sink = std::make_unique<ad::app::SinkApp>(world.host(2 * i + 1).timers());
    world.transport(2 * i + 1).set_acceptor([&rx, inject_ns](ad::tko::TransportSession& s) {
      rx.session = &s;
      s.set_deliver([&rx, inject_ns](ad::tko::Message&& m) {
        Span span("bench.app.deliver");
        busy_wait_ns(inject_ns);
        rx.sink->on_message(std::move(m));
      });
    });
    env->senders.push_back(
        &world.transport(2 * i).open({world.transport_address(2 * i + 1)}, pinned_scs()));
  }
  // Run until every session is established (implicit connections are at
  // once; the bound only guards a regression that stops them).
  const auto established = [&] {
    return std::all_of(env->senders.begin(), env->senders.end(), [](auto* s) {
      return s->state() == ad::tko::SessionState::kEstablished;
    });
  };
  while (!established() && world.now() < ad::sim::SimTime::milliseconds(100)) {
    world.run_for(ad::sim::SimTime::milliseconds(1));
  }
  return env;
}

IterationResult BulkAtm::iterate(bool traced) {
  auto env = build();
  ad::World& world = *env->world;
  auto& monitor = world.conformance();
  const ad::mantts::Acd acd =
      ad::app::make_workload(ad::app::Table1App::kFileTransfer, seed_).acd;

  std::vector<std::unique_ptr<ad::app::SourceApp>> sources;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    ad::tko::TransportSession& tx = *env->senders[i];
    const std::uint32_t sid = tx.id();
    monitor.register_contract(ad::mantts::make_contract(acd, sid, world.node(2 * i)),
                              world.now());
    sources.push_back(std::make_unique<ad::app::SourceApp>(
        tx, std::make_unique<ad::app::BulkModel>(kTransferBytes, kUnitBytes),
        world.host(2 * i).timers(), ad::sim::SimTime::seconds(120)));
    Env* e = env.get();
    sources.back()->set_send_observer(
        [e, &monitor, sid](ad::sim::SimTime now, std::uint32_t unit, std::size_t) {
          if (e->first_send_ns < 0) e->first_send_ns = now.ns();
          monitor.on_send(sid, unit, now);
        });
    Receiver& rx = env->receivers[i];
    rx.sink->set_delivery_observer(
        [e, &rx, &monitor, sid](ad::sim::SimTime now,
                                const ad::app::SinkApp::DeliveryEvent& ev) {
          e->latency_ms.push_back(static_cast<double>(ev.latency_ns) * 1e-6);
          rx.duplicates += ev.duplicate ? 1 : 0;
          rx.misordered += ev.misordered ? 1 : 0;
          monitor.on_delivery(sid, ev.unit, now, ev.latency_ns, ev.bytes, ev.duplicate,
                              ev.misordered);
        });
  }

  auto& prof = ad::unites::Profiler::current();
  prof.clear();
  if (traced) prof.enable();
  TimedPhase phase;
  phase.start();
  for (std::size_t i = 0; i < kTransfers; ++i) {
    ad::app::SourceApp* src = sources[i].get();
    world.scheduler().post_at(world.now() + ad::sim::SimTime::nanoseconds(start_offset_ns_[i]),
                              [src] { src->start(); });
  }
  const auto delivered = [&] {
    std::uint64_t n = 0;
    for (const auto& rx : env->receivers) n += rx.sink->stats().units_received;
    return n;
  };
  const ad::sim::SimTime deadline = world.now() + ad::sim::SimTime::seconds(110);
  while (static_cast<double>(delivered()) < kUnitsOwed && world.now() < deadline) {
    world.run_for(ad::sim::SimTime::milliseconds(100));
  }
  for (auto& s : sources) s->stop();
  for (auto* s : env->senders) {
    Span span("bench.tko.transport.close");
    s->close(true);
  }
  world.run_for(ad::sim::SimTime::seconds(1));
  phase.stop();
  prof.disable();

  IterationResult r;
  r.wall_s = phase.wall_s();
  r.cpu_s = phase.cpu_s();
  if (traced) r.profile = prof.snapshot();
  prof.clear();

  // ---- untimed harvest ----
  monitor.finalize_all(world.now());
  double units = 0, bytes = 0, submitted = 0, clean = 0, windows = 0, windows_ok = 0, qoe = 0;
  std::int64_t last_arrival_ns = 0;
  SessionCounts sc;
  for (std::size_t i = 0; i < kTransfers; ++i) {
    const Receiver& rx = env->receivers[i];
    const auto& sink = rx.sink->stats();
    const auto& src = sources[i]->stats();
    units += static_cast<double>(sink.units_received);
    bytes += static_cast<double>(sink.bytes_received);
    submitted += static_cast<double>(src.units_sent);
    last_arrival_ns = std::max(last_arrival_ns, sink.last_arrival.ns());
    // Delivery invariants of a reliable ordered session: every submitted
    // unit delivered, exactly once, in order.
    const bool ok = sink.units_received == kUnitsPerTransfer && rx.duplicates == 0 &&
                    rx.misordered == 0;
    clean += ok ? 1 : 0;
    const auto* rep = monitor.report(env->senders[i]->id());
    if (rep != nullptr) {
      windows += static_cast<double>(rep->windows.size());
      windows_ok += static_cast<double>(rep->windows.size() - rep->windows_bad);
      qoe += rep->qoe;
    }
    sc.add(*env->senders[i]);
    if (rx.session != nullptr) {
      sc.checksum_failures += static_cast<double>(rx.session->stats().checksum_failures);
    }
  }
  WorldCounts wc;
  wc.add(world);

  r.units = units;
  r.owed = kUnitsOwed;
  Exact& x = r.exact;
  x["units"] = units;
  x["units_submitted"] = submitted;
  x["opens_attempted"] = static_cast<double>(kTransfers);
  std::sort(env->latency_ms.begin(), env->latency_ms.end());
  put_latency(x, env->latency_ms);
  const double traffic_s = static_cast<double>(last_arrival_ns - env->first_send_ns) * 1e-9;
  x["vt.goodput_mbps"] = traffic_s > 0 ? bytes * 8.0 / traffic_s / 1e6 : 0.0;
  x["success_fraction"] = success_fraction(units, kUnitsOwed);
  x["oracle_clean_fraction"] = clean / static_cast<double>(kTransfers);
  x["adaptive.seeds_violating"] = static_cast<double>(kTransfers) - clean;
  x["vt.time_in_contract"] = windows > 0 ? windows_ok / windows : 0.0;
  x["vt.qoe"] = qoe / static_cast<double>(kTransfers);
  x["unites.conformance_windows"] = windows;
  x["unites.trace_events_per_unit"] = 0;
  x["unites.spans"] = 0;
  x["unites.timeline_points"] = 0;
  x["unites.export_mb"] = 0;
  put_layer_counts(x, wc, sc, units, bytes);

  // Sources reference sessions owned by the World: drop them first.
  sources.clear();
  env.reset();
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_bulk_atm(std::uint64_t seed) {
  return std::make_unique<BulkAtm>(seed);
}

}  // namespace perfbench
