// World: one fully wired ADAPTIVE deployment — the public entry point a
// downstream user starts from (see examples/quickstart.cpp).
//
// Owns the event scheduler, a topology, and per-host OS substrate +
// AdaptiveTransport + MANTTS entity, plus a shared UNITES repository. Its
// trace ring is the network's: every emitter in the World records there.
#pragma once

#include "mantts/mantts.hpp"
#include "net/topologies.hpp"
#include "os/host.hpp"
#include "tko/transport.hpp"
#include "unites/collector.hpp"
#include "unites/conformance.hpp"
#include "unites/repository.hpp"
#include "unites/resource.hpp"

#include <functional>
#include <memory>
#include <vector>

namespace adaptive {

class World {
public:
  using TopologyFactory = std::function<net::Topology(sim::EventScheduler&)>;

  explicit World(const TopologyFactory& make_topology, const os::CpuConfig& cpu = {},
                 const mantts::ResourceLimits& limits = {}, const os::NicConfig& nic = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::EventScheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Network& network() { return *topo_.network; }
  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] unites::MetricRepository& repository() { return repo_; }
  /// The World's UNITES trace ring (owned by its network). Disabled until
  /// trace().enable(); World construction records nothing, so enabling it
  /// right after construction misses no event.
  [[nodiscard]] unites::TraceRecorder& trace() { return topo_.network->trace(); }
  /// The deployment's QoS-conformance plane (DESIGN §16): one monitor
  /// shared by every MANTTS entity (session ids are globally unique), fed
  /// by the scenario's delivery taps, repository-wired for qos.* metrics.
  [[nodiscard]] unites::ConformanceMonitor& conformance() { return conformance_; }

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] os::Host& host(std::size_t i) { return *hosts_.at(i); }
  [[nodiscard]] tko::AdaptiveTransport& transport(std::size_t i) { return *transports_.at(i); }
  [[nodiscard]] mantts::MantttsEntity& mantts(std::size_t i) { return *entities_.at(i); }
  [[nodiscard]] net::NodeId node(std::size_t i) const { return topo_.hosts.at(i); }
  [[nodiscard]] net::Address transport_address(std::size_t i) const {
    return {topo_.hosts.at(i), tko::kTransportPort};
  }

  /// Attach a UNITES HostCollector to every host: per-host CPU and
  /// buffer-copy series land in the shared repository (systemwide view).
  void enable_host_collectors(sim::SimTime period = sim::SimTime::milliseconds(100));

  /// Resource-plane snapshot (DESIGN §12): every host's buffer-pool
  /// counters plus every live session's pinned-byte gauge, stamped with
  /// the current virtual time.
  [[nodiscard]] unites::ResourceSnapshot resource_snapshot() const;

  /// Advance virtual time.
  void run_for(sim::SimTime dt) { sched_.run_until(sched_.now() + dt); }
  void run_until(sim::SimTime t) { sched_.run_until(t); }
  [[nodiscard]] sim::SimTime now() const { return sched_.now(); }

private:
  sim::EventScheduler sched_;
  net::Topology topo_;
  unites::MetricRepository repo_;
  unites::ConformanceMonitor conformance_;
  std::vector<std::unique_ptr<os::Host>> hosts_;
  std::vector<std::unique_ptr<tko::AdaptiveTransport>> transports_;
  std::vector<std::unique_ptr<mantts::MantttsEntity>> entities_;
  std::vector<std::unique_ptr<unites::HostCollector>> host_collectors_;
};

}  // namespace adaptive
