#include "adaptive/world.hpp"

#include "unites/profiler.hpp"

namespace adaptive {

World::World(const TopologyFactory& make_topology, const os::CpuConfig& cpu,
             const mantts::ResourceLimits& limits, const os::NicConfig& nic)
    : topo_(make_topology(sched_)) {
  // Give the installed profiler (if any) a virtual-time source; zones
  // opened while this world runs account sim-time against its scheduler.
  unites::Profiler::current().bind_clock(&sched_);
  for (const net::NodeId h : topo_.hosts) {
    hosts_.push_back(std::make_unique<os::Host>(*topo_.network, h, cpu, nic));
    transports_.push_back(std::make_unique<tko::AdaptiveTransport>(*hosts_.back()));
    entities_.push_back(
        std::make_unique<mantts::MantttsEntity>(*hosts_.back(), *transports_.back(), limits));
    entities_.back()->set_repository(&repo_);
    entities_.back()->set_conformance(&conformance_);
  }
  conformance_.set_repository(&repo_);
  conformance_.set_trace(&trace());
}

unites::ResourceSnapshot World::resource_snapshot() const {
  unites::ResourceSnapshot snap;
  snap.when = sched_.now();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    snap.capture_host(*hosts_[i], i < transports_.size() ? transports_[i].get() : nullptr);
  }
  return snap;
}

void World::enable_host_collectors(sim::SimTime period) {
  if (!host_collectors_.empty()) return;
  for (auto& h : hosts_) {
    host_collectors_.push_back(std::make_unique<unites::HostCollector>(repo_, *h, period));
  }
}

World::~World() {
  auto& prof = unites::Profiler::current();
  if (prof.clock() == &sched_) prof.bind_clock(nullptr);
  // Entities and transports unbind host ports on destruction; destroy them
  // before the hosts they reference.
  host_collectors_.clear();
  entities_.clear();
  transports_.clear();
  hosts_.clear();
}

}  // namespace adaptive
