#include "net/topologies.hpp"

namespace adaptive::net {

namespace {

LinkConfig ethernet_link() {
  LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(10);
  cfg.propagation_delay = sim::SimTime::microseconds(5);
  cfg.bit_error_rate = 1e-8;
  cfg.mtu_bytes = 1500;
  cfg.queue_capacity_packets = 64;
  return cfg;
}

LinkConfig fddi_link() {
  LinkConfig cfg;
  cfg.bandwidth = sim::Rate::mbps(100);
  cfg.propagation_delay = sim::SimTime::microseconds(20);
  cfg.bit_error_rate = kFiberBer;
  cfg.mtu_bytes = 4500;
  cfg.queue_capacity_packets = 128;
  return cfg;
}

}  // namespace

Topology make_ethernet_lan(sim::EventScheduler& sched, std::size_t n_hosts, std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const NodeId sw = t.network->add_switch("lan-sw");
  t.switches.push_back(sw);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const NodeId h = t.network->add_host("h" + std::to_string(i));
    t.hosts.push_back(h);
    auto [f, _] = t.network->connect(h, sw, ethernet_link());
    t.scenario_links.push_back(f);
  }
  return t;
}

Topology make_fddi_ring(sim::EventScheduler& sched, std::size_t n_hosts, std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  for (std::size_t i = 0; i < n_hosts; ++i) {
    t.switches.push_back(t.network->add_switch("ring-sw" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n_hosts; ++i) {
    auto [f, _] =
        t.network->connect(t.switches[i], t.switches[(i + 1) % n_hosts], fddi_link());
    t.scenario_links.push_back(f);
  }
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const NodeId h = t.network->add_host("h" + std::to_string(i));
    t.hosts.push_back(h);
    t.network->connect(h, t.switches[i], fddi_link());
  }
  return t;
}

Topology make_congested_wan(sim::EventScheduler& sched, std::size_t hosts_per_side,
                            std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const NodeId sw_a = t.network->add_switch("edge-a");
  const NodeId sw_b = t.network->add_switch("edge-b");
  t.switches = {sw_a, sw_b};

  LinkConfig backbone;
  backbone.bandwidth = sim::Rate::mbps(1.5);
  backbone.propagation_delay = sim::SimTime::milliseconds(30);
  backbone.bit_error_rate = kCopperBer;
  backbone.mtu_bytes = 1500;
  backbone.queue_capacity_packets = 24;  // small buffers: congestion drops
  auto [f, _] = t.network->connect(sw_a, sw_b, backbone);
  t.scenario_links.push_back(f);

  for (std::size_t i = 0; i < hosts_per_side; ++i) {
    const NodeId ha = t.network->add_host("a" + std::to_string(i));
    const NodeId hb = t.network->add_host("b" + std::to_string(i));
    t.hosts.push_back(ha);
    t.hosts.push_back(hb);
    t.network->connect(ha, sw_a, ethernet_link());
    t.network->connect(hb, sw_b, ethernet_link());
  }
  return t;
}

Topology make_atm_wan(sim::EventScheduler& sched, std::size_t hosts_per_side, std::uint64_t seed,
                      sim::Rate backbone_rate) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const NodeId sw_a = t.network->add_switch("atm-a");
  const NodeId sw_b = t.network->add_switch("atm-b");
  t.switches = {sw_a, sw_b};

  LinkConfig backbone;
  backbone.bandwidth = backbone_rate;
  backbone.propagation_delay = sim::SimTime::milliseconds(10);
  backbone.bit_error_rate = kFiberBer;
  backbone.mtu_bytes = 9188;  // SMDS-sized
  backbone.queue_capacity_packets = 256;
  auto [f, _] = t.network->connect(sw_a, sw_b, backbone);
  t.scenario_links.push_back(f);

  // Access keeps pace with the backbone (host interfaces were the paper's
  // bottleneck concern, not the access medium).
  LinkConfig access = fddi_link();
  access.mtu_bytes = 9188;
  if (backbone_rate > access.bandwidth) access.bandwidth = backbone_rate;
  for (std::size_t i = 0; i < hosts_per_side; ++i) {
    const NodeId ha = t.network->add_host("a" + std::to_string(i));
    const NodeId hb = t.network->add_host("b" + std::to_string(i));
    t.hosts.push_back(ha);
    t.hosts.push_back(hb);
    t.network->connect(ha, sw_a, access);
    t.network->connect(hb, sw_b, access);
  }
  return t;
}

Topology make_dual_path_wan(sim::EventScheduler& sched, std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const NodeId sw_a = t.network->add_switch("pop-a");
  const NodeId sw_b = t.network->add_switch("pop-b");
  const NodeId sat = t.network->add_switch("satellite");
  t.switches = {sw_a, sw_b, sat};

  LinkConfig terrestrial;
  terrestrial.bandwidth = sim::Rate::mbps(45);  // T3
  terrestrial.propagation_delay = sim::SimTime::milliseconds(10);
  terrestrial.bit_error_rate = kFiberBer;
  terrestrial.mtu_bytes = 4500;
  terrestrial.queue_capacity_packets = 128;
  auto [terr, _t2] = t.network->connect(sw_a, sw_b, terrestrial);
  t.scenario_links.push_back(terr);

  LinkConfig uplink;
  uplink.bandwidth = sim::Rate::mbps(45);
  uplink.propagation_delay = sim::SimTime::milliseconds(125);  // ~250 ms end to end
  uplink.bit_error_rate = kCopperBer;
  uplink.mtu_bytes = 4500;
  uplink.queue_capacity_packets = 128;
  auto [up_a, _u2] = t.network->connect(sw_a, sat, uplink);
  auto [up_b, _u3] = t.network->connect(sat, sw_b, uplink);
  t.scenario_links.push_back(up_a);
  t.scenario_links.push_back(up_b);

  const NodeId src = t.network->add_host("src");
  const NodeId dst = t.network->add_host("dst");
  t.hosts = {src, dst};
  LinkConfig access = fddi_link();
  t.network->connect(src, sw_a, access);
  t.network->connect(dst, sw_b, access);
  return t;
}

Topology make_multicast_campus(sim::EventScheduler& sched, std::size_t n_hosts,
                               std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const NodeId root = t.network->add_switch("core");
  t.switches.push_back(root);
  const std::size_t n_edges = std::max<std::size_t>(2, (n_hosts + 3) / 4);

  LinkConfig trunk = fddi_link();
  LinkConfig access = ethernet_link();
  std::vector<NodeId> edges;
  for (std::size_t i = 0; i < n_edges; ++i) {
    const NodeId e = t.network->add_switch("edge" + std::to_string(i));
    edges.push_back(e);
    t.switches.push_back(e);
    auto [f, _] = t.network->connect(root, e, trunk);
    t.scenario_links.push_back(f);
  }
  for (std::size_t i = 0; i < n_hosts; ++i) {
    const NodeId h = t.network->add_host("h" + std::to_string(i));
    t.hosts.push_back(h);
    t.network->connect(h, edges[i % n_edges], access);
  }
  return t;
}

Topology make_mobile_wan(sim::EventScheduler& sched, std::size_t n_attachments,
                         std::size_t extra_hosts, std::uint64_t seed) {
  Topology t;
  t.network = std::make_unique<Network>(sched, seed);
  const Network::RouteBatch batch(*t.network);
  const std::size_t n_cells = std::max<std::size_t>(2, n_attachments);

  const NodeId core = t.network->add_switch("core");
  t.switches.push_back(core);

  LinkConfig trunk = fddi_link();
  trunk.propagation_delay = sim::SimTime::milliseconds(5);
  std::vector<NodeId> cells;
  for (std::size_t i = 0; i < n_cells; ++i) {
    const NodeId cell = t.network->add_switch("cell" + std::to_string(i));
    cells.push_back(cell);
    t.switches.push_back(cell);
    auto [f, _] = t.network->connect(core, cell, trunk);
    t.scenario_links.push_back(f);
  }

  // The mobile host has a link into every cell. The cells are deliberately
  // heterogeneous — each handover changes the path's rate *and* delay, so
  // the network descriptor genuinely moves and MANTTS has something to
  // re-synthesize against.
  const NodeId mob = t.network->add_host("mob");
  t.hosts.push_back(mob);
  t.mobile_host = 0;
  for (std::size_t i = 0; i < n_cells; ++i) {
    LinkConfig air = ethernet_link();
    air.bandwidth = sim::Rate::mbps(10.0 + 5.0 * static_cast<double>(i % 3));
    air.propagation_delay = sim::SimTime::milliseconds(2 + 3 * static_cast<std::int64_t>(i % 3));
    air.bit_error_rate = i % 2 == 0 ? kCopperBer : 1e-7;
    auto [f, _] = t.network->connect(mob, cells[i], air);
    t.attachments.push_back(f);
  }
  // Only the home attachment starts up; handovers flip the rest.
  for (std::size_t i = 1; i < t.attachments.size(); ++i) {
    t.network->set_link_pair_up(t.attachments[i], false);
  }

  const NodeId cn = t.network->add_host("cn");
  t.hosts.push_back(cn);
  t.network->connect(cn, core, fddi_link());

  for (std::size_t i = 0; i < extra_hosts; ++i) {
    const NodeId h = t.network->add_host("m" + std::to_string(i));
    t.hosts.push_back(h);
    t.network->connect(h, cells[i % n_cells], ethernet_link());
  }
  return t;
}

}  // namespace adaptive::net
