// End-to-end integration tests: ADAPTIVE transport sessions over the
// simulated network — connection schemes, loss recovery, multicast,
// close semantics, and live reconfiguration.
#include "net/topologies.hpp"
#include "os/host.hpp"
#include "tko/sa/templates.hpp"
#include "tko/transport.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace adaptive::tko {
namespace {

using sa::SessionConfig;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t salt = 0) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return out;
}

class Collector {
public:
  void attach(Session& s) {
    s.set_deliver([this](Message&& m) {
      auto b = m.linearize();
      bytes_ += b.size();
      messages_.push_back(std::move(b));
    });
  }
  [[nodiscard]] std::size_t total_bytes() const { return bytes_; }
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& messages() const {
    return messages_;
  }
  [[nodiscard]] std::vector<std::uint8_t> concatenated() const {
    std::vector<std::uint8_t> all;
    for (const auto& m : messages_) all.insert(all.end(), m.begin(), m.end());
    return all;
  }

private:
  std::size_t bytes_ = 0;
  std::vector<std::vector<std::uint8_t>> messages_;
};

class TransportFixture : public ::testing::Test {
protected:
  void rebuild(net::Topology t) {
    // Transports unbind host ports on destruction: destroy them first.
    transports.clear();
    hosts.clear();
    accepted.clear();
    build(std::move(t));
  }

  void build(net::Topology topo) {
    this->topo = std::move(topo);
    for (const auto h : this->topo.hosts) {
      hosts.push_back(std::make_unique<os::Host>(*this->topo.network, h));
      transports.push_back(std::make_unique<AdaptiveTransport>(*hosts.back()));
    }
    for (auto& t : transports) {
      t->set_acceptor([this](TransportSession& s) {
        accepted.push_back(&s);
        collector.attach(s);
      });
    }
  }

  void SetUp() override { build(net::make_ethernet_lan(sched, 4, /*seed=*/77)); }

  TransportSession& open(std::size_t from, std::size_t to, const SessionConfig& cfg) {
    return transports[from]->open({{hosts[to]->node_id(), kTransportPort}}, cfg);
  }

  void run_for(double seconds) { sched.run_until(sched.now() + sim::SimTime::seconds(seconds)); }

  sim::EventScheduler sched;
  net::Topology topo;
  std::vector<std::unique_ptr<os::Host>> hosts;
  std::vector<std::unique_ptr<AdaptiveTransport>> transports;
  std::vector<TransportSession*> accepted;
  Collector collector;
};

TEST_F(TransportFixture, ImplicitSessionDeliversFirstMessageWithoutHandshake) {
  auto& s = open(0, 1, sa::udp_compat_config());
  s.send(Message::from_bytes(pattern(500), &hosts[0]->buffers()));
  run_for(0.1);
  ASSERT_EQ(accepted.size(), 1u);
  ASSERT_EQ(collector.messages().size(), 1u);
  EXPECT_EQ(collector.messages()[0], pattern(500));
  // No SYN/SYNACK ever crossed the wire.
  EXPECT_EQ(s.stats().pdus_sent, 1u);
  EXPECT_EQ(s.state(), SessionState::kEstablished);
}

TEST_F(TransportFixture, Explicit3WayEstablishesBeforeData) {
  auto& s = open(0, 1, sa::tcp_compat_config());
  std::vector<SessionState> states;
  s.set_on_state([&](SessionState st) { states.push_back(st); });
  s.connect();
  EXPECT_EQ(s.state(), SessionState::kConnecting);
  run_for(0.1);
  EXPECT_EQ(s.state(), SessionState::kEstablished);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0]->state(), SessionState::kEstablished);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back(), SessionState::kEstablished);
  // Handshake-only traffic so far: SYN + HSACK from active side.
  EXPECT_EQ(s.stats().pdus_sent, 2u);
}

TEST_F(TransportFixture, DataQueuedBeforeEstablishFlowsAfter) {
  auto& s = open(0, 1, sa::tcp_compat_config());
  s.send(Message::from_bytes(pattern(2000), &hosts[0]->buffers()));
  run_for(0.5);
  EXPECT_EQ(collector.total_bytes(), 2000u);
  EXPECT_EQ(collector.concatenated(), pattern(2000));
}

TEST_F(TransportFixture, LargeTransferSegmentsAndReassemblesInOrder) {
  auto cfg = sa::reliable_bulk_config();
  auto& s = open(0, 1, cfg);
  const auto data = pattern(50'000, 3);
  s.send(Message::from_bytes(data, &hosts[0]->buffers()));
  run_for(2.0);
  EXPECT_EQ(collector.total_bytes(), data.size());
  EXPECT_EQ(collector.concatenated(), data);
  EXPECT_GT(s.stats().pdus_sent, 40u);  // definitely segmented
}

TEST_F(TransportFixture, PeerWindowLimitsInFlight) {
  auto cfg = sa::reliable_bulk_config();
  cfg.window_pdus = 2;  // tiny window: transfer still completes
  auto& s = open(0, 1, cfg);
  s.send(Message::from_bytes(pattern(20'000), &hosts[0]->buffers()));
  run_for(2.0);
  EXPECT_EQ(collector.total_bytes(), 20'000u);
}

TEST_F(TransportFixture, GracefulCloseDrainsThenCloses) {
  auto& s = open(0, 1, sa::reliable_bulk_config());
  s.send(Message::from_bytes(pattern(10'000), &hosts[0]->buffers()));
  s.close(/*graceful=*/true);
  run_for(2.0);
  EXPECT_EQ(collector.total_bytes(), 10'000u);  // nothing lost by closing
  EXPECT_EQ(s.state(), SessionState::kClosed);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0]->state(), SessionState::kClosed);
}

TEST_F(TransportFixture, AbortiveCloseIsImmediateAndLossy) {
  auto cfg = sa::reliable_bulk_config();
  cfg.window_pdus = 8;  // most of the transfer is still queued at abort
  auto& s = open(0, 1, cfg);
  s.send(Message::from_bytes(pattern(100'000), &hosts[0]->buffers()));
  run_for(0.002);
  s.close(/*graceful=*/false);
  run_for(0.5);
  EXPECT_EQ(s.state(), SessionState::kAborted);
  EXPECT_LT(collector.total_bytes(), 100'000u);
}

// ---- writable signal: a send buffer of one window ---------------------------

SessionConfig small_window_config() {
  auto cfg = sa::reliable_bulk_config();
  cfg.connection = sa::ConnectionScheme::kImplicit;
  cfg.window_pdus = 8;
  cfg.segment_bytes = 1024;
  return cfg;
}

TEST_F(TransportFixture, WritableUpcallFiresOnceWhenTheSendBufferDropsBelowAWindow) {
  auto& s = open(0, 1, small_window_config());
  EXPECT_TRUE(s.writable());
  s.send(Message::from_bytes(pattern(5000), &hosts[0]->buffers()));
  EXPECT_TRUE(s.writable());  // 8 PDUs went out at once; nothing is queued
  const auto data = pattern(20'000, 5);
  EXPECT_TRUE(s.send(Message::from_bytes(data, &hosts[0]->buffers())));
  EXPECT_FALSE(s.writable());  // send() still accepts everything
  int fired = 0;
  std::uint64_t sent_at_fire = 0;
  s.set_on_writable([&] {
    ++fired;
    sent_at_fire = s.stats().bytes_sent;
  });
  run_for(2.0);
  EXPECT_EQ(fired, 1);  // one-shot
  // It fired while a window-stalled pump still had queued data, not once
  // the queue had emptied.
  EXPECT_LT(sent_at_fire, 25'000u);
  EXPECT_TRUE(s.writable());
  EXPECT_EQ(collector.total_bytes(), 25'000u);
}

TEST_F(TransportFixture, CloseReleasesAnArmedWritableUpcallOnce) {
  for (const bool graceful : {true, false}) {
    SCOPED_TRACE(graceful ? "graceful" : "abortive");
    auto& s = open(0, 1, small_window_config());
    s.send(Message::from_bytes(pattern(20'000), &hosts[0]->buffers()));
    ASSERT_FALSE(s.writable());
    int fired = 0;
    s.set_on_writable([&] { ++fired; });
    s.close(graceful);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(s.writable());  // nothing to wait for: send() refuses
    EXPECT_FALSE(s.send(Message::from_bytes(pattern(10), &hosts[0]->buffers())));
    run_for(2.0);
    EXPECT_EQ(fired, 1);
  }
}

class LossyPathFixture : public TransportFixture {
protected:
  void SetUp() override {
    // Two hosts joined by a congested, errored WAN: both queue-overflow
    // losses (under load) and bit errors occur.
    build(net::make_congested_wan(sched, 1, /*seed=*/11));
  }
};

TEST_F(LossyPathFixture, SelectiveRepeatDeliversEverythingDespiteErrors) {
  auto cfg = sa::reliable_bulk_config();
  cfg.window_pdus = 8;
  auto& s = open(0, 1, cfg);
  const auto data = pattern(60'000, 9);
  s.send(Message::from_bytes(data, &hosts[0]->buffers()));
  sched.run_until(sim::SimTime::seconds(20));
  EXPECT_EQ(collector.total_bytes(), data.size());
  EXPECT_EQ(collector.concatenated(), data);
  const auto& rel = s.context().reliability();
  EXPECT_GT(rel.stats().retransmissions + s.stats().checksum_failures +
                accepted.front()->stats().checksum_failures,
            0u)
      << "path was supposed to be lossy";
}

TEST_F(LossyPathFixture, GoBackNAlsoDeliversEverything) {
  auto cfg = sa::tcp_compat_config();
  cfg.window_pdus = 8;
  auto& s = open(0, 1, cfg);
  const auto data = pattern(60'000, 4);
  s.send(Message::from_bytes(data, &hosts[0]->buffers()));
  sched.run_until(sim::SimTime::seconds(30));
  EXPECT_EQ(collector.total_bytes(), data.size());
  EXPECT_EQ(collector.concatenated(), data);
}

TEST_F(LossyPathFixture, NoRecoveryLosesDataOnLossyPath) {
  auto cfg = sa::udp_compat_config();
  cfg.detection = sa::DetectionScheme::kInternet16Trailer;  // drop corrupted
  auto& s = open(0, 1, cfg);
  // Blast enough traffic to overflow the 24-packet backbone queue.
  for (int i = 0; i < 200; ++i) {
    s.send(Message::from_bytes(pattern(1000, static_cast<std::uint8_t>(i)),
                               &hosts[0]->buffers()));
  }
  sched.run_until(sim::SimTime::seconds(10));
  EXPECT_LT(collector.total_bytes(), 200'000u);
  EXPECT_GT(collector.total_bytes(), 0u);
}

TEST_F(LossyPathFixture, FecRecoversWithoutRetransmission) {
  SessionConfig cfg = sa::lightweight_isochronous_config();
  cfg.recovery = sa::RecoveryScheme::kForwardErrorCorrection;
  cfg.fec_group_size = 4;
  cfg.ack = sa::AckScheme::kNone;
  cfg.transmission = sa::TransmissionScheme::kRateControl;
  cfg.inter_pdu_gap = sim::SimTime::milliseconds(8);  // stay under backbone rate
  auto& s = open(0, 1, cfg);
  for (int i = 0; i < 100; ++i) {
    s.send(Message::from_bytes(pattern(600, static_cast<std::uint8_t>(i)),
                               &hosts[0]->buffers()));
  }
  sched.run_until(sim::SimTime::seconds(10));
  ASSERT_FALSE(accepted.empty());
  const auto& rx_rel = accepted.front()->context().reliability();
  EXPECT_GT(collector.messages().size(), 90u);
  // On this BER path some PDU was corrupted and recovered via parity.
  EXPECT_GT(rx_rel.stats().fec_recoveries, 0u);
  EXPECT_EQ(rx_rel.stats().retransmissions, 0u);
}

TEST_F(TransportFixture, MulticastGroupSessionReachesAllMembers) {
  rebuild(net::make_multicast_campus(sched, 6, 3));
  auto& net = *topo.network;
  const net::NodeId g = net.create_group();
  for (std::size_t i = 1; i <= 3; ++i) net.join_group(g, hosts[i]->node_id());

  SessionConfig cfg = sa::udp_compat_config();
  auto& s = transports[0]->open({{g, kTransportPort}}, cfg);
  s.send(Message::from_bytes(pattern(800), &hosts[0]->buffers()));
  run_for(0.5);
  EXPECT_EQ(accepted.size(), 3u);  // one passive session per member
  EXPECT_EQ(collector.messages().size(), 3u);
  for (const auto& m : collector.messages()) EXPECT_EQ(m, pattern(800));
}

TEST_F(TransportFixture, ReliableMulticastWaitsForAllAcks) {
  rebuild(net::make_multicast_campus(sched, 6, 3));
  auto& net = *topo.network;
  const net::NodeId g = net.create_group();
  net.join_group(g, hosts[1]->node_id());
  net.join_group(g, hosts[2]->node_id());

  SessionConfig cfg = sa::tcp_compat_config();
  cfg.connection = sa::ConnectionScheme::kImplicit;  // handshake to a group is 1:N
  auto& s = transports[0]->open({{g, kTransportPort}}, cfg);
  s.send(Message::from_bytes(pattern(5000), &hosts[0]->buffers()));
  run_for(2.0);
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(collector.total_bytes(), 10'000u);  // both members got all 5000
  EXPECT_TRUE(s.context().reliability().all_acked());
}

TEST_F(TransportFixture, MultiUnicastFanoutCostsNCopies) {
  // Session with three unicast remotes (the "underweight transport forced
  // to emulate multicast" case): each PDU goes out three times.
  SessionConfig cfg = sa::udp_compat_config();
  auto& s = transports[0]->open({{hosts[1]->node_id(), kTransportPort},
                                 {hosts[2]->node_id(), kTransportPort},
                                 {hosts[3]->node_id(), kTransportPort}},
                                cfg);
  s.send(Message::from_bytes(pattern(400), &hosts[0]->buffers()));
  run_for(0.2);
  EXPECT_EQ(accepted.size(), 3u);
  EXPECT_EQ(collector.messages().size(), 3u);
  EXPECT_EQ(hosts[0]->nic().tx_packets(), 3u);
}

TEST_F(TransportFixture, ReconfigureRecoverySchemeMidStreamLosesNothing) {
  auto cfg = sa::reliable_bulk_config();
  cfg.recovery = sa::RecoveryScheme::kGoBackN;
  auto& s = open(0, 1, cfg);
  const auto part1 = pattern(20'000, 1);
  s.send(Message::from_bytes(part1, &hosts[0]->buffers()));
  run_for(0.01);  // mid-flight

  auto cfg2 = cfg;
  cfg2.recovery = sa::RecoveryScheme::kSelectiveRepeat;
  s.reconfigure(cfg2);
  EXPECT_EQ(s.context().reliability().name(), "selective-repeat");
  EXPECT_EQ(s.context().reconfigurations(), 1u);

  const auto part2 = pattern(20'000, 2);
  s.send(Message::from_bytes(part2, &hosts[0]->buffers()));
  run_for(3.0);
  auto expect = part1;
  expect.insert(expect.end(), part2.begin(), part2.end());
  EXPECT_EQ(collector.total_bytes(), expect.size());
  EXPECT_EQ(collector.concatenated(), expect);
}

TEST_F(TransportFixture, ReconfigureTransmissionToRateControl) {
  auto cfg = sa::reliable_bulk_config();
  auto& s = open(0, 1, cfg);
  s.send(Message::from_bytes(pattern(5000), &hosts[0]->buffers()));
  run_for(0.5);

  auto cfg2 = cfg;
  cfg2.transmission = sa::TransmissionScheme::kWindowAndRate;
  cfg2.inter_pdu_gap = sim::SimTime::milliseconds(2);
  s.reconfigure(cfg2);
  const auto t0 = sched.now();
  const auto sent_before = s.stats().pdus_sent;
  s.send(Message::from_bytes(pattern(10'000), &hosts[0]->buffers()));
  run_for(1.0);
  EXPECT_EQ(collector.total_bytes(), 15'000u);
  // Pacing must have stretched the second transfer: 10 PDUs * 2ms >= 18ms.
  const auto pdus = s.stats().pdus_sent - sent_before;
  EXPECT_GE(pdus, 10u);
  (void)t0;
}

TEST_F(TransportFixture, SessionControlInterface) {
  auto& s = open(0, 1, sa::reliable_bulk_config());
  EXPECT_EQ(*s.control("state"), "idle");
  EXPECT_NE(s.control("config")->find("selective-repeat"), std::string::npos);
  EXPECT_NE(s.control("context")->find("selective-repeat"), std::string::npos);
  EXPECT_TRUE(s.control("mtu").has_value());
  EXPECT_FALSE(s.control("bogus").has_value());
}

TEST_F(TransportFixture, InstrumentationHookSeesWhiteboxMetrics) {
  std::map<std::string, double> metrics;
  auto& s = open(0, 1, sa::reliable_bulk_config());
  s.set_metric_hook([&](std::string_view k, double v) { metrics[std::string(k)] += v; });
  s.send(Message::from_bytes(pattern(5000), &hosts[0]->buffers()));
  run_for(1.0);
  EXPECT_GT(metrics["pdu.sent"], 0.0);
  EXPECT_GT(metrics["pdu.received"], 0.0);
  EXPECT_GT(metrics["connection.setup_ns"], 0.0);
}

TEST_F(TransportFixture, CpuCostScalesWithMechanismWeight) {
  // Same payload over heavyweight (TP4-ish) vs lightweight configs; the
  // heavyweight one must burn more host CPU — the overweight argument.
  auto heavy_cfg = sa::tcp_compat_config();
  heavy_cfg.detection = sa::DetectionScheme::kCrc32Trailer;
  auto& heavy = open(0, 1, heavy_cfg);
  heavy.send(Message::from_bytes(pattern(30'000), &hosts[0]->buffers()));
  run_for(2.0);
  const auto heavy_instr = hosts[0]->cpu().stats().instructions;

  auto light_cfg = sa::udp_compat_config();
  light_cfg.detection = sa::DetectionScheme::kNone;
  auto& light = open(2, 3, light_cfg);
  light.send(Message::from_bytes(pattern(30'000), &hosts[2]->buffers()));
  run_for(2.0);
  const auto light_instr = hosts[2]->cpu().stats().instructions;
  // Per-packet NIC interrupts cost the same either way; the protocol-
  // processing difference still shows through clearly.
  EXPECT_GT(static_cast<double>(heavy_instr), 1.4 * static_cast<double>(light_instr));
}

TEST_F(TransportFixture, BidirectionalRequestResponseOnOneSession) {
  // OLTP-style traffic: the passive side answers over the SAME session —
  // each direction has its own sender/receiver state within the shared
  // reliability mechanism.
  auto cfg = sa::reliable_bulk_config();
  cfg.connection = sa::ConnectionScheme::kImplicit;

  std::vector<std::vector<std::uint8_t>> responses;
  TransportSession* server = nullptr;
  transports[1]->set_acceptor([&](TransportSession& s) {
    server = &s;
    s.set_deliver([&, srv = &s](Message&& m) {
      // Echo each request back, transformed.
      auto bytes = m.linearize();
      for (auto& b : bytes) b = static_cast<std::uint8_t>(b + 1);
      srv->send(Message::from_bytes(bytes, &hosts[1]->buffers()));
    });
  });

  auto& client = transports[0]->open({{hosts[1]->node_id(), kTransportPort}}, cfg);
  client.set_deliver([&](Message&& m) { responses.push_back(m.linearize()); });

  for (int i = 0; i < 20; ++i) {
    client.send(Message::from_bytes(pattern(64, static_cast<std::uint8_t>(i)),
                                    &hosts[0]->buffers()));
  }
  run_for(1.0);

  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    auto expect = pattern(64, static_cast<std::uint8_t>(i));
    for (auto& b : expect) b = static_cast<std::uint8_t>(b + 1);
    EXPECT_EQ(responses[i], expect) << "response " << i;
  }
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->context().reliability().all_acked());
  EXPECT_TRUE(client.context().reliability().all_acked());
}

TEST_F(TransportFixture, OrphanPdusAreCounted) {
  // A packet that decodes to an unknown session with no config attached.
  Pdu p;
  p.type = PduType::kAck;
  p.session_id = 0x12345;
  auto wire =
      encode_pdu(std::move(p), ChecksumKind::kInternet16, ChecksumPlacement::kTrailer);
  net::Packet pkt;
  pkt.src = {hosts[0]->node_id(), kTransportPort};
  pkt.dst = {hosts[1]->node_id(), kTransportPort};
  pkt.payload = std::move(wire);
  hosts[0]->send(std::move(pkt));
  run_for(0.1);
  EXPECT_EQ(transports[1]->orphan_pdus(), 1u);
}

}  // namespace
}  // namespace adaptive::tko
