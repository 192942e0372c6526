// Robustness fuzzing: hostile and mutated inputs must never crash, hang,
// or smuggle corrupted state into the system — only be rejected.
//
//  * PDU decoder vs random bytes and vs bit/byte mutations of valid PDUs.
//  * SessionConfig deserializer vs random bytes (and the invariant that
//    whatever it accepts re-serializes to the same thing).
//  * MANTTS signaling decoder vs mutated CONFIG PDUs.
//  * Transport demux vs garbage packets on the transport and signaling
//    ports of a live world.
//  * Fault-plan parser vs the checked-in regression corpus in
//    tests/corpus/fault_plans/ — inputs that previously crashed or
//    mis-parsed stay pinned to their expected accept/reject counts.
#include "adaptive/world.hpp"
#include "mantts/negotiation.hpp"
#include "sim/fault_plan.hpp"
#include "tko/pdu.hpp"
#include "tko/sa/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace adaptive {
namespace {

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform_int(0, max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, PduDecoderNeverAcceptsGarbage) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    auto junk = random_bytes(rng, 128);
    const auto r = tko::decode_pdu(tko::Message::from_bytes(junk));
    // Random bytes essentially never carry a valid version + length +
    // checksum; anything else is a rejection, which must be graceful.
    if (r.status == tko::DecodeStatus::kOk) {
      // Astronomically unlikely; if it happens the PDU must at least be
      // internally consistent.
      EXPECT_LE(r.pdu.payload.size(), junk.size());
    }
  }
}

TEST_P(FuzzSeeds, MutatedValidPdusAreDetectedOrEquivalent) {
  sim::Rng rng(GetParam());
  tko::Pdu p;
  p.type = tko::PduType::kData;
  p.session_id = 77;
  p.seq = 9;
  std::vector<std::uint8_t> payload(200);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  p.payload = tko::Message::from_bytes(payload);
  const auto wire = tko::encode_pdu(std::move(p), tko::ChecksumKind::kCrc32,
                                    tko::ChecksumPlacement::kTrailer)
                        .linearize();

  int accepted_mutations = 0;
  for (int i = 0; i < 2000; ++i) {
    auto mutated = wire;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      const auto bit = rng.uniform_int(0, mutated.size() * 8 - 1);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    const auto r = tko::decode_pdu(tko::Message::from_bytes(mutated));
    if (r.status == tko::DecodeStatus::kOk) {
      // CRC32 catches all 1..4-bit flips within its coverage; an accepted
      // "mutation" can only be two flips cancelling on the same bit,
      // restoring the original image exactly.
      EXPECT_EQ(mutated, wire);
      ++accepted_mutations;
    }
  }
  (void)accepted_mutations;
}

TEST_P(FuzzSeeds, SessionConfigDeserializeIsTotalAndIdempotent) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    auto junk = random_bytes(rng, 64);
    const auto cfg = tko::sa::SessionConfig::deserialize(junk);
    if (!cfg.has_value()) continue;
    // Whatever is accepted must survive a serialize/deserialize cycle
    // exactly (the negotiation channel depends on this).
    const auto again = tko::sa::SessionConfig::deserialize(cfg->serialize());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *cfg);
  }
}

TEST_P(FuzzSeeds, SignalDecoderRejectsMutations) {
  sim::Rng rng(GetParam());
  mantts::Signal sig;
  sig.type = tko::PduType::kConfig;
  sig.token = 5;
  sig.config = tko::sa::SessionConfig{};
  auto signal_wire = mantts::encode_signal(sig);
  const auto wire = signal_wire.linearize();
  for (int i = 0; i < 1000; ++i) {
    auto mutated = wire;
    const auto bit = rng.uniform_int(0, mutated.size() * 8 - 1);
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto out = mantts::decode_signal(tko::Message::from_bytes(mutated));
    if (out.has_value()) {
      EXPECT_EQ(mutated, wire);  // only a no-op "mutation" may pass
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 9));

TEST(FuzzLive, GarbagePacketsDontDisturbALiveTransfer) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 3, 201); });
  std::size_t received = 0;
  world.transport(1).set_acceptor([&](tko::TransportSession& s) {
    s.set_deliver([&](tko::Message&& m) { received += m.size(); });
  });
  auto& session =
      world.transport(0).open({world.transport_address(1)}, tko::sa::reliable_bulk_config());
  session.send(tko::Message::from_bytes(std::vector<std::uint8_t>(100'000, 7),
                                        &world.host(0).buffers()));

  // Host 2 sprays garbage at host 1's transport and signaling ports
  // throughout the transfer.
  sim::Rng rng(202);
  for (int i = 0; i < 300; ++i) {
    world.scheduler().post_after(sim::SimTime::microseconds(100 * i), [&, i] {
      net::Packet junk;
      junk.src = {world.node(2), 1234};
      junk.dst = {world.node(1),
                  (i % 2) == 0 ? tko::kTransportPort : mantts::kSignalingPort};
      std::vector<std::uint8_t> noise(rng.uniform_int(1, 200));
      for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      junk.payload = tko::Message::from_bytes(noise);
      world.host(2).send(std::move(junk));
    });
  }
  world.run_for(sim::SimTime::seconds(5));
  EXPECT_EQ(received, 100'000u);  // transfer unharmed
  EXPECT_GT(world.transport(1).orphan_pdus(), 0u);  // garbage was counted & dropped
}

TEST(FuzzLive, TruncatedAndOversizedFramesRejected) {
  // Directly exercise decode paths with boundary sizes.
  for (std::size_t n = 0; n <= tko::kPduHeaderBytes + 4; ++n) {
    std::vector<std::uint8_t> frame(n, 0);
    if (n > 0) frame[0] = 1;  // valid version byte
    const auto r = tko::decode_pdu(tko::Message::from_bytes(frame));
    EXPECT_NE(r.status, tko::DecodeStatus::kOk) << "n=" << n;
  }
  // Declared payload length beyond the actual bytes.
  tko::Pdu p;
  p.type = tko::PduType::kData;
  p.payload = tko::Message::from_bytes(std::vector<std::uint8_t>(64, 1));
  auto wire = tko::encode_pdu(std::move(p), tko::ChecksumKind::kNone,
                              tko::ChecksumPlacement::kTrailer)
                  .linearize();
  wire[18] = 0xFF;  // payload_len high byte
  EXPECT_EQ(tko::decode_pdu(tko::Message::from_bytes(wire)).status,
            tko::DecodeStatus::kMalformed);
}

// --- Fault-plan regression corpus -----------------------------------------
//
// Each tests/corpus/fault_plans/*.txt file holds one hostile or tricky
// plan: `#` lines are commentary, one `# expect: faults=N errors=M` line
// pins the parser's verdict, and the remaining lines are joined with ';'
// into a single plan string. Past parser bugs (the 1e308 time overflow,
// NaN slipping through range checks) live here so they stay fixed.

struct CorpusCase {
  std::string name;
  std::string plan;
  std::size_t expect_faults = 0;
  std::size_t expect_errors = 0;
};

std::vector<CorpusCase> load_fault_plan_corpus() {
  const std::filesystem::path dir =
      std::filesystem::path(ADAPTIVE_TEST_CORPUS_DIR) / "fault_plans";
  std::vector<CorpusCase> cases;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".txt") continue;
    CorpusCase c;
    c.name = entry.path().stem().string();
    std::ifstream in(entry.path());
    bool saw_expect = false;
    std::string line;
    std::string joined;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '#') {
        const auto pos = line.find("expect:");
        if (pos != std::string::npos) {
          std::size_t faults = 0;
          std::size_t errors = 0;
          if (std::sscanf(line.c_str() + pos, "expect: faults=%zu errors=%zu",
                          &faults, &errors) == 2) {
            c.expect_faults = faults;
            c.expect_errors = errors;
            saw_expect = true;
          }
        }
        continue;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (!joined.empty()) joined += ';';
      joined += line;
    }
    EXPECT_TRUE(saw_expect) << c.name << ": missing '# expect: faults=N errors=M'";
    c.plan = std::move(joined);
    cases.push_back(std::move(c));
  }
  EXPECT_FALSE(cases.empty()) << "no corpus files under " << dir;
  return cases;
}

TEST(FaultPlanCorpus, EveryCheckedInPlanParsesToItsPinnedVerdict) {
  for (const auto& c : load_fault_plan_corpus()) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> errors;
    const auto plan = sim::parse_fault_plan(c.plan, &errors);
    EXPECT_EQ(plan.faults.size(), c.expect_faults)
        << "plan: " << c.plan
        << (errors.empty() ? "" : "\nfirst error: " + errors.front());
    EXPECT_EQ(errors.size(), c.expect_errors) << "plan: " << c.plan;
    // Whatever was accepted must carry sane, finite, non-negative times —
    // the 1e308 overflow bug produced a "valid" fault at t = INT64_MIN.
    for (const auto& f : plan.faults) {
      EXPECT_GE(f.at, sim::SimTime::zero()) << f.describe();
      EXPECT_GE(f.duration, sim::SimTime::zero()) << f.describe();
      EXPECT_GE(f.period, sim::SimTime::zero()) << f.describe();
    }
    // describe() on the parsed plan must itself be total.
    (void)plan.describe();
  }
}

TEST(FaultPlanCorpus, ParserIsDeterministicAcrossRepeatedRuns) {
  for (const auto& c : load_fault_plan_corpus()) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> e1;
    std::vector<std::string> e2;
    const auto p1 = sim::parse_fault_plan(c.plan, &e1);
    const auto p2 = sim::parse_fault_plan(c.plan, &e2);
    EXPECT_EQ(p1.describe(), p2.describe());
    EXPECT_EQ(e1, e2);
  }
}

}  // namespace
}  // namespace adaptive
