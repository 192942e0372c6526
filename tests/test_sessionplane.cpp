// Session-plane test battery (DESIGN §14, ctest label `city`).
//
// Pins the contracts the metro-scale session plane rests on:
//  * SessionTable — O(1) insert/find/erase across shard counts, duplicate
//    ids rejected, tombstone compaction keeps probe chains bounded under
//    open/close churn, and iteration order is a pure function of the
//    operation history (the property sweep byte-identity rests on).
//  * SynthesisKey / SynthesisCache — descriptor quantization coalesces
//    dynamic-state jitter but splits every delta that can change
//    mechanism selection; LRU eviction order is deterministic and pinned.
//  * MANTTS integration — homogeneous opens are served from the cache,
//    a renegotiation (RECONFIG) invalidates the stale derivation so the
//    next identical open re-runs the pipeline, and segues provoked by
//    fault plans do the same while sessions churn around them. A
//    session the transport reaps releases every MANTTS entry it had.
//  * City driver — a 10k-session world swept at jobs=1 and jobs=8 merges
//    byte-identically; a chaos-impaired churn soak tears down to the
//    exact pool baseline with every table slot reaped; the invariant
//    oracle stays clean under a generated chaos plan.
#include "adaptive/city.hpp"
#include "adaptive/scenario.hpp"
#include "adaptive/world.hpp"
#include "mantts/mantts.hpp"
#include "mantts/policy.hpp"
#include "mantts/synthesis_cache.hpp"
#include "net/fault_injector.hpp"
#include "net/topologies.hpp"
#include "sim/chaos.hpp"
#include "sim/fault_plan.hpp"
#include "tko/session_table.hpp"
#include "tko/transport.hpp"
#include "unites/export.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

namespace adaptive {
namespace {

using mantts::Acd;
using mantts::SynthesisCache;
using mantts::SynthesisKey;
using mantts::make_synthesis_key;
using tko::SessionTable;

// ---------------------------------------------------------------------------
// SessionTable: the sharded open-addressed datapath structure.
// ---------------------------------------------------------------------------

std::uint32_t sid(std::uint32_t host, std::uint32_t seq) { return (host << 20) | seq; }

TEST(SessionTable, InsertLookupEraseAcrossShardCounts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                                   std::size_t{64}}) {
    SCOPED_TRACE(shards);
    SessionTable<int> t(shards);
    EXPECT_EQ(t.shard_count(), shards);  // all powers of two already
    EXPECT_TRUE(t.empty());

    // Ids shaped like the transport's (node << 20) | seq.
    constexpr std::uint32_t kHosts = 8, kSeqs = 125;
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      for (std::uint32_t s = 0; s < kSeqs; ++s) {
        t.insert(sid(h, s), std::make_unique<int>(static_cast<int>(h * 1000 + s)));
      }
    }
    EXPECT_EQ(t.size(), kHosts * kSeqs);
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      for (std::uint32_t s = 0; s < kSeqs; ++s) {
        int* v = t.find(sid(h, s));
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, static_cast<int>(h * 1000 + s));
      }
    }
    EXPECT_EQ(t.find(sid(kHosts, 0)), nullptr);

    // A duplicate id is a protocol bug (20-bit sequence wrap onto a live
    // session), not a table miss.
    EXPECT_THROW(t.insert(sid(0, 0), std::make_unique<int>(-1)), std::logic_error);

    // Erase every odd seq; the survivors must stay reachable.
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      for (std::uint32_t s = 1; s < kSeqs; s += 2) EXPECT_TRUE(t.erase(sid(h, s)));
    }
    EXPECT_FALSE(t.erase(sid(0, 1)));  // already gone
    EXPECT_EQ(t.size(), kHosts * ((kSeqs + 1) / 2));
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      EXPECT_EQ(t.find(sid(h, 1)), nullptr);
      ASSERT_NE(t.find(sid(h, 2)), nullptr);
    }

    // take() transfers ownership out of the table.
    auto owned = t.take(sid(3, 4));
    ASSERT_NE(owned, nullptr);
    EXPECT_EQ(*owned, 3004);
    EXPECT_EQ(t.find(sid(3, 4)), nullptr);

    std::size_t visited = 0;
    t.for_each([&](const int&) { ++visited; });
    EXPECT_EQ(visited, t.size());
  }
}

TEST(SessionTable, ChurnCompactsTombstonesAndBoundsProbes) {
  // Single shard concentrates the churn so the compaction path must do
  // the work; the probe bound is the whole point of the structure.
  SessionTable<int> t(1);
  constexpr std::uint32_t kLive = 512;
  std::uint32_t next = 0;
  for (; next < kLive; ++next) t.insert(next, std::make_unique<int>(1));

  for (std::uint32_t cycle = 0; cycle < 20'000; ++cycle) {
    EXPECT_TRUE(t.erase(next - kLive));
    t.insert(next, std::make_unique<int>(1));
    ++next;
  }
  EXPECT_EQ(t.size(), kLive);
  for (std::uint32_t id = next - kLive; id < next; ++id) {
    EXPECT_NE(t.find(id), nullptr);
  }

  const auto& st = t.stats();
  EXPECT_EQ(st.inserts, kLive + 20'000);
  EXPECT_EQ(st.erases, 20'000u);
  // Tombstones piled up and were compacted away — repeatedly.
  EXPECT_GT(st.rehashes, 10u);
  // Open addressing at <= 3/4 load with compaction: probe chains stay
  // far from O(capacity) even after 20k churn cycles.
  EXPECT_LT(st.max_probe, 128u);
  EXPECT_LT(static_cast<double>(st.probe_steps) / static_cast<double>(st.inserts + st.finds),
            4.0);
}

TEST(SessionTable, IterationOrderIsAPureFunctionOfHistory) {
  // Two tables fed the identical operation history must expose the
  // identical for_each order — sweep byte-identity leans on this. Values
  // carry their own id so the visit sequence is observable.
  auto build = [] {
    auto t = std::make_unique<SessionTable<std::uint32_t>>(4);
    for (std::uint32_t h = 0; h < 5; ++h) {
      for (std::uint32_t s = 0; s < 50; ++s) {
        t->insert(sid(h, s), std::make_unique<std::uint32_t>(sid(h, s)));
      }
    }
    for (std::uint32_t h = 0; h < 5; ++h) {
      for (std::uint32_t s = 0; s < 50; s += 3) t->erase(sid(h, s));
    }
    for (std::uint32_t s = 50; s < 70; ++s) {
      t->insert(sid(2, s), std::make_unique<std::uint32_t>(sid(2, s)));
    }
    return t;
  };
  auto collect = [](const SessionTable<std::uint32_t>& t) {
    std::vector<std::uint32_t> order;
    t.for_each([&](const std::uint32_t& id) { order.push_back(id); });
    return order;
  };
  auto a = build();
  auto b = build();
  const auto oa = collect(*a);
  EXPECT_EQ(oa.size(), a->size());
  EXPECT_EQ(oa, collect(*a));  // stable across repeated visits
  EXPECT_EQ(oa, collect(*b));  // identical across identical histories
  EXPECT_EQ(a->stats().rehashes, b->stats().rehashes);
  EXPECT_EQ(a->stats().max_probe, b->stats().max_probe);
}

// ---------------------------------------------------------------------------
// SynthesisKey quantization and SynthesisCache LRU determinism.
// ---------------------------------------------------------------------------

Acd city_acd() {
  Acd acd;
  acd.remotes = {{1, tko::kTransportPort}};
  acd.quantitative.average_throughput = sim::Rate::kbps(64);
  acd.quantitative.peak_throughput = sim::Rate::kbps(64);
  acd.quantitative.duration = sim::SimTime::seconds(2);
  return acd;
}

mantts::NetworkStateDescriptor lan_descriptor() {
  mantts::NetworkStateDescriptor d;
  d.reachable = true;
  d.rtt = sim::SimTime::microseconds(2'200);
  d.bottleneck = sim::Rate::mbps(10);
  d.mtu = 1500;
  d.bit_error_rate = 1e-9;
  d.congestion = 0.05;
  d.recent_loss_rate = 0.0;
  d.route_version = 1;
  return d;
}

TEST(SynthesisKey, QuantizationCoalescesJitterButSplitsDecisions) {
  const Acd acd = city_acd();
  const auto d1 = lan_descriptor();
  const SynthesisKey k1 = make_synthesis_key(acd, d1);

  // Jitter inside the quantization bands: same key.
  auto d2 = d1;
  d2.rtt = sim::SimTime::microseconds(2'900);  // same octave as 2.2ms
  d2.congestion = 0.20;  // still quarter 0
  EXPECT_EQ(make_synthesis_key(acd, d2), k1);

  // Nonzero loss rates inside one decision band coalesce too (exactly
  // zero is its own band: derive_scs treats a lossless path specially).
  auto la = d1, lb = d1;
  la.recent_loss_rate = 0.002;
  lb.recent_loss_rate = 0.009;  // same (0, 0.01) band
  EXPECT_EQ(make_synthesis_key(acd, la), make_synthesis_key(acd, lb));
  EXPECT_NE(make_synthesis_key(acd, la), k1);

  // Deltas that can change mechanism selection: different keys.
  auto cong = d1;
  cong.congestion = 0.30;  // crosses the 0.25 derive_scs threshold
  EXPECT_NE(make_synthesis_key(acd, cong), k1);

  auto mtu = d1;
  mtu.mtu = 9000;
  EXPECT_NE(make_synthesis_key(acd, mtu), k1);

  auto route = d1;
  route.route_version = 2;
  EXPECT_NE(make_synthesis_key(acd, route), k1);

  auto degraded = d1;
  degraded.degraded = true;
  EXPECT_NE(make_synthesis_key(acd, degraded), k1);

  auto lossy = d1;
  lossy.recent_loss_rate = 0.06;  // crosses the 0.05 band
  EXPECT_NE(make_synthesis_key(acd, lossy), k1);

  // The ACD side is an exact fingerprint.
  Acd tighter = acd;
  tighter.quantitative.loss_tolerance = 0.1;
  EXPECT_NE(make_synthesis_key(tighter, d1), k1);

  Acd multi = acd;
  multi.remotes.push_back({2, tko::kTransportPort});
  EXPECT_NE(make_synthesis_key(multi, d1), k1);

  // Remote *addresses* are deliberately excluded: equivalent paths share.
  Acd other_host = acd;
  other_host.remotes = {{7, tko::kTransportPort}};
  EXPECT_EQ(make_synthesis_key(other_host, d1), k1);
}

TEST(SynthesisCache, DeterministicLruEvictionOrderPinned) {
  SynthesisCache cache(4);
  auto key = [](std::uint64_t i) {
    SynthesisKey k;
    k.acd_fnv = i;
    return k;
  };
  const tko::sa::SessionConfig cfg;

  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(cache.lookup(key(i)), nullptr);  // 4 misses
    cache.insert(key(i), mantts::Tsc::kNonRealTimeNonIsochronous, cfg);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.eviction_order(),
            (std::vector<SynthesisKey>{key(1), key(2), key(3), key(4)}));

  // A hit refreshes: k2 moves to most-recent.
  ASSERT_NE(cache.lookup(key(2)), nullptr);
  EXPECT_EQ(cache.eviction_order(),
            (std::vector<SynthesisKey>{key(1), key(3), key(4), key(2)}));

  // Insert at capacity evicts exactly the pinned victim (k1).
  cache.insert(key(5), mantts::Tsc::kNonRealTimeNonIsochronous, cfg);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(key(1)), nullptr);  // miss #5
  EXPECT_EQ(cache.eviction_order(),
            (std::vector<SynthesisKey>{key(3), key(4), key(2), key(5)}));

  // Re-inserting an existing key refreshes it, no eviction.
  cache.insert(key(3), mantts::Tsc::kNonRealTimeNonIsochronous, cfg);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.eviction_order(),
            (std::vector<SynthesisKey>{key(4), key(2), key(5), key(3)}));

  // Invalidation drops the entry exactly once.
  EXPECT_TRUE(cache.invalidate(key(4)));
  EXPECT_FALSE(cache.invalidate(key(4)));
  EXPECT_EQ(cache.eviction_order(),
            (std::vector<SynthesisKey>{key(2), key(5), key(3)}));

  const auto& st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 5u);
  EXPECT_EQ(st.insertions, 6u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.invalidations, 1u);
}

// ---------------------------------------------------------------------------
// MANTTS integration: the cache on the open path, and invalidation.
// ---------------------------------------------------------------------------

Acd implicit_acd(World& world, std::size_t dst) {
  Acd acd = city_acd();
  acd.remotes = {world.transport_address(dst)};
  return acd;
}

tko::TransportSession* open_now(World& world, std::size_t src, const Acd& acd) {
  tko::TransportSession* session = nullptr;
  world.mantts(src).open_session(acd, [&](mantts::MantttsEntity::OpenResult r) {
    ASSERT_FALSE(r.refused);
    session = r.session;
  });
  return session;
}

TEST(SessionPlane, HomogeneousOpensAreServedFromTheCache) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 21); });
  auto& entity = world.mantts(0);
  std::vector<tko::TransportSession*> sessions;

  for (int i = 0; i < 32; ++i) {
    sessions.push_back(open_now(world, 0, implicit_acd(world, 1)));
    ASSERT_NE(sessions.back(), nullptr);
    world.run_for(sim::SimTime::milliseconds(5));
  }
  EXPECT_EQ(entity.synthesis_cache().stats().misses, 1u);
  EXPECT_EQ(entity.synthesis_cache().stats().hits, 31u);
  EXPECT_EQ(entity.synthesis_cache().stats().insertions, 1u);
  EXPECT_GT(entity.synthesis_cache().hit_rate(), 0.9);

  // Heterogeneity shatters exactly per-variant: 4 distinct priority
  // bytes over 8 opens cost 4 misses then hit.
  for (int i = 0; i < 8; ++i) {
    Acd acd = implicit_acd(world, 1);
    acd.qualitative.priority_delivery = true;
    acd.qualitative.priority = static_cast<std::uint8_t>(i % 4);
    sessions.push_back(open_now(world, 0, acd));
    ASSERT_NE(sessions.back(), nullptr);
    world.run_for(sim::SimTime::milliseconds(5));
  }
  EXPECT_EQ(entity.synthesis_cache().stats().misses, 5u);
  EXPECT_EQ(entity.synthesis_cache().stats().hits, 35u);

  for (auto* s : sessions) entity.close_session(*s);
  world.run_for(sim::SimTime::seconds(1));
}

TEST(SessionPlane, ReconfigInvalidatesAndBypassesTheStaleEntry) {
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 2, 22); });
  auto& entity = world.mantts(0);

  tko::TransportSession* s1 = open_now(world, 0, implicit_acd(world, 1));
  tko::TransportSession* s2 = open_now(world, 0, implicit_acd(world, 1));
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(entity.synthesis_cache().stats().misses, 1u);
  EXPECT_EQ(entity.synthesis_cache().stats().hits, 1u);
  world.run_for(sim::SimTime::milliseconds(50));

  // Renegotiate s1: the cached Stage I/II derivation no longer describes
  // what the pipeline would produce, so it must be dropped, not served.
  tko::sa::SessionConfig cfg = s1->config();
  cfg.window_pdus = cfg.window_pdus == 8 ? 16 : 8;
  entity.reconfigure_session(*s1, cfg);
  EXPECT_EQ(entity.synthesis_cache().stats().invalidations, 1u);
  EXPECT_EQ(entity.synthesis_cache().size(), 0u);
  world.run_for(sim::SimTime::milliseconds(200));
  EXPECT_GE(entity.stats().reconfigs_sent, 1u);

  // The next identical open re-runs the pipeline (miss), repopulating.
  tko::TransportSession* s3 = open_now(world, 0, implicit_acd(world, 1));
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(entity.synthesis_cache().stats().misses, 2u);
  EXPECT_EQ(entity.synthesis_cache().stats().insertions, 2u);
  EXPECT_EQ(entity.synthesis_cache().size(), 1u);

  // Clean closes release the per-session key mapping *without* touching
  // the cache — only renegotiation invalidates.
  entity.close_session(*s1);
  entity.close_session(*s2);
  entity.close_session(*s3);
  world.run_for(sim::SimTime::seconds(1));
  EXPECT_EQ(entity.synthesis_cache().stats().invalidations, 1u);
  EXPECT_EQ(entity.synthesis_cache().size(), 1u);
}

TEST(SessionPlane, SegueUnderChurnInvalidatesStaleDerivations) {
  // The PR 2 fault plan (link flaps + a BER burst) drives the policy
  // engine into segues/renegotiations on a long-lived *implicit* session
  // — implicit because max_latency < 3x rtt selects the lightweight
  // connection scheme even for a long session — while identical sessions
  // churn around it. Every renegotiation must invalidate the shared
  // cached derivation; churn opens after the segue re-derive.
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 11); });
  for (std::size_t i = 0; i < world.topology().hosts.size(); ++i) {
    world.transport(i).set_session_reaper(sim::SimTime::milliseconds(20));
  }
  auto& entity = world.mantts(0);
  const auto descriptor = entity.nmi().sample(world.node(1));
  ASSERT_TRUE(descriptor.reachable);

  Acd acd;
  acd.remotes = {world.transport_address(1)};
  acd.quantitative.average_throughput = sim::Rate::kbps(64);
  acd.quantitative.peak_throughput = sim::Rate::kbps(64);
  acd.quantitative.duration = sim::SimTime::seconds(30);  // adaptation-worthy
  acd.quantitative.max_latency = descriptor.rtt * 2;      // forces implicit
  acd.adjustments = mantts::PolicyEngine::fault_recovery_rules();

  // Implicit sessions piggyback the SCS on first data — a session that
  // never sends has no passive mirror to answer its FIN, so every
  // session here carries at least one message (as city sessions do).
  auto send_one = [](tko::TransportSession& s) {
    tko::Message m(s.buffer_pool());
    auto span = m.append_uninit(64);
    std::memset(span.data(), 0x5A, span.size());
    EXPECT_TRUE(s.send(std::move(m)));
  };

  tko::TransportSession* primary = nullptr;
  mantts::MantttsEntity::OpenResult opened;
  entity.open_session(acd, [&](mantts::MantttsEntity::OpenResult r) {
    opened = r;
    primary = r.session;
  });
  ASSERT_NE(primary, nullptr);
  EXPECT_EQ(opened.scs.connection, tko::sa::ConnectionScheme::kImplicit);
  ASSERT_TRUE(entity.adaptation_enabled(primary->id()));
  EXPECT_EQ(entity.synthesis_cache().stats().misses, 1u);
  send_one(*primary);

  net::FaultInjector injector(world.network(), world.topology().scenario_links,
                              world.topology().hosts);
  injector.arm(sim::parse_fault_plan(
      "flap@2+0.3:link=0,count=3,period=1;burst@1+4:link=0,ber=1e-4"));

  // Churn: short-lived sessions open and close around the primary while
  // the plan runs. A short duration keeps them on the implicit path no
  // matter what the fault episodes do to the sampled RTT.
  Acd churn_acd = acd;
  churn_acd.quantitative.duration = sim::SimTime::seconds(2);
  churn_acd.adjustments.clear();
  tko::TransportSession* churn = nullptr;
  for (int i = 0; i < 10; ++i) {
    world.run_for(sim::SimTime::milliseconds(800));
    if (churn != nullptr) entity.close_session(*churn);
    churn = open_now(world, 0, churn_acd);
    ASSERT_NE(churn, nullptr);
    send_one(*churn);
  }
  world.run_for(sim::SimTime::seconds(6));  // recovery window

  const auto& st = entity.stats();
  EXPECT_GE(st.faults_detected, 1u);
  EXPECT_GE(st.reconfigs_sent, 1u);
  // The segue/renegotiation path dropped the stale shared derivation at
  // least once; churn opens after that re-derived (so > 1 total miss).
  EXPECT_GE(entity.synthesis_cache().stats().invalidations, 1u);
  EXPECT_GT(entity.synthesis_cache().stats().misses, 1u);

  entity.close_session(*churn);
  entity.close_session(*primary);
  world.run_for(sim::SimTime::seconds(2));
  EXPECT_EQ(world.transport(0).session_count(), 0u);
  EXPECT_EQ(world.transport(1).session_count(), 0u);
}

TEST(SessionPlane, ReapedSessionsReleaseTheirMantttsState) {
  // Opened through MANTTS with a collector and adaptation, closed through
  // the transport (as run_city closes its sessions), then destroyed by the
  // reaper: the entity's per-session state must go with it. Its collector
  // and adaptation timers used to keep sampling the freed session
  // (heap-use-after-free under ASan), and it counted as active forever.
  World world([](sim::EventScheduler& s) { return net::make_congested_wan(s, 2, 11); });
  for (std::size_t i = 0; i < world.topology().hosts.size(); ++i) {
    world.transport(i).set_session_reaper(sim::SimTime::milliseconds(20));
  }
  auto& entity = world.mantts(0);
  const auto descriptor = entity.nmi().sample(world.node(1));
  ASSERT_TRUE(descriptor.reachable);
  Acd acd;
  acd.remotes = {world.transport_address(1)};
  acd.quantitative.average_throughput = sim::Rate::kbps(64);
  acd.quantitative.peak_throughput = sim::Rate::kbps(64);
  acd.quantitative.duration = sim::SimTime::seconds(30);  // adaptation-worthy
  acd.quantitative.max_latency = descriptor.rtt * 2;      // forces implicit
  acd.collect_metrics = true;
  acd.adjustments = mantts::PolicyEngine::default_rules();

  tko::TransportSession* session = open_now(world, 0, acd);
  ASSERT_NE(session, nullptr);
  const std::uint32_t sid = session->id();
  ASSERT_TRUE(entity.adaptation_enabled(sid));
  EXPECT_EQ(entity.active_sessions(), 1u);
  // One message, so the implicit session has a passive mirror to answer
  // its FIN (see SegueUnderChurnInvalidatesStaleDerivations).
  tko::Message m(session->buffer_pool());
  auto span = m.append_uninit(64);
  std::memset(span.data(), 0x5A, span.size());
  ASSERT_TRUE(session->send(std::move(m)));
  world.run_for(sim::SimTime::milliseconds(300));  // a few samples and ticks

  session->close(/*graceful=*/true);
  session = nullptr;
  world.run_for(sim::SimTime::seconds(1));  // far past the 20 ms linger
  EXPECT_EQ(world.transport(0).sessions_reaped(), 1u);
  EXPECT_EQ(world.transport(0).session_count(), 0u);
  EXPECT_FALSE(entity.adaptation_enabled(sid));
  EXPECT_EQ(entity.active_sessions(), 0u);
  EXPECT_EQ(entity.observed_route_version(sid), 0u);
  EXPECT_EQ(entity.stats().sessions_closed, 0u);  // never through close_session
}

TEST(SessionPlane, SlimSessionBudget) {
  // The mem.bytes_per_session work keeps the fixed per-session footprint
  // bounded: growing TransportSession past this line needs a deliberate
  // decision (and a new pin), not an accidental member.
  EXPECT_LE(sizeof(tko::TransportSession), 1024u);
  EXPECT_LE(sizeof(tko::MessageQueue), 64u);
}

// ---------------------------------------------------------------------------
// City driver: sweep byte-identity and the chaos churn soak.
// ---------------------------------------------------------------------------

TEST(CitySweep, JobsOneAndEightMergeByteIdentically) {
  // A 10k-session world (5000 driver opens = ~10k transport sessions at
  // the mid-hold plateau) swept over two seeds: jobs=1 and jobs=8 must
  // produce the same merged bytes — trace digest, canonical metrics
  // export, and every per-run outcome.
  CityOptions base;
  base.sessions = 5'000;
  base.churn_cycles = 500;
  base.messages_per_session = 2;
  // 5000 opens' first messages + churn must clear the per-host 10 Mb/s
  // star links before the mid-hold sample, or the plateau undercounts.
  base.ramp = sim::SimTime::seconds(2);
  base.hold = sim::SimTime::seconds(2);
  base.drain = sim::SimTime::seconds(2);
  const auto seeds = sweep_seeds({}, 2, 3);

  const auto serial = run_city_sweep(base, seeds, 1, /*capture_trace=*/true);
  const auto parallel = run_city_sweep(base, seeds, 8, /*capture_trace=*/true);

  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
  EXPECT_EQ(serial.trace_events_emitted, parallel.trace_events_emitted);
  std::ostringstream ja, jb;
  unites::write_metrics_jsonl(ja, serial.merged);
  unites::write_metrics_jsonl(jb, parallel.merged);
  EXPECT_EQ(ja.str(), jb.str());

  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    SCOPED_TRACE(i);
    const CityOutcome& a = serial.runs[i];
    const CityOutcome& b = parallel.runs[i];
    EXPECT_GE(a.peak_transport_sessions, 9'900u);
    EXPECT_EQ(a.opened, b.opened);
    EXPECT_EQ(a.refused, 0u);
    EXPECT_EQ(a.messages_delivered, b.messages_delivered);
    EXPECT_EQ(a.cache.hits, b.cache.hits);
    EXPECT_EQ(a.cache.misses, b.cache.misses);
    EXPECT_EQ(a.table.inserts, b.table.inserts);
    EXPECT_EQ(a.table.max_probe, b.table.max_probe);
    EXPECT_EQ(a.residual_sessions, b.residual_sessions);
    EXPECT_EQ(a.pool_live_bytes_final, b.pool_live_bytes_final);
  }
}

TEST(CitySoak, ChurnUnderChaosTearsDownToTheExactBaseline) {
  // Open/close churn with a generated chaos plan active: whatever the
  // nemesis does to the links, teardown must return the world to its
  // exact resource baseline — every pinned payload byte released, every
  // table slot reaped.
  CityOptions opt;
  opt.sessions = 1'500;
  opt.churn_cycles = 600;
  opt.messages_per_session = 1;
  opt.ramp = sim::SimTime::seconds(2);
  opt.hold = sim::SimTime::seconds(2);
  opt.drain = sim::SimTime::seconds(4);
  opt.seed = 5;

  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, 5); },
              os::CpuConfig{}, city_limits(opt));

  sim::ChaosProfile prof;
  prof.link_count = world.topology().scenario_links.size();
  prof.horizon_sec = 4.0;  // faults end before the drain starts
  prof.min_faults = 2;
  prof.max_faults = 4;
  prof.max_outage_sec = 0.5;
  opt.faults = sim::ChaosPlanGenerator(prof).generate(opt.seed);

  const auto baseline = world.resource_snapshot();
  const CityOutcome out = run_city(world, opt);

  EXPECT_EQ(out.opened, opt.sessions + opt.churn_cycles);
  EXPECT_EQ(out.refused, 0u);
  EXPECT_GT(out.messages_delivered, 0u);
  EXPECT_LE(out.messages_delivered, out.messages_sent);

  // The invariants the soak exists for: mem.live_bytes back to baseline,
  // zero residual table slots, both endpoints of every open reaped.
  EXPECT_EQ(out.residual_sessions, 0u);
  EXPECT_EQ(out.pool_live_bytes_final, out.pool_live_bytes_baseline);
  EXPECT_EQ(out.reaped, 2 * out.opened);
  auto pool_live = [](const unites::ResourceSnapshot& snap) {
    std::uint64_t sum = 0;
    for (const auto& h : snap.hosts) sum += h.pool.live_bytes;
    return sum;
  };
  const auto after = world.resource_snapshot();
  EXPECT_EQ(pool_live(after), pool_live(baseline));
  EXPECT_EQ(after.sessions.size(), 0u);
}

TEST(CitySoak, InvariantOracleStaysCleanUnderAChaosPlan) {
  // The delivery-invariant oracle (PR 5) applied to an adaptive session
  // impaired by the same generator the soak uses: reliable-class bytes
  // arrive exactly once, in order, with recovery closing out.
  World world([](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, 17); });

  RunOptions opt;
  opt.application = app::Table1App::kFileTransfer;
  opt.mode = RunOptions::Mode::kMantttsAdaptive;
  opt.rules = mantts::PolicyEngine::fault_recovery_rules();
  opt.scale = 0.35;
  opt.duration = sim::SimTime::seconds(8);
  opt.drain = sim::SimTime::seconds(12);
  opt.seed = 17;
  const sim::ChaosProfile prof = size_chaos_profile({}, world, opt, 4);
  opt.faults = sim::ChaosPlanGenerator(prof).generate(opt.seed);

  const RunOutcome out = run_scenario(world, opt);
  EXPECT_TRUE(out.oracle.ok()) << out.oracle.describe();
  EXPECT_EQ(out.sink.bytes_received, out.source.bytes_sent);
  EXPECT_EQ(out.sink.duplicates, 0u);
}

}  // namespace
}  // namespace adaptive
