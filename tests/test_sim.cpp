// Unit tests for the discrete-event kernel: virtual time, scheduler
// ordering/cancellation, and the reproducible RNG.
#include "sim/event_scheduler.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

namespace adaptive::sim {
namespace {

TEST(SimTime, ConstructorsAndAccessors) {
  EXPECT_EQ(SimTime::microseconds(3).ns(), 3'000);
  EXPECT_EQ(SimTime::milliseconds(2).ns(), 2'000'000);
  EXPECT_EQ(SimTime::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(SimTime::milliseconds(250).sec(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::microseconds(1500).ms(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const auto a = SimTime::milliseconds(10);
  const auto b = SimTime::milliseconds(3);
  EXPECT_EQ((a + b).ns(), 13'000'000);
  EXPECT_EQ((a - b).ns(), 7'000'000);
  EXPECT_EQ((b * 4).ns(), 12'000'000);
  EXPECT_EQ((a / 2).ns(), 5'000'000);
  EXPECT_LT(b, a);
  EXPECT_TRUE(SimTime::infinity().is_infinite());
  EXPECT_FALSE(a.is_infinite());
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime::nanoseconds(42).to_string(), "42ns");
  EXPECT_EQ(SimTime::infinity().to_string(), "+inf");
  EXPECT_NE(SimTime::seconds(2.0).to_string().find("s"), std::string::npos);
}

TEST(Rate, TransmissionTime) {
  // 1000 bytes at 10 Mbps = 8000 bits / 1e7 bps = 800 us.
  EXPECT_EQ(Rate::mbps(10).transmission_time(1000).ns(), 800'000);
  EXPECT_EQ(Rate::kbps(64).transmission_time(8).ns(), 1'000'000);
  EXPECT_DOUBLE_EQ(Rate::gbps(1).mbits_per_sec(), 1000.0);
}

TEST(EventScheduler, RunsInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::milliseconds(3), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::milliseconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(3));
}

TEST(EventScheduler, FifoWithinSameTimestamp) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(SimTime::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool fired = false;
  auto h = sched.schedule_after(SimTime::milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.executed_events(), 0u);
}

TEST(EventScheduler, RunUntilStopsAndAdvancesClock) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(SimTime::milliseconds(1), [&] { ++count; });
  sched.schedule_at(SimTime::milliseconds(5), [&] { ++count; });
  const auto n = sched.run_until(SimTime::milliseconds(2));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime::milliseconds(2));
  sched.run();
  EXPECT_EQ(count, 2);
}

TEST(EventScheduler, EventsCanScheduleEvents) {
  EventScheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_after(SimTime::microseconds(1), recurse);
  };
  sched.schedule_after(SimTime::microseconds(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), SimTime::microseconds(10));
}

// ---------------------------------------------------------------------------
// Timer-wheel specifics: the scheduler is a hierarchical wheel (1024ns
// ticks, 64 slots per level), so delays that cross level boundaries must
// cascade down without perturbing (when, seq) order, and sub-tick
// resolution must survive the coarse slotting.
// ---------------------------------------------------------------------------

TEST(EventScheduler, FarFutureCascadesInOrder) {
  EventScheduler sched;
  std::vector<int> order;
  // One event per wheel level, inserted in shuffled order: 50us sits in
  // level 0's span, 1ms in level 1's, 100ms in level 2's, 3s and 20s in
  // level 3's. Each must cascade down to level 0 before firing.
  sched.schedule_at(SimTime::seconds(3.0), [&] { order.push_back(4); });
  sched.schedule_at(SimTime::microseconds(50), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::seconds(20.0), [&] { order.push_back(5); });
  sched.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(2); });
  sched.schedule_at(SimTime::milliseconds(100), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sched.now(), SimTime::seconds(20.0));
  EXPECT_EQ(sched.executed_events(), 5u);
}

TEST(EventScheduler, SubTickTimesOrderWithinOneSlot) {
  // 50ns, 100ns, and 900ns all share wheel tick 0; the slot must still
  // fire them by exact timestamp, with FIFO breaking the 50ns tie.
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(SimTime::nanoseconds(900), [&] { order.push_back(3); });
  sched.schedule_at(SimTime::nanoseconds(50), [&] { order.push_back(1); });
  sched.schedule_at(SimTime::nanoseconds(50), [&] { order.push_back(2); });
  sched.schedule_at(SimTime::nanoseconds(100), [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sched.now(), SimTime::nanoseconds(900));
}

TEST(EventScheduler, RunUntilHonorsSubTickBoundary) {
  // Limit and event sit in the same 1024ns tick: the event at 1000ns must
  // not fire when running until 999ns, and now() must not regress.
  EventScheduler sched;
  bool fired = false;
  sched.schedule_at(SimTime::nanoseconds(1000), [&] { fired = true; });
  EXPECT_EQ(sched.run_until(SimTime::nanoseconds(999)), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.now(), SimTime::nanoseconds(999));
  EXPECT_EQ(sched.run_until(SimTime::nanoseconds(1000)), 1u);
  EXPECT_TRUE(fired);
}

TEST(EventScheduler, SameTickEntriesFiledUnderDifferentCursors) {
  // A lands in tick T while the cursor is at 0 (coarse level); the clock
  // then advances, and B and C join the same tick from a nearer cursor
  // (finer level). Fire order must still be exact (when, seq): C (earlier
  // sub-tick time, latest insertion) first, then A before B (FIFO at the
  // same timestamp) — regardless of which level each entry waited on.
  EventScheduler sched;
  std::vector<int> order;
  const auto t = SimTime::milliseconds(10);
  sched.schedule_at(t, [&] { order.push_back(1); });                             // A
  sched.schedule_at(SimTime::milliseconds(5), [&] {
    sched.schedule_at(t, [&] { order.push_back(2); });                           // B
    sched.schedule_at(t - SimTime::nanoseconds(100), [&] { order.push_back(3); });  // C
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(sched.now(), t);
}

TEST(EventScheduler, CancelledFarEventNeverCascades) {
  EventScheduler sched;
  bool far = false, near = false;
  auto h = sched.schedule_at(SimTime::seconds(30.0), [&] { far = true; });
  sched.schedule_at(SimTime::milliseconds(1), [&] { near = true; });
  EXPECT_EQ(sched.pending_events(), 2u);
  h.cancel();
  sched.run();
  EXPECT_TRUE(near);
  EXPECT_FALSE(far);
  EXPECT_EQ(sched.executed_events(), 1u);
  EXPECT_EQ(sched.pending_events(), 0u);
  // The cancelled 30s entry must not have dragged the clock forward.
  EXPECT_EQ(sched.now(), SimTime::milliseconds(1));
}

TEST(EventScheduler, DoublingDelaysFireAtExactTimes) {
  // Delays 1us, 2us, 4us, ... 2^20 us (~1.05s) walk an event chain up
  // through every wheel level; each hop must land on its exact timestamp.
  EventScheduler sched;
  int hops = 0;
  std::int64_t expect_ns = 0;
  std::function<void(std::int64_t)> hop = [&](std::int64_t delay_us) {
    expect_ns += delay_us * 1000;
    ASSERT_EQ(sched.now().ns(), expect_ns);
    ++hops;
    if (delay_us < (1 << 20)) {
      sched.schedule_after(SimTime::microseconds(2 * delay_us),
                           [&, delay_us] { hop(2 * delay_us); });
    }
  };
  sched.schedule_after(SimTime::microseconds(1), [&] { hop(1); });
  sched.run();
  EXPECT_EQ(hops, 21);
}

TEST(EventScheduler, StressMatchesReferenceOrdering) {
  // 2000 events over 5 virtual seconds (spanning three wheel levels) with
  // every 7th cancelled: the fire sequence must equal a stable sort of the
  // survivors by timestamp — the heap's contract, kept by the wheel.
  EventScheduler sched;
  Rng rng(42);
  struct Ref {
    std::int64_t when_ns;
    int id;
  };
  std::vector<Ref> refs;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 2000; ++i) {
    const auto when =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 5'000'000'000)));
    auto h = sched.schedule_at(when, [&fired, i] { fired.push_back(i); });
    if (i % 7 == 0) {
      handles.push_back(std::move(h));
    } else {
      refs.push_back({when.ns(), i});
    }
  }
  for (auto& h : handles) h.cancel();
  sched.run();
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.when_ns < b.when_ns; });
  ASSERT_EQ(fired.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) EXPECT_EQ(fired[i], refs[i].id);
  EXPECT_EQ(sched.executed_events(), refs.size());
}

/// Drive the wheel and a (when, seq) reference model in lockstep with one
/// random operation stream (seeded by `seed`): schedule_at and post_at at
/// same-tick, sub-tick (< 1024 ns), coarse-boundary and multi-level
/// distances; events that schedule children from inside their callbacks;
/// cancels of pending, fired and already-cancelled handles between partial
/// runs; step(); run_until to random limits. After every operation the
/// fire order, now() and executed_events() must equal the model's.
void check_against_when_seq_model(std::uint64_t seed) {
  struct Child {
    std::int64_t delay_ns;
    bool cancellable;
  };
  // Whether event `id` spawns a child when it fires, and where: a pure
  // function of the id, so the wheel and the model spawn identically.
  const auto child_of = [](int id) -> std::optional<Child> {
    std::uint64_t h = static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    if (h % 3 != 0) return std::nullopt;
    constexpr std::int64_t kDelays[] = {0, 1, 1023, 1024, 1025, 4096, 65'537, 3'000'000};
    return Child{kDelays[(h >> 8) % 8] + static_cast<std::int64_t>((h >> 16) % 7),
                 ((h >> 24) & 1) != 0};
  };

  struct Model {
    std::map<std::pair<std::int64_t, std::uint64_t>, int> queue;  ///< (when, seq) -> id
    std::map<int, std::pair<std::int64_t, std::uint64_t>> cancellable;  ///< queued handles
    std::uint64_t seq = 0;
    std::int64_t now = 0;
    std::uint64_t executed = 0;
    int next_id = 0;
    std::vector<int> fired;

    int add(std::int64_t when, bool with_handle) {
      const int id = next_id++;
      queue.emplace(std::make_pair(when, seq), id);
      if (with_handle) cancellable.emplace(id, std::make_pair(when, seq));
      ++seq;
      return id;
    }
  } model;
  const auto model_fire_next = [&](std::int64_t limit) {
    if (model.queue.empty() || model.queue.begin()->first.first > limit) return false;
    const auto [key, id] = *model.queue.begin();
    model.queue.erase(model.queue.begin());
    model.cancellable.erase(id);
    model.now = key.first;
    ++model.executed;
    model.fired.push_back(id);
    if (const auto c = child_of(id)) model.add(model.now + c->delay_ns, c->cancellable);
    return true;
  };

  EventScheduler sched;
  std::vector<int> fired;
  std::map<int, EventHandle> handles;
  int next_id = 0;
  std::function<void(int)> on_fire = [&](int id) {
    fired.push_back(id);
    if (const auto c = child_of(id)) {
      const int child = next_id++;
      const SimTime when = sched.now() + SimTime::nanoseconds(c->delay_ns);
      if (c->cancellable) {
        handles[child] = sched.schedule_at(when, [&on_fire, child] { on_fire(child); });
      } else {
        sched.post_at(when, [&on_fire, child] { on_fire(child); });
      }
    }
  };

  Rng rng(seed);
  const auto random_delay = [&rng]() {
    std::uint64_t d = 0;
    switch (rng.uniform_int(0, 5)) {
      case 0: d = 0; break;                                    // same instant
      case 1: d = rng.uniform_int(1, 1023); break;             // sub-tick
      case 2: d = 1024 * rng.uniform_int(0, 3) + rng.uniform_int(0, 2); break;  // tick edges
      case 3: d = rng.uniform_int(0, 64 * 1024); break;        // levels 0-1
      case 4: d = rng.uniform_int(0, 5'000'000); break;        // levels 1-2
      default: d = rng.uniform_int(0, 5'000'000'000); break;   // up to level 3
    }
    return static_cast<std::int64_t>(d);
  };
  // Now plus a random delay, or a time on a coarse wheel boundary (a
  // multiple of 64^k ticks): events filed there from different cursor
  // positions sit in slots of different levels that start at the same tick.
  const auto random_when = [&]() {
    const std::int64_t now = sched.now().ns();
    if (rng.uniform_int(0, 3) != 0) return now + random_delay();
    const std::int64_t unit = std::int64_t{1024} << (6 * rng.uniform_int(1, 3));
    return ((now + unit - 1) / unit + static_cast<std::int64_t>(rng.uniform_int(0, 2))) * unit;
  };

  for (int op = 0; op < 10000; ++op) {
    const auto kind = rng.uniform_int(0, 99);
    if (kind < 30) {
      const std::int64_t when = random_when();
      const int id = next_id++;
      handles[id] = sched.schedule_at(SimTime::nanoseconds(when), [&on_fire, id] { on_fire(id); });
      EXPECT_EQ(model.add(when, true), id);
    } else if (kind < 50) {
      const std::int64_t when = random_when();
      const int id = next_id++;
      sched.post_at(SimTime::nanoseconds(when), [&on_fire, id] { on_fire(id); });
      EXPECT_EQ(model.add(when, false), id);
    } else if (kind < 62) {
      // Cancel any handle ever issued: pending, fired or already cancelled.
      if (handles.empty()) continue;
      auto it = handles.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_int(0, handles.size() - 1)));
      const bool queued = model.cancellable.contains(it->first);
      EXPECT_EQ(it->second.pending(), queued) << "id " << it->first;
      it->second.cancel();
      EXPECT_FALSE(it->second.pending());
      if (queued) {
        model.queue.erase(model.cancellable.at(it->first));
        model.cancellable.erase(it->first);
      }
    } else if (kind < 82) {
      const std::int64_t limit = sched.now().ns() + random_delay();
      std::size_t expect = 0;
      while (model_fire_next(limit)) ++expect;
      model.now = std::max(model.now, limit);
      EXPECT_EQ(sched.run_until(SimTime::nanoseconds(limit)), expect);
    } else {
      const bool expect = model_fire_next(std::numeric_limits<std::int64_t>::max());
      EXPECT_EQ(sched.step(), expect);
    }
    ASSERT_EQ(fired, model.fired) << "after op " << op;
    ASSERT_EQ(sched.now().ns(), model.now) << "after op " << op;
    ASSERT_EQ(sched.executed_events(), model.executed) << "after op " << op;
  }
  std::size_t expect = 0;
  while (model_fire_next(std::numeric_limits<std::int64_t>::max())) ++expect;
  EXPECT_EQ(sched.run(), expect);
  EXPECT_EQ(fired, model.fired);
  EXPECT_EQ(sched.now().ns(), model.now);
  EXPECT_EQ(sched.executed_events(), model.executed);
  EXPECT_GT(model.executed, 5000u);
}

TEST(EventScheduler, RandomOperationsMatchWhenSeqReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    check_against_when_seq_model(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(EventScheduler, DrainingOnlyCancelledEntriesLeavesLaterInsertsInOrder) {
  // step() over a wheel holding nothing but a cancelled far-future entry
  // used to cascade the cursor to that entry's slot while now() stayed
  // put; an event scheduled between now() and the cursor then filed
  // behind it, and run_until re-cascaded its slot forever.
  EventScheduler sched;
  std::vector<int> fired;
  auto far = sched.schedule_at(SimTime::seconds(9), [&fired] { fired.push_back(9); });
  far.cancel();
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.now(), SimTime::zero());
  sched.schedule_at(SimTime::milliseconds(2), [&fired] { fired.push_back(2); });
  sched.post_at(SimTime::milliseconds(1), [&fired] { fired.push_back(1); });
  EXPECT_EQ(sched.run_until(SimTime::milliseconds(5)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(5));
  EXPECT_EQ(sched.executed_events(), 2u);
}

TEST(EventScheduler, RejectsPastScheduling) {
  EventScheduler sched;
  sched.schedule_at(SimTime::milliseconds(5), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(SimTime::milliseconds(1), [] {}), std::invalid_argument);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_EQ(r.uniform_int(5, 5), 5u);
  EXPECT_THROW(r.uniform_int(6, 5), std::invalid_argument);
}

TEST(Rng, BernoulliEdges) {
  Rng r(9);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10'000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, GeometricMean) {
  Rng r(15);
  double sum = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(0.25));
  // mean of geometric (failures before success) = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.15);
  EXPECT_EQ(r.geometric(1.0), 0u);
}

TEST(Rng, ParetoMinimum) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

TEST(Rng, ForkIndependence) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child stream must not replay the parent stream.
  Rng parent2(21);
  (void)parent2.next_u64();  // same position as parent after fork
  EXPECT_NE(child.next_u64(), parent2.next_u64());
}

TEST(Logger, RespectsLevelAndSink) {
  std::vector<std::string> lines;
  Logger::set_sink([&](const std::string& s) { lines.push_back(s); });
  Logger::set_level(LogLevel::kWarn);
  Logger::log(LogLevel::kInfo, SimTime::zero(), "c", "dropped");
  Logger::log(LogLevel::kError, SimTime::milliseconds(1), "c", "kept");
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept"), std::string::npos);
  Logger::set_level(LogLevel::kOff);
  Logger::set_sink(nullptr);
}

}  // namespace
}  // namespace adaptive::sim
