// Unit tests for the discrete-event kernel: virtual time, scheduler
// ordering/cancellation, timers, allocation-free scheduling, and the
// reproducible RNG.
#include "net/packet.hpp"
#include "os/timer_facility.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "tko/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <vector>

// Every operator new in this binary is counted, so a test can show that a
// code path allocates nothing. Every form is replaced, so no allocation is
// paired with another runtime's deallocation (sanitizers supply their
// own operator new). Out of line, so the compiler never sees free() meet a
// new-expression.
namespace {
std::atomic<std::uint64_t> g_operator_news{0};

[[gnu::noinline]] void* counted_malloc(std::size_t n) noexcept {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { operator delete(p); }

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
  sched.post_at(SimTime::milliseconds(3), [&] { order.push_back(3); });
  sched.post_at(SimTime::milliseconds(1), [&] { order.push_back(1); });
  sched.post_at(SimTime::milliseconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(3));
}

TEST(EventScheduler, FifoWithinSameTimestamp) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.post_at(SimTime::milliseconds(1), [&, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, CancelPreventsExecution) {
  EventScheduler sched;
  bool fired = false;
  Timer t(sched, [&] { fired = true; });
  EXPECT_FALSE(t.pending());
  t.arm_after(SimTime::milliseconds(1));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(sched.pending_events(), 1u);
  t.cancel();
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
  t.cancel();  // idempotent
  sched.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sched.executed_events(), 0u);
}

TEST(EventScheduler, TimerRearmsAndDestructionCancels) {
  EventScheduler sched;
  std::vector<SimTime> fires;
  Timer t(sched, [&] { fires.push_back(sched.now()); });
  t.arm_at(SimTime::milliseconds(10));
  t.arm_at(SimTime::milliseconds(30));  // re-arm: replaces the 10 ms arm
  EXPECT_EQ(sched.pending_events(), 1u);
  {
    Timer doomed(sched, [&] { fires.push_back(SimTime::infinity()); });
    doomed.arm_at(SimTime::milliseconds(20));
    EXPECT_EQ(sched.pending_events(), 2u);
  }
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{SimTime::milliseconds(30)}));
  EXPECT_FALSE(t.pending());
  t.arm_after(SimTime::milliseconds(5));  // a fired timer arms again
  sched.run();
  EXPECT_EQ(fires.back(), SimTime::milliseconds(35));
  EXPECT_EQ(sched.executed_events(), 2u);
}

TEST(EventScheduler, SchedulerOutlivedByTimerAndPosts) {
  // A scheduler destroyed with work pending destroys its posts' callables
  // (what they own is released) and detaches its timers, whose own later
  // destruction then touches nothing.
  auto owned = std::make_shared<int>(7);
  std::unique_ptr<Timer> late;
  {
    EventScheduler sched;
    sched.post_at(SimTime::seconds(5), [owned] { (void)owned; });
    late = std::make_unique<Timer>(sched, [] {});
    late->arm_at(SimTime::seconds(9));
    EXPECT_EQ(owned.use_count(), 2);
  }
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_FALSE(late->pending());
  late.reset();
}

TEST(EventScheduler, RunUntilStopsAndAdvancesClock) {
  EventScheduler sched;
  int count = 0;
  sched.post_at(SimTime::milliseconds(1), [&] { ++count; });
  sched.post_at(SimTime::milliseconds(5), [&] { ++count; });
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
    if (++depth < 10) sched.post_after(SimTime::microseconds(1), recurse);
  };
  sched.post_after(SimTime::microseconds(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), SimTime::microseconds(10));
}

TEST(EventScheduler, CallablesOfEverySizeRunOnceAndAreDestroyed) {
  // Small and big inline classes and the heap fallback for an oversized
  // closure; move-only captures are fine, and each callable is destroyed
  // once, after it ran.
  EventScheduler sched;
  auto token = std::make_shared<int>(0);
  std::vector<int> order;
  struct Big {
    std::array<std::uint8_t, 200> bytes{};
  };
  struct Huge {
    std::array<std::uint8_t, 4096> bytes{};
  };
  sched.post_at(SimTime::nanoseconds(3), [&order, token, u = std::make_unique<int>(1)] {
    order.push_back(*u);
  });
  sched.post_at(SimTime::nanoseconds(2), [&order, token, big = Big{}] {
    order.push_back(2 + big.bytes[0]);
  });
  sched.post_at(SimTime::nanoseconds(1), [&order, token, huge = Huge{}] {
    order.push_back(3 + huge.bytes[0]);
  });
  EXPECT_EQ(token.use_count(), 4);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(token.use_count(), 1);
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
  sched.post_at(SimTime::seconds(3.0), [&] { order.push_back(4); });
  sched.post_at(SimTime::microseconds(50), [&] { order.push_back(1); });
  sched.post_at(SimTime::seconds(20.0), [&] { order.push_back(5); });
  sched.post_at(SimTime::milliseconds(1), [&] { order.push_back(2); });
  sched.post_at(SimTime::milliseconds(100), [&] { order.push_back(3); });
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
  sched.post_at(SimTime::nanoseconds(900), [&] { order.push_back(3); });
  sched.post_at(SimTime::nanoseconds(50), [&] { order.push_back(1); });
  sched.post_at(SimTime::nanoseconds(50), [&] { order.push_back(2); });
  sched.post_at(SimTime::nanoseconds(100), [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_EQ(sched.now(), SimTime::nanoseconds(900));
}

TEST(EventScheduler, RunUntilHonorsSubTickBoundary) {
  // Limit and event sit in the same 1024ns tick: the event at 1000ns must
  // not fire when running until 999ns, and now() must not regress.
  EventScheduler sched;
  bool fired = false;
  sched.post_at(SimTime::nanoseconds(1000), [&] { fired = true; });
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
  sched.post_at(t, [&] { order.push_back(1); });                             // A
  sched.post_at(SimTime::milliseconds(5), [&] {
    sched.post_at(t, [&] { order.push_back(2); });                           // B
    sched.post_at(t - SimTime::nanoseconds(100), [&] { order.push_back(3); });  // C
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(sched.now(), t);
}

TEST(EventScheduler, CancelledFarEventNeverCascades) {
  EventScheduler sched;
  bool far = false, near = false;
  Timer h(sched, [&] { far = true; });
  h.arm_at(SimTime::seconds(30.0));
  sched.post_at(SimTime::milliseconds(1), [&] { near = true; });
  EXPECT_EQ(sched.pending_events(), 2u);
  h.cancel();
  EXPECT_EQ(sched.pending_events(), 1u);  // exact: nothing left to purge
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
      sched.post_after(SimTime::microseconds(2 * delay_us), [&, delay_us] { hop(2 * delay_us); });
    }
  };
  sched.post_after(SimTime::microseconds(1), [&] { hop(1); });
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
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<int> fired;
  for (int i = 0; i < 2000; ++i) {
    const auto when =
        SimTime::nanoseconds(static_cast<std::int64_t>(rng.uniform_int(0, 5'000'000'000)));
    timers.push_back(std::make_unique<Timer>(sched, [&fired, i] { fired.push_back(i); }));
    timers.back()->arm_at(when);
    if (i % 7 != 0) refs.push_back({when.ns(), i});
  }
  for (std::size_t i = 0; i < timers.size(); i += 7) timers[i]->cancel();
  sched.run();
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.when_ns < b.when_ns; });
  ASSERT_EQ(fired.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) EXPECT_EQ(fired[i], refs[i].id);
  EXPECT_EQ(sched.executed_events(), refs.size());
}

/// Drive the wheel and a (when, seq) reference model in lockstep with one
/// random operation stream (seeded by `seed`). Entries are posts, Timers
/// and periodic tko::Events, at same-tick, sub-tick (< 1024 ns),
/// coarse-boundary and multi-level distances. Between partial runs (step()
/// and run_until to random limits) the stream cancels, re-arms and
/// destroys timers and events that are pending, fired or already
/// cancelled. Callbacks schedule children, some as twin timers due at the
/// same instant, the first of which cancels the other; a timer's first
/// callback may re-arm it and then cancel it again; a periodic event
/// re-arms before each callback, and its callback cancels it after one to
/// three expirations.
/// After every operation the fire order, now(), executed_events() and
/// pending_events() must equal the model's.
void check_against_when_seq_model(std::uint64_t seed) {
  enum class Kind { kPost, kTimer, kPeriodic };
  struct Child {
    std::int64_t delay_ns;
    bool timer;
    bool twin;  ///< a second timer at the same instant, cancelled by the first
  };
  constexpr std::int64_t kDelays[] = {0, 1, 1023, 1024, 1025, 4096, 65'537, 3'000'000};
  const auto mix = [](int id) {
    std::uint64_t h = static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  };
  // What event `id` does when it fires: pure functions of the id, so the
  // wheel and the model act identically.
  const auto child_of = [&](int id) -> std::optional<Child> {
    const std::uint64_t h = mix(id);
    if (h % 3 != 0) return std::nullopt;
    return Child{kDelays[(h >> 8) % 8] + static_cast<std::int64_t>((h >> 16) % 7),
                 ((h >> 24) & 1) != 0, ((h >> 25) & 3) == 0};
  };
  const auto rearm_delay = [&](int id) -> std::optional<std::int64_t> {
    const std::uint64_t h = mix(id);
    if (((h >> 32) % 4) != 0) return std::nullopt;
    return kDelays[(h >> 40) % 8] + 1;
  };
  const auto cancels_self = [&](int id) { return ((mix(id) >> 48) % 3) == 0; };
  const auto periodic_lifetime = [&](int id) { return 1 + static_cast<int>((mix(id) >> 52) % 3); };

  struct Model {
    std::map<std::pair<std::int64_t, std::uint64_t>, int> queue;  ///< (when, seq) -> id
    std::map<int, std::pair<std::int64_t, std::uint64_t>> armed;  ///< queued timers/events
    std::map<int, Kind> kind;
    std::map<int, std::int64_t> period;  ///< periodic events still periodic
    std::map<int, int> twin;
    std::map<int, int> fire_count;
    std::set<int> alive;  ///< timers and events not destroyed
    std::uint64_t seq = 0;
    std::int64_t now = 0;
    std::uint64_t executed = 0;
    int next_id = 0;
    std::vector<int> fired;

    void disarm(int id) {
      if (const auto it = armed.find(id); it != armed.end()) {
        queue.erase(it->second);
        armed.erase(it);
      }
    }
    void arm(int id, std::int64_t when) {
      disarm(id);
      queue.emplace(std::make_pair(when, seq), id);
      armed.emplace(id, std::make_pair(when, seq));
      ++seq;
    }
    int add(Kind k, std::int64_t when) {
      const int id = next_id++;
      kind[id] = k;
      if (k == Kind::kPost) {
        queue.emplace(std::make_pair(when, seq++), id);
      } else {
        alive.insert(id);
        arm(id, when);
      }
      return id;
    }
  } model;
  const auto model_fire_next = [&](std::int64_t limit) {
    if (model.queue.empty() || model.queue.begin()->first.first > limit) return false;
    const auto [key, id] = *model.queue.begin();
    model.queue.erase(model.queue.begin());
    model.armed.erase(id);
    model.now = key.first;
    ++model.executed;
    const Kind k = model.kind.at(id);
    if (k == Kind::kPeriodic && model.period.contains(id)) {
      model.arm(id, model.now + model.period.at(id));  // before the callback
    }
    model.fired.push_back(id);
    const int nth = ++model.fire_count[id];
    if (const auto c = child_of(id)) {
      const std::int64_t when = model.now + c->delay_ns;
      const int child = model.add(c->timer ? Kind::kTimer : Kind::kPost, when);
      if (c->timer && c->twin) model.twin[child] = model.add(Kind::kTimer, when);
    }
    if (const auto it = model.twin.find(id); it != model.twin.end() && model.alive.contains(it->second)) {
      model.disarm(it->second);
    }
    if (k == Kind::kTimer && nth == 1) {
      if (const auto d = rearm_delay(id)) {
        model.arm(id, model.now + *d);
        if (cancels_self(id)) model.disarm(id);
      }
    } else if (k == Kind::kPeriodic && nth >= periodic_lifetime(id)) {
      model.disarm(id);
      model.period.erase(id);
    }
    return true;
  };

  EventScheduler sched;
  os::TimerFacility facility(sched);
  std::vector<int> fired;
  std::map<int, std::unique_ptr<Timer>> timers;
  std::map<int, std::unique_ptr<tko::Event>> events;
  std::map<int, int> twin;
  std::map<int, int> fire_count;
  int next_id = 0;
  std::function<void(int)> on_fire;
  const auto new_timer = [&](SimTime when) {
    const int id = next_id++;
    timers[id] = std::make_unique<Timer>(sched, [&on_fire, id] { on_fire(id); });
    timers[id]->arm_at(when);
    return id;
  };
  on_fire = [&](int id) {
    fired.push_back(id);
    const int nth = ++fire_count[id];
    if (const auto c = child_of(id)) {
      const SimTime when = sched.now() + SimTime::nanoseconds(c->delay_ns);
      if (c->timer) {
        const int child = new_timer(when);
        if (c->twin) twin[child] = new_timer(when);
      } else {
        const int child = next_id++;
        sched.post_at(when, [&on_fire, child] { on_fire(child); });
      }
    }
    if (const auto it = twin.find(id); it != twin.end() && timers.contains(it->second)) {
      timers.at(it->second)->cancel();  // a sibling due in this same tick
    }
    if (const auto t = timers.find(id); t != timers.end() && nth == 1) {
      if (const auto d = rearm_delay(id)) {
        t->second->arm_after(SimTime::nanoseconds(*d));
        if (cancels_self(id)) t->second->cancel();
      }
    } else if (const auto e = events.find(id); e != events.end() && nth >= periodic_lifetime(id)) {
      e->second->cancel();
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
  // Any timer or event ever created and not destroyed, or -1.
  const auto random_alive = [&]() {
    if (model.alive.empty()) return -1;
    auto it = model.alive.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_int(0, model.alive.size() - 1)));
    return *it;
  };
  const auto pending = [&](int id) {
    return timers.contains(id) ? timers.at(id)->pending() : events.at(id)->pending();
  };

  for (int op = 0; op < 10000; ++op) {
    const auto kind = rng.uniform_int(0, 99);
    if (kind < 22) {
      const std::int64_t when = random_when();
      const int id = new_timer(SimTime::nanoseconds(when));
      EXPECT_EQ(model.add(Kind::kTimer, when), id);
    } else if (kind < 40) {
      const std::int64_t when = random_when();
      const int id = next_id++;
      sched.post_at(SimTime::nanoseconds(when), [&on_fire, id] { on_fire(id); });
      EXPECT_EQ(model.add(Kind::kPost, when), id);
    } else if (kind < 44) {
      const std::int64_t period = 1 + random_delay() % 3'000'000;
      const int id = next_id++;
      events[id] = std::make_unique<tko::Event>(facility, [&on_fire, id] { on_fire(id); });
      events[id]->schedule_periodic(SimTime::nanoseconds(period));
      EXPECT_EQ(model.add(Kind::kPeriodic, sched.now().ns() + period), id);
      model.period[id] = period;
    } else if (kind < 52) {
      // Cancel: pending, fired or already cancelled.
      const int id = random_alive();
      if (id < 0) continue;
      EXPECT_EQ(pending(id), model.armed.contains(id)) << "id " << id;
      if (timers.contains(id)) {
        timers.at(id)->cancel();
      } else {
        events.at(id)->cancel();
        model.period.erase(id);
      }
      EXPECT_FALSE(pending(id));
      model.disarm(id);
    } else if (kind < 58) {
      // Re-arm (a periodic event becomes one-shot) at a new time.
      const int id = random_alive();
      if (id < 0) continue;
      const std::int64_t when = random_when();
      if (timers.contains(id)) {
        timers.at(id)->arm_at(SimTime::nanoseconds(when));
      } else {
        events.at(id)->schedule(SimTime::nanoseconds(when) - sched.now());
        model.period.erase(id);
      }
      model.arm(id, when);
    } else if (kind < 62) {
      // Destroy, pending or not.
      const int id = random_alive();
      if (id < 0) continue;
      timers.erase(id);
      events.erase(id);
      model.disarm(id);
      model.alive.erase(id);
      model.period.erase(id);
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
    ASSERT_EQ(sched.pending_events(), model.queue.size()) << "after op " << op;
  }
  // Periodic events never drain: stop them, then run the rest out.
  for (auto& [id, e] : events) e->cancel();
  for (const auto& [id, e] : events) model.disarm(id);
  model.period.clear();
  std::size_t expect = 0;
  while (model_fire_next(std::numeric_limits<std::int64_t>::max())) ++expect;
  EXPECT_EQ(sched.run(), expect);
  EXPECT_EQ(fired, model.fired);
  EXPECT_EQ(sched.now().ns(), model.now);
  EXPECT_EQ(sched.executed_events(), model.executed);
  EXPECT_EQ(sched.pending_events(), 0u);
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
  // step() over a wheel whose only entry was a cancelled far-future timer
  // must neither fire nor move the clock; events scheduled afterwards
  // fire in order.
  EventScheduler sched;
  std::vector<int> fired;
  Timer far(sched, [&fired] { fired.push_back(9); });
  far.arm_at(SimTime::seconds(9));
  far.cancel();
  EXPECT_FALSE(sched.step());
  EXPECT_EQ(sched.now(), SimTime::zero());
  Timer two(sched, [&fired] { fired.push_back(2); });
  two.arm_at(SimTime::milliseconds(2));
  sched.post_at(SimTime::milliseconds(1), [&fired] { fired.push_back(1); });
  EXPECT_EQ(sched.run_until(SimTime::milliseconds(5)), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), SimTime::milliseconds(5));
  EXPECT_EQ(sched.executed_events(), 2u);
}

TEST(EventScheduler, RejectsPastScheduling) {
  EventScheduler sched;
  sched.post_at(SimTime::milliseconds(5), [] {});
  sched.run();
  EXPECT_THROW(sched.post_at(SimTime::milliseconds(1), [] {}), std::invalid_argument);
  Timer t(sched, [] {});
  EXPECT_THROW(t.arm_at(SimTime::milliseconds(1)), std::invalid_argument);
  EXPECT_FALSE(t.pending());
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(EventScheduler, SteadyStateSchedulingAllocatesNothing) {
  // After warm-up, posting and firing a closure that captures a
  // net::Packet, posting and firing a small closure, and arming,
  // cancelling and re-arming a timer cost no operator new at all.
  EventScheduler sched;
  net::Packet slot;
  slot.payload = tko::Message::filled(1000, 0xAB);
  std::uint64_t small_fires = 0;
  std::uint64_t timer_fires = 0;
  Timer timer(sched, [&timer_fires] { ++timer_fires; });
  const auto cycle = [&] {
    sched.post_after(SimTime::nanoseconds(700), [&slot, p = std::move(slot)]() mutable {
      slot = std::move(p);
    });
    sched.post_after(SimTime::microseconds(3), [&small_fires] { ++small_fires; });
    timer.arm_after(SimTime::microseconds(50));
    timer.cancel();
    timer.arm_after(SimTime::microseconds(2));
    sched.run();
  };
  for (int i = 0; i < 100; ++i) cycle();
  const std::uint64_t control = g_operator_news.load();
  EXPECT_EQ(*std::make_unique<int>(7), 7);
  ASSERT_EQ(g_operator_news.load() - control, 1u);  // the counter sees operator new
  const std::uint64_t before = g_operator_news.load();
  for (int i = 0; i < 10'000; ++i) cycle();
  EXPECT_EQ(g_operator_news.load() - before, 0u);
  EXPECT_EQ(slot.payload.size(), 1000u);
  EXPECT_EQ(small_fires, 10'100u);
  EXPECT_EQ(timer_fires, 10'100u);
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

}  // namespace
}  // namespace adaptive::sim
