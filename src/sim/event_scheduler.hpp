// Deterministic discrete-event scheduler — the heart of the simulated
// substrate everything else (network, OS, protocol timers) runs on.
//
// Events fire in (time, insertion-sequence) order, which makes every run
// bit-reproducible for a given seed. There are two kinds of entry:
//
//   * posts (`post_at`/`post_after`): fire-and-forget callables. The
//     callable is constructed inside a node drawn from a pool the
//     scheduler owns, so a post allocates nothing once the pool is warm;
//   * timers (`sim::Timer`): a node embedded in the object that arms it.
//     Arming links it with a fresh sequence number, cancelling unlinks it
//     in O(1), destroying it cancels it. Nothing is left behind to purge.
//
// Internally the scheduler is a hierarchical timer wheel (DESIGN §13.2),
// not a binary heap: time is divided into 1024 ns ticks, and each of nine
// levels covers successively coarser 64-slot digit positions of the tick
// value (64^9 ticks spans every representable SimTime). An event lands at
// the level of the highest 6-bit digit in which its tick differs from the
// wheel cursor, so insertion is O(1); servicing advances the cursor to the
// earliest occupied slot (found via per-level occupancy bitmaps) and
// cascades coarse slots downward, each node relinked to a strictly lower
// level until same-tick events coalesce in a level-0 slot. Slots are
// intrusive doubly linked lists, so a cascade moves no entry and no slot
// owns a buffer.
//
// Invariants (the correctness spine of the wheel):
//   * cursor_tick_ never exceeds the minimum pending tick, and never
//     exceeds tick_of(now()) between calls;
//   * every pending entry at level L agrees with the cursor in all digits
//     above L, so its slot alone determines its absolute tick range;
//   * a level-0 slot therefore holds exactly one tick value, and is kept
//     sorted by (when, seq): its head is the next event to fire.
#pragma once

#include "sim/time.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaptive::sim {

class EventScheduler;

namespace detail {

/// Doubly linked list hook. A wheel slot's head is a bare Hook; lists are
/// circular, so an empty slot's head points at itself.
struct Hook {
  Hook* prev = nullptr;  ///< null while a node is not linked
  Hook* next = nullptr;
};

/// One wheel entry: a pooled post or an armed Timer.
struct Node : Hook {
  SimTime when;
  /// 2 x the sequence number, plus 1 for a Timer: ordering by (when, key)
  /// is ordering by (when, seq), and the low bit tells the kinds apart.
  std::uint64_t key = 0;
  /// Fires the entry (`fire`) or, for a post only, just drops it; a post
  /// is then destroyed and its node released.
  void (*run)(EventScheduler&, Node&, bool fire) = nullptr;
};

}  // namespace detail

/// A cancellable timer that lives inside the object arming it: its wheel
/// node is the Timer itself, so arming, cancelling and re-arming allocate
/// nothing. Not copyable or movable — its address is linked into a slot.
/// The scheduler must outlive it; one that dies first detaches every
/// armed timer, so their later destruction touches nothing.
///
/// The expiry action is a small trivially copyable callable — a pointer
/// and an id, typically `[this]` — stored inline, so an idle timer costs
/// 72 bytes and no heap block.
class Timer : private detail::Node {
public:
  template <class F>
  Timer(EventScheduler& sched, F on_fire) : sched_(sched) {
    set_callback(on_fire);
  }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// Arm to fire once at absolute `when` (>= now()). Arming a pending
  /// timer re-arms it: it leaves its slot and takes a new sequence number.
  void arm_at(SimTime when);
  /// Arm to fire once `delay` after now().
  void arm_after(SimTime delay);
  /// Arm to fire every `period` from now on. Each expiry re-arms (taking
  /// a new sequence number) before the action runs, so the action may
  /// cancel or re-arm the timer.
  void arm_every(SimTime period);
  /// Disarm; O(1). Safe to call on a timer that is not pending.
  void cancel();

  /// True while armed and not yet fired.
  [[nodiscard]] bool pending() const { return prev != nullptr; }

  /// Replace the expiry action; a pending timer stays armed.
  template <class F>
  void set_callback(F on_fire) {
    static_assert(std::is_trivially_copyable_v<F> && sizeof(F) <= sizeof(fn_) &&
                      alignof(F) <= alignof(void*),
                  "a Timer action is a small trivially copyable callable, e.g. [this] or "
                  "[this, id]; keep larger state in the owner");
    ::new (static_cast<void*>(fn_)) F(on_fire);
    run = &expire<F>;
  }

private:
  friend class EventScheduler;

  template <class F>
  static void expire(EventScheduler& sched, detail::Node& n, bool fire);

  EventScheduler& sched_;
  SimTime period_;  ///< zero for a one-shot arm
  alignas(void*) std::byte fn_[16];
};

class EventScheduler {
public:
  EventScheduler();
  ~EventScheduler();
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Run `fn` at absolute time `when` (must be >= now()). `fn` is any
  /// move-constructible callable; it is constructed inside a pooled node
  /// whose storage class (kSmallBytes or kBigBytes) is chosen from its
  /// size at compile time. A callable larger than kBigBytes takes one heap
  /// allocation; no datapath closure is that large.
  template <class F>
  void post_at(SimTime when, F&& fn);

  /// Run `fn` `delay` after now().
  template <class F>
  void post_after(SimTime delay, F&& fn) {
    post_at(now_ + delay, std::forward<F>(fn));
  }

  /// Run events until the queue drains or `until` is reached, whichever
  /// comes first. Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Run events until the queue drains.
  std::size_t run();

  /// Execute at most one event; returns false if queue is empty.
  bool step();

  /// Number of events waiting to fire: posts plus armed timers.
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

  /// Total events executed since construction (cancelled timers never
  /// execute).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Inline callable storage of the two post node classes. A closure that
  /// captures a net::Packet (192 bytes) plus a pointer and a counter fits
  /// the big class; a few pointers and ids fit the small one.
  static constexpr std::size_t kSmallBytes = 48;
  static constexpr std::size_t kBigBytes = 208;

private:
  friend class Timer;
  using Node = detail::Node;
  using Hook = detail::Hook;

  static constexpr int kTickShift = 10;  ///< 1024 ns per wheel tick
  static constexpr int kSlotBits = 6;    ///< 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 9;  ///< 64^9 ticks > any representable time
  static constexpr std::uint64_t kTimerKey = 1;  ///< low key bit of a Timer

  /// A post's callable starts right after its node header.
  static constexpr std::size_t kNodeAlign = alignof(Node);
  static_assert(sizeof(Node) % kNodeAlign == 0);

  /// Nodes of one size class: carved from chunks on demand, recycled
  /// through a free list threaded through `Hook::next`.
  struct Pool {
    std::size_t node_bytes = 0;
    Node* free = nullptr;
    std::byte* bump = nullptr;  ///< next never-used node of the last chunk
    std::byte* bump_end = nullptr;
    std::vector<std::unique_ptr<std::byte[]>> chunks;
  };
  static constexpr std::size_t kNodesPerChunk = 256;

  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.ns()) >> kTickShift;
  }
  [[nodiscard]] static void* storage(Node* n) { return reinterpret_cast<std::byte*>(n) + sizeof(Node); }

  /// Invoke (when `fire`) a post's callable, then destroy it and release
  /// its node, also when the callable throws.
  template <class D, std::size_t PoolIndex>
  static void run_post(EventScheduler& sched, Node& n, bool fire) {
    D& fn = *std::launder(static_cast<D*>(storage(&n)));
    struct Done {
      EventScheduler& sched;
      Node& n;
      D& fn;
      ~Done() {
        fn.~D();
        sched.release(PoolIndex, &n);
      }
    } done{sched, n, fn};
    if (fire) fn();
  }

  /// Throws std::invalid_argument naming `who` when `when` < now().
  void check_not_past(SimTime when, const char* who) const;
  [[nodiscard]] Node* acquire(std::size_t pool);
  void release(std::size_t pool, Node* n);
  /// Give `n` the next sequence number and file it in the wheel.
  void enqueue(Node* n, SimTime when, std::uint64_t kind);
  /// File a node at the level of the highest digit where its tick
  /// differs from the cursor. O(1) except in a crowded level-0 slot,
  /// which is kept sorted by (when, seq).
  void insert(Node* n);
  /// Take a linked node out of its slot. O(1).
  void unlink(Node* n);
  void arm(Timer& t, SimTime when);
  void cancel(Timer& t);

  /// Locate the occupied slot with the smallest possible tick; ties
  /// between levels go to the coarser one so its entries cascade down
  /// before the finer slot is serviced (preserves (when, seq) order for
  /// same-tick events inserted under different cursors).
  bool min_slot(int& level, int& idx, std::uint64_t& start) const;

  /// Fire the single earliest eligible event (when <= limit), cascading
  /// coarse slots on the way. Returns false when the wheel is empty or
  /// nothing is eligible.
  bool fire_next(SimTime limit);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  /// Wheel position in ticks; always <= the minimum pending entry's tick,
  /// and <= tick_of(now()) between calls.
  std::uint64_t cursor_tick_ = 0;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< per-level slot bitmaps
  std::array<Hook, static_cast<std::size_t>(kLevels) * kSlots> slots_;
  std::array<Pool, 2> pools_;
};

template <class F>
void EventScheduler::post_at(SimTime when, F&& fn) {
  using D = std::decay_t<F>;
  if constexpr (sizeof(D) > kBigBytes || alignof(D) > kNodeAlign) {
    post_at(when, [heap = std::make_unique<D>(std::forward<F>(fn))]() mutable { (*heap)(); });
  } else {
    constexpr std::size_t pool = sizeof(D) <= kSmallBytes ? 0 : 1;
    check_not_past(when, "post_at");
    Node* n = acquire(pool);
    try {
      ::new (storage(n)) D(std::forward<F>(fn));
    } catch (...) {
      release(pool, n);
      throw;
    }
    n->run = &run_post<D, pool>;
    enqueue(n, when, 0);
  }
}

template <class F>
void Timer::expire(EventScheduler& sched, detail::Node& n, bool fire) {
  if (!fire) return;
  auto& t = static_cast<Timer&>(n);
  if (t.period_ > SimTime::zero()) sched.arm(t, sched.now() + t.period_);
  // The action may re-arm the timer, or destroy its owner: nothing
  // touches the timer after it.
  (*std::launder(reinterpret_cast<F*>(t.fn_)))();
}

inline void Timer::arm_at(SimTime when) {
  period_ = SimTime::zero();
  sched_.arm(*this, when);
}
inline void Timer::arm_after(SimTime delay) { arm_at(sched_.now() + delay); }
inline void Timer::arm_every(SimTime period) {
  period_ = period;
  sched_.arm(*this, sched_.now() + period);
}
inline void Timer::cancel() {
  period_ = SimTime::zero();
  if (pending()) sched_.cancel(*this);
}

}  // namespace adaptive::sim
