// Deterministic discrete-event scheduler — the heart of the simulated
// substrate everything else (network, OS, protocol timers) runs on.
//
// Events fire in (time, insertion-sequence) order, which makes every run
// bit-reproducible for a given seed. Handles returned by `schedule` allow
// cancellation (used heavily by retransmission timers).
//
// Internally the scheduler is a hierarchical timer wheel (DESIGN §13), not
// a binary heap: time is divided into 1024 ns ticks, and each of nine
// levels covers successively coarser 64-slot digit positions of the tick
// value (64^9 ticks spans every representable SimTime). An event lands at
// the level of the highest 6-bit digit in which its tick differs from the
// wheel cursor, so insertion is O(1); servicing advances the cursor to the
// earliest occupied slot (found via per-level occupancy bitmaps) and
// cascades coarse slots downward, each entry falling to a strictly lower
// level until same-tick events coalesce in a level-0 slot. The pumped
// path — dense event tracks near the cursor, the common case for protocol
// timers and back-to-back packet events — is O(1) per event, where the
// heap paid O(log n) twice.
//
// Invariants (the correctness spine of the wheel):
//   * cursor_tick_ never exceeds the minimum pending tick, and only moves
//     back (to now()) when the wheel is empty;
//   * every pending entry at level L agrees with the cursor in all digits
//     above L, so its slot alone determines its absolute tick range;
//   * a level-0 slot therefore holds exactly one tick value — same-tick
//     coalescing falls out of the level rule rather than being a special
//     case.
#pragma once

#include "sim/time.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace adaptive::sim {

class EventScheduler;

/// Cancellation handle for a scheduled event. Copyable; cancelling any copy
/// cancels the event. A default-constructed handle refers to nothing.
class EventHandle {
public:
  EventHandle() = default;

  /// Cancel the event if it has not yet fired. Safe to call repeatedly.
  void cancel();

  /// True if the event is still waiting to fire.
  [[nodiscard]] bool pending() const;

private:
  friend class EventScheduler;
  struct State {
    bool cancelled = false;
    bool fired = false;
  };
  explicit EventHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

class EventScheduler {
public:
  using Callback = std::function<void()>;

  EventScheduler() = default;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` to run at absolute time `when` (must be >= now()).
  EventHandle schedule_at(SimTime when, Callback cb);

  /// Schedule `cb` to run `delay` after now().
  EventHandle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Fire-and-forget variants: no cancellation handle, so no handle-state
  /// allocation per event. The per-packet datapath events (link tx and
  /// propagation, node processing, CPU work completion) are never
  /// cancelled — they dominate event volume, and the handle allocation
  /// was pure overhead for them. Ordering is identical to schedule_at
  /// (same (when, seq) sequence space).
  void post_at(SimTime when, Callback cb);
  void post_after(SimTime delay, Callback cb) { post_at(now_ + delay, std::move(cb)); }

  /// Run events until the queue drains or `until` is reached, whichever
  /// comes first. Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Run events until the queue drains.
  std::size_t run();

  /// Execute at most one event; returns false if queue is empty.
  bool step();

  /// Number of events waiting (including cancelled ones not yet removed).
  [[nodiscard]] std::size_t pending_events() const { return pending_; }

  /// Total events executed since construction (excludes cancelled).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Callback cb;
    std::shared_ptr<EventHandle::State> state;  ///< null for post_at events
  };

  static constexpr int kTickShift = 10;  ///< 1024 ns per wheel tick
  static constexpr int kSlotBits = 6;    ///< 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 9;  ///< 64^9 ticks > any representable time

  [[nodiscard]] static std::uint64_t tick_of(SimTime t) {
    return static_cast<std::uint64_t>(t.ns()) >> kTickShift;
  }
  [[nodiscard]] std::vector<Entry>& slot(int level, int idx) {
    return slots_[static_cast<std::size_t>(level) * kSlots + static_cast<std::size_t>(idx)];
  }

  /// File an entry at the level of the highest digit where its tick
  /// differs from the cursor. O(1).
  void insert(Entry&& e);

  /// Locate the occupied slot with the smallest possible tick; ties
  /// between levels go to the coarser one so its entries cascade down
  /// before the finer slot is serviced (preserves (when, seq) order for
  /// same-tick events inserted under different cursors).
  bool min_slot(int& level, int& idx, std::uint64_t& start) const;

  /// Fire the single earliest eligible event (when <= limit). Cascades
  /// coarse slots and purges cancelled entries as they are encountered.
  /// Returns false when the wheel is empty or nothing is eligible.
  bool fire_next(SimTime limit);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  /// Wheel position in ticks; always <= the minimum pending entry's tick,
  /// and <= tick_of(now()) between calls.
  std::uint64_t cursor_tick_ = 0;
  std::array<std::uint64_t, kLevels> occupied_{};  ///< per-level slot bitmaps
  std::array<std::vector<Entry>, static_cast<std::size_t>(kLevels) * kSlots> slots_;
};

}  // namespace adaptive::sim
