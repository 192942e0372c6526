#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace adaptive::sim {

std::string SimTime::to_string() const {
  char buf[64];
  if (is_infinite()) return "+inf";
  if (ns_ >= 1'000'000'000 || ns_ <= -1'000'000'000) {
    std::snprintf(buf, sizeof buf, "%.6fs", sec());
  } else if (ns_ >= 1'000'000 || ns_ <= -1'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fms", ms());
  } else {
    std::snprintf(buf, sizeof buf, "%ldns", static_cast<long>(ns_));
  }
  return buf;
}

void EventHandle::cancel() {
  if (state_) state_->cancelled = true;
}

bool EventHandle::pending() const {
  return state_ && !state_->cancelled && !state_->fired;
}

EventHandle EventScheduler::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("EventScheduler::schedule_at: time " + when.to_string() +
                                " is in the past (now=" + now_.to_string() + ")");
  }
  auto state = std::make_shared<EventHandle::State>();
  insert(Entry{when, next_seq_++, std::move(cb), state});
  ++pending_;
  return EventHandle(std::move(state));
}

void EventScheduler::post_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("EventScheduler::post_at: time " + when.to_string() +
                                " is in the past (now=" + now_.to_string() + ")");
  }
  insert(Entry{when, next_seq_++, std::move(cb), nullptr});
  ++pending_;
}

void EventScheduler::insert(Entry&& e) {
  const std::uint64_t tick = tick_of(e.when);
  // when >= now_ and cursor_tick_ <= tick_of(now_) (the cursor only ever
  // advances to slot starts at or below the minimum pending tick), so
  // tick >= cursor_tick_ and the digit rule below is well defined.
  const std::uint64_t differ = tick ^ cursor_tick_;
  const int level = differ == 0 ? 0 : (std::bit_width(differ) - 1) / kSlotBits;
  const int idx = static_cast<int>((tick >> (level * kSlotBits)) & (kSlots - 1));
  slot(level, idx).push_back(std::move(e));
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
}

bool EventScheduler::min_slot(int& level, int& idx, std::uint64_t& start) const {
  bool found = false;
  for (int l = 0; l < kLevels; ++l) {
    const std::uint64_t bits = occupied_[static_cast<std::size_t>(l)];
    if (bits == 0) continue;
    // Occupied slots never sit below the cursor's digit at their level
    // (such a slot would have become the minimum — and been serviced —
    // before the cursor's digit passed it), so the lowest set bit is the
    // earliest slot outright; no circular scan.
    const int j = std::countr_zero(bits);
    const int above = (l + 1) * kSlotBits;
    const std::uint64_t base = (cursor_tick_ >> above) << above;
    const std::uint64_t s = base + (static_cast<std::uint64_t>(j) << (l * kSlotBits));
    // `>=` on ties: the coarser slot cascades first, so same-tick entries
    // filed under an older cursor keep their insertion-sequence rank.
    if (!found || s < start || (s == start && l > level)) {
      found = true;
      level = l;
      idx = j;
      start = s;
    }
  }
  return found;
}

bool EventScheduler::fire_next(SimTime limit) {
  while (true) {
    int level = 0;
    int idx = 0;
    std::uint64_t start = 0;
    if (!min_slot(level, idx, start)) {
      // Empty wheel. Cascading slots that held only cancelled entries can
      // leave the cursor past now() (step()/run() have no limit to stop
      // them); a later insert between now() and the cursor would then file
      // behind it. No entry depends on the cursor any more, so pull it
      // back to the clock.
      cursor_tick_ = std::min(cursor_tick_, tick_of(now_));
      return false;
    }
    // `start` lower-bounds every pending event's time. Stop — without
    // advancing the cursor — when even that bound lies past the limit;
    // advancing here would let a later schedule_at land behind the cursor.
    if (static_cast<std::int64_t>(start << kTickShift) > limit.ns()) return false;

    if (level > 0) {
      // Cascade: adopt the slot's start as the new cursor and re-home its
      // entries. Each now agrees with the cursor at this digit, so each
      // re-files at a strictly lower level — the loop terminates.
      auto entries = std::move(slot(level, idx));
      slot(level, idx).clear();
      occupied_[static_cast<std::size_t>(level)] &= ~(std::uint64_t{1} << idx);
      if (start > cursor_tick_) cursor_tick_ = start;
      for (auto& e : entries) {
        if (e.state && e.state->cancelled) {
          --pending_;  // removed when encountered, never executed
          continue;
        }
        insert(std::move(e));
      }
      continue;
    }

    auto& sv = slot(0, idx);
    // Purge cancelled entries as they are encountered; pending_ counts
    // them until then.
    std::size_t k = 0;
    while (k < sv.size()) {
      if (sv[k].state && sv[k].state->cancelled) {
        --pending_;
        sv[k] = std::move(sv.back());
        sv.pop_back();
      } else {
        ++k;
      }
    }
    if (sv.empty()) {
      occupied_[0] &= ~(std::uint64_t{1} << idx);
      continue;
    }
    // A level-0 slot holds exactly one tick; select the earliest (when,
    // seq) within it. One-entry slots — the pumped common case — are O(1).
    std::size_t best = 0;
    for (std::size_t i = 1; i < sv.size(); ++i) {
      if (sv[i].when < sv[best].when ||
          (sv[i].when == sv[best].when && sv[i].seq < sv[best].seq)) {
        best = i;
      }
    }
    if (sv[best].when > limit) return false;  // sub-tick limit boundary
    Entry e = std::move(sv[best]);
    sv[best] = std::move(sv.back());
    sv.pop_back();
    if (sv.empty()) occupied_[0] &= ~(std::uint64_t{1} << idx);
    if (start > cursor_tick_) cursor_tick_ = start;
    --pending_;
    now_ = e.when;
    if (e.state) e.state->fired = true;
    ++executed_;
    e.cb();  // may re-enter schedule_at; all slot references are dead here
    return true;
  }
}

bool EventScheduler::step() { return fire_next(SimTime::infinity()); }

std::size_t EventScheduler::run_until(SimTime until) {
  std::size_t n = 0;
  while (fire_next(until)) ++n;
  if (now_ < until) now_ = until;
  return n;
}

std::size_t EventScheduler::run() {
  std::size_t n = 0;
  while (fire_next(SimTime::infinity())) ++n;
  return n;
}

}  // namespace adaptive::sim
