#include "sim/event_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

// Pooled nodes are invisible to AddressSanitizer once released: the
// memory stays allocated. Poisoning a released node (and a chunk's
// never-used tail) makes a callback or timer that touches it a reported
// use-after-poison instead of silent reuse.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define ADAPTIVE_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define ADAPTIVE_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define ADAPTIVE_POISON(p, n) ((void)(p), (void)(n))
#define ADAPTIVE_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

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

EventScheduler::EventScheduler() {
  for (auto& head : slots_) head.prev = head.next = &head;
  pools_[0].node_bytes = sizeof(Node) + kSmallBytes;
  pools_[1].node_bytes = sizeof(Node) + kBigBytes;
}

EventScheduler::~EventScheduler() {
  // Detach every timer before destroying any posted callable: a closure
  // may own (through a packet, a buffer or a session) an object whose
  // timer would otherwise unlink itself from a slot being walked here.
  Node* posts = nullptr;
  for (auto& head : slots_) {
    for (Hook* h = head.next; h != &head;) {
      Node* n = static_cast<Node*>(h);
      h = h->next;
      n->prev = n->next = nullptr;
      if ((n->key & kTimerKey) == 0) {
        n->next = posts;
        posts = n;
      }
    }
    head.prev = head.next = &head;
  }
  while (posts != nullptr) {
    Node* n = posts;
    posts = static_cast<Node*>(n->next);
    n->run(*this, *n, /*fire=*/false);
  }
  for (auto& pool : pools_) {
    const std::size_t bytes = kNodesPerChunk * pool.node_bytes;
    for (auto& chunk : pool.chunks) ADAPTIVE_UNPOISON(chunk.get(), bytes);
  }
}

void EventScheduler::check_not_past(SimTime when, const char* who) const {
  if (when < now_) {
    throw std::invalid_argument(std::string("EventScheduler::") + who + ": time " +
                                when.to_string() + " is in the past (now=" + now_.to_string() +
                                ")");
  }
}

EventScheduler::Node* EventScheduler::acquire(std::size_t pool_index) {
  Pool& pool = pools_[pool_index];
  if (Node* n = pool.free) {
    ADAPTIVE_UNPOISON(n, pool.node_bytes);
    pool.free = static_cast<Node*>(n->next);
    return n;
  }
  if (pool.bump == pool.bump_end) {
    // No chunk exists before the first post, so building a World costs
    // nothing here; chunks are not zero-filled.
    const std::size_t bytes = kNodesPerChunk * pool.node_bytes;
    pool.chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
    pool.bump = pool.chunks.back().get();
    pool.bump_end = pool.bump + bytes;
    ADAPTIVE_POISON(pool.bump, bytes);
  }
  ADAPTIVE_UNPOISON(pool.bump, pool.node_bytes);
  Node* n = ::new (pool.bump) Node;
  pool.bump += pool.node_bytes;
  return n;
}

void EventScheduler::release(std::size_t pool_index, Node* n) {
  Pool& pool = pools_[pool_index];
  n->prev = nullptr;
  n->next = pool.free;
  pool.free = n;
  ADAPTIVE_POISON(n, pool.node_bytes);
}

void EventScheduler::enqueue(Node* n, SimTime when, std::uint64_t kind) {
  n->when = when;
  n->key = (next_seq_++ << 1) | kind;
  insert(n);
  ++pending_;
}

void EventScheduler::insert(Node* n) {
  const std::uint64_t tick = tick_of(n->when);
  // when >= now_ and cursor_tick_ <= tick_of(now_) (the cursor only ever
  // advances to slot starts at or below the minimum pending tick), so
  // tick >= cursor_tick_ and the digit rule below is well defined.
  const std::uint64_t differ = tick ^ cursor_tick_;
  const int level = differ == 0 ? 0 : (std::bit_width(differ) - 1) / kSlotBits;
  const int idx = static_cast<int>((tick >> (level * kSlotBits)) & (kSlots - 1));
  Hook& head = slots_[static_cast<std::size_t>(level) * kSlots + static_cast<std::size_t>(idx)];
  Hook* at = head.prev;
  if (level == 0) {
    // One tick per level-0 slot: keep it sorted by (when, seq), walking
    // from the tail, where a fresh sequence number almost always belongs.
    while (at != &head) {
      const Node* o = static_cast<const Node*>(at);
      if (o->when < n->when || (o->when == n->when && o->key < n->key)) break;
      at = at->prev;
    }
  }
  n->prev = at;
  n->next = at->next;
  at->next->prev = n;
  at->next = n;
  occupied_[static_cast<std::size_t>(level)] |= std::uint64_t{1} << idx;
}

void EventScheduler::unlink(Node* n) {
  n->prev->next = n->next;
  n->next->prev = n->prev;
  // A circular list's only remaining member is its head: the slot is
  // empty, and the head's place in slots_ names it.
  if (n->prev == n->next) {
    const auto s = static_cast<std::size_t>(n->prev - slots_.data());
    occupied_[s / kSlots] &= ~(std::uint64_t{1} << (s % kSlots));
  }
  n->prev = n->next = nullptr;
}

void EventScheduler::arm(Timer& t, SimTime when) {
  check_not_past(when, "Timer::arm_at");
  if (t.pending()) {
    unlink(&t);
    --pending_;
  }
  enqueue(&t, when, kTimerKey);
}

void EventScheduler::cancel(Timer& t) {
  unlink(&t);
  --pending_;
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
    if (!min_slot(level, idx, start)) return false;
    // `start` lower-bounds every pending event's time. Stop — without
    // advancing the cursor — when even that bound lies past the limit;
    // advancing here would let a later post_at land behind the cursor.
    if (static_cast<std::int64_t>(start << kTickShift) > limit.ns()) return false;

    Hook& head = slots_[static_cast<std::size_t>(level) * kSlots + static_cast<std::size_t>(idx)];
    if (level > 0) {
      // Cascade: adopt the slot's start as the new cursor and relink its
      // nodes. Each now agrees with the cursor at this digit, so each
      // re-files at a strictly lower level — the loop terminates, and no
      // node lands back in this slot.
      Hook* h = head.next;
      head.prev = head.next = &head;
      occupied_[static_cast<std::size_t>(level)] &= ~(std::uint64_t{1} << idx);
      if (start > cursor_tick_) cursor_tick_ = start;
      while (h != &head) {
        Node* n = static_cast<Node*>(h);
        h = h->next;
        insert(n);
      }
      continue;
    }

    // The head of a level-0 slot is its earliest (when, seq).
    Node* n = static_cast<Node*>(head.next);
    if (n->when > limit) return false;  // sub-tick limit boundary
    unlink(n);
    if (start > cursor_tick_) cursor_tick_ = start;
    --pending_;
    now_ = n->when;
    ++executed_;
    // Unlinked first, so a timer's action may re-arm it. A post's node is
    // released only after its callable returns.
    n->run(*this, *n, /*fire=*/true);
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
