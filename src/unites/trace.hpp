// Structured event tracing: a bounded ring buffer of protocol events.
//
// Every subsystem (MANTTS negotiation, TKO synthesis and reliability, the
// network links) emits TraceEvents through the *current* recorder, so one
// packet's lifecycle — submit, synthesize, transmit, retransmit, deliver —
// is reconstructable from a single timeline. The recorder is off by
// default and each emit site costs exactly one predicted branch while
// disabled, so uninstrumented runs pay nothing. Snapshots export to the
// Chrome trace_event format (chrome://tracing, Perfetto) via
// unites/export.hpp.
//
// Thread model (DESIGN.md §9): there is no process-global recorder. Each
// thread has its own default recorder, and a shard worker can install a
// shard-local recorder with ScopedTraceRecorder, so N worlds running on N
// threads record into N disjoint rings with no locking and no
// cross-contamination. A single recorder instance is still deliberately
// not thread-safe — one recorder, one thread.
#pragma once

#include "net/packet.hpp"
#include "sim/time.hpp"

#include <cstdint>
#include <vector>

namespace adaptive::unites {

enum class TraceCategory : std::uint8_t { kSim, kNet, kTko, kMantts, kApp, kConformance };
[[nodiscard]] const char* to_string(TraceCategory c);

struct TraceEvent {
  sim::SimTime when;
  sim::SimTime duration = sim::SimTime::zero();  ///< > 0: span; else instant
  const char* name = "";                         ///< static-lifetime string
  const char* detail = nullptr;                  ///< optional static-lifetime annotation
  TraceCategory category = TraceCategory::kSim;
  net::NodeId node = 0;
  std::uint32_t session = 0;  ///< connection/session id; 0 = none
  double value = 0.0;         ///< optional numeric argument (seq, bytes, ...)
};

class TraceRecorder {
public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The calling thread's current recorder: the innermost recorder
  /// installed with ScopedTraceRecorder, else the thread's own default
  /// instance. Every emit site records here.
  [[nodiscard]] static TraceRecorder& current();

  /// Install `r` (may be nullptr = revert to the thread default) as the
  /// calling thread's current recorder; returns the previous override.
  /// Prefer ScopedTraceRecorder.
  static TraceRecorder* install(TraceRecorder* r);

  /// Start recording (clears any previous events). The ring holds the
  /// most recent `capacity` events; older ones are overwritten.
  void enable(std::size_t capacity = kDefaultCapacity);
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Point event. No-op (a single branch) while disabled.
  void instant(TraceCategory category, const char* name, sim::SimTime when,
               net::NodeId node = 0, std::uint32_t session = 0, double value = 0.0,
               const char* detail = nullptr) {
    if (!enabled_) return;
    push(TraceEvent{when, sim::SimTime::zero(), name, detail, category, node, session, value});
  }

  /// Duration event covering [start, start + duration).
  void span(TraceCategory category, const char* name, sim::SimTime start,
            sim::SimTime duration, net::NodeId node = 0, std::uint32_t session = 0,
            double value = 0.0, const char* detail = nullptr) {
    if (!enabled_) return;
    push(TraceEvent{start, duration, name, detail, category, node, session, value});
  }

  [[nodiscard]] std::size_t size() const { return ring_.size() < capacity_ ? ring_.size() : capacity_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Events lost to ring wraparound since enable().
  [[nodiscard]] std::uint64_t dropped() const { return emitted_ - size(); }

  /// Retained events in emission order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  void clear();

private:
  void push(TraceEvent&& e);

  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t emitted_ = 0;
  bool enabled_ = false;
};

/// RAII install of a recorder as the calling thread's current one. The
/// shard runner wraps each shard in one of these so every world's events
/// land in that shard's private ring.
class ScopedTraceRecorder {
public:
  explicit ScopedTraceRecorder(TraceRecorder& r) : prev_(TraceRecorder::install(&r)) {}
  ~ScopedTraceRecorder() { TraceRecorder::install(prev_); }
  ScopedTraceRecorder(const ScopedTraceRecorder&) = delete;
  ScopedTraceRecorder& operator=(const ScopedTraceRecorder&) = delete;

private:
  TraceRecorder* prev_;
};

/// Shorthand for the current thread's recorder: unites::trace().instant(...).
[[nodiscard]] inline TraceRecorder& trace() { return TraceRecorder::current(); }

}  // namespace adaptive::unites
