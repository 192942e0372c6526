// Structured event tracing: a bounded ring buffer of protocol events.
//
// Every subsystem (MANTTS negotiation, TKO synthesis and reliability, the
// network links) emits TraceEvents into its World's ring, so one packet's
// lifecycle — submit, synthesize, transmit, retransmit, deliver — is
// reconstructable from a single timeline. Snapshots export to the Chrome
// trace_event format (chrome://tracing, Perfetto) via unites/export.hpp.
//
// Ownership (DESIGN.md §9): each net::Network owns one recorder, and World
// exposes it as World::trace(). An emitter reaches it through the network,
// host or session it already holds, and stamps its own identity
// (category, clock, node, session) in one helper. The recorder is off
// until enable(); while it is off, a site costs the inline loads that
// reach the ring and one predicted branch (a mechanism's or a SourceApp's
// site adds one virtual call through its session), so uninstrumented runs
// pay next to nothing. There is no thread-local or process-global
// recorder: N Worlds on N threads, or on one thread, record into N
// disjoint rings. A single recorder instance is not thread-safe — one
// World, one thread at a time.
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

private:
  void push(TraceEvent&& e);

  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::uint64_t emitted_ = 0;
  bool enabled_ = false;
};

}  // namespace adaptive::unites
