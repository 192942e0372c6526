// Source and sink applications.
//
// SourceApp drives a transport session from a TrafficModel, stamping each
// application data unit with an id and virtual-time timestamp; SinkApp
// parses arriving units and accumulates the blackbox QoS observations
// (latency, jitter, loss, misordering, throughput) the Table 1 experiment
// grades configurations against.
#pragma once

#include "app/traffic_models.hpp"
#include "tko/event.hpp"
#include "tko/session.hpp"
#include "os/timer_facility.hpp"
#include "unites/trace.hpp"

#include <bitset>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

namespace adaptive::app {

/// Framing of one application data unit (prefix of the message payload).
struct UnitHeader {
  static constexpr std::uint16_t kMagic = 0xADAF;
  static constexpr std::size_t kBytes = 16;

  std::uint32_t id = 0;
  std::int64_t sent_at_ns = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode(std::size_t total_bytes) const;
  [[nodiscard]] static bool decode(std::span<const std::uint8_t> bytes, UnitHeader& out);
};

struct SourceStats {
  std::uint64_t units_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_rejected = 0;
};

class SourceApp {
public:
  /// Drives `session` with `model` once started. Stops after `duration`
  /// (infinite() = until the model is exhausted) or stop(). Back-to-back
  /// units (gap <= 0, i.e. bulk) wait while the session is not writable();
  /// paced units never do.
  SourceApp(tko::Session& session, std::unique_ptr<TrafficModel> model,
            os::TimerFacility& timers, sim::SimTime duration = sim::SimTime::infinity());
  ~SourceApp();
  SourceApp(const SourceApp&) = delete;
  SourceApp& operator=(const SourceApp&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const SourceStats& stats() const { return stats_; }

  /// Conformance tap: called once per accepted unit with its id, so the
  /// streaming contract monitor can open loss accounting for it.
  using SendFn = std::function<void(sim::SimTime now, std::uint32_t unit, std::size_t bytes)>;
  void set_send_observer(SendFn fn) { on_send_ = std::move(fn); }

private:
  void emit_next();
  void disarm_writable();

  tko::Session& session_;
  std::unique_ptr<TrafficModel> model_;
  os::TimerFacility& timers_;
  sim::SimTime duration_;
  sim::SimTime started_at_ = sim::SimTime::zero();
  std::unique_ptr<tko::Event> timer_;
  std::uint32_t next_id_ = 1;
  bool running_ = false;
  bool finished_ = false;
  bool awaiting_writable_ = false;  ///< the session's writable upcall is armed
  SourceStats stats_;
  SendFn on_send_;
};

struct SinkStats {
  std::uint64_t units_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t continuation_bytes = 0;  ///< fragments without a unit header
  std::uint64_t duplicates = 0;
  std::uint64_t misordered = 0;
  std::vector<double> latencies_sec;
  sim::SimTime first_arrival = sim::SimTime::zero();
  sim::SimTime last_arrival = sim::SimTime::zero();
  std::uint32_t highest_id = 0;

  /// Units the source numbered but the sink never saw (once the source
  /// has stopped): highest_id observed bounds the estimate.
  [[nodiscard]] std::uint64_t estimated_lost() const {
    return highest_id > units_received ? highest_id - units_received : 0;
  }
  [[nodiscard]] double mean_latency_sec() const;
  /// Jitter per the paper's definition: stddev of the delay samples.
  [[nodiscard]] double jitter_sec() const;
  [[nodiscard]] double throughput_bps() const;
};

class SinkApp {
public:
  explicit SinkApp(os::TimerFacility& timers) : timers_(timers) {}

  /// Attach to a session's delivery upcall; app.deliver trace events go
  /// to the session's ring.
  void attach(tko::Session& session);

  /// Feed one delivered message directly (used when the session upcall is
  /// already owned elsewhere). A sink never attached traces nothing.
  void on_message(tko::Message&& m);

  [[nodiscard]] const SinkStats& stats() const { return stats_; }

  /// UNITES hook: called once per accepted data unit with the end-to-end
  /// latency in nanoseconds, so observations can feed a metric repository
  /// (histograms) as they happen instead of post-run from latencies_sec.
  using LatencyFn = std::function<void(sim::SimTime now, double latency_ns)>;
  void set_latency_observer(LatencyFn fn) { on_latency_ = std::move(fn); }

  /// Conformance tap: one call per decoded unit (duplicates included,
  /// flagged) mirroring the sink's own bookkeeping, so the streaming
  /// monitor's window folds count exactly what the sink counted.
  struct DeliveryEvent {
    std::uint32_t unit = 0;
    std::int64_t latency_ns = 0;
    std::size_t bytes = 0;
    bool duplicate = false;
    bool misordered = false;
  };
  using DeliveryFn = std::function<void(sim::SimTime now, const DeliveryEvent&)>;
  void set_delivery_observer(DeliveryFn fn) { on_delivery_ = std::move(fn); }

private:
  os::TimerFacility& timers_;
  unites::TraceRecorder* trace_ = nullptr;  ///< the attached session's ring
  SinkStats stats_;
  std::uint32_t last_id_ = 0;
  /// Unit ids seen, as 512-id bitmap pages keyed by id / 512: memory
  /// follows the ids that arrived, not the largest id (one corrupted id
  /// costs one page, not a bitmap up to 2^32).
  static constexpr std::uint32_t kSeenPageIds = 512;
  std::map<std::uint32_t, std::bitset<kSeenPageIds>> seen_;
  LatencyFn on_latency_;
  DeliveryFn on_delivery_;
};

}  // namespace adaptive::app
