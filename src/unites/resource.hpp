// UNITES resource plane (DESIGN §12): copy/alloc/memory accounting.
//
// Section 2 of the paper argues that memory — copying costs and
// per-connection buffer state — is where transport systems lose their
// performance on high-speed networks. The resource plane makes that
// claim measurable: a ResourceSnapshot captures every host buffer pool's
// allocation/free/copy counters and every live session's pinned-byte
// gauge at one instant of virtual time, records them into the metric
// repository under MetricClass::kResource, and serializes to JSON for
// flight-recorder bundles. The trajectory scalars the benchmarks gate on
// (mem.bytes_per_session, os.copies_per_msg) are derived from these
// snapshots.
#pragma once

#include "os/buffer_pool.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"
#include "unites/repository.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace adaptive::os {
class Host;
}

namespace adaptive::tko {
class AdaptiveTransport;
}

namespace adaptive::unites {

/// One host buffer pool's counters at snapshot time.
struct HostPoolResource {
  net::NodeId host = 0;
  os::BufferPoolStats pool;
};

/// One transport session's pinned payload bytes at snapshot time.
struct SessionResource {
  net::NodeId host = 0;
  std::uint32_t session = 0;
  std::uint64_t live_bytes = 0;        ///< gauge at snapshot time
  std::uint64_t high_water_bytes = 0;  ///< peak over the session's life
};

struct ResourceSnapshot {
  sim::SimTime when = sim::SimTime::zero();
  std::vector<HostPoolResource> hosts;
  std::vector<SessionResource> sessions;

  /// Fold one host (pool counters + every live session of `transport`,
  /// which may be null for hosts without a transport) into the snapshot.
  void capture_host(const os::Host& host, const tko::AdaptiveTransport* transport);

  // ---- systemwide aggregates -------------------------------------------
  [[nodiscard]] std::uint64_t total_copies() const;
  [[nodiscard]] std::uint64_t total_copied_bytes() const;
  [[nodiscard]] std::uint64_t total_allocations() const;
  [[nodiscard]] std::uint64_t pool_high_water_bytes() const;     ///< sum of per-host peaks
  [[nodiscard]] std::uint64_t session_live_bytes() const;        ///< sum of session gauges
  [[nodiscard]] std::uint64_t session_high_water_bytes() const;  ///< sum of session peaks

  /// Record every figure as MetricClass::kResource samples at `when`:
  /// per-host mem.pool_* (connection 0) and per-session mem.session_*.
  void record_into(MetricRepository& repo) const;

  /// Compact JSON object for flight-recorder bundles and reports.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace adaptive::unites
