#include "adaptive/city.hpp"

#include "net/fault_injector.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace adaptive {

namespace {

/// Evenly spread index i of n across a window starting at `base`.
[[nodiscard]] sim::SimTime spread(sim::SimTime base, sim::SimTime window, std::size_t i,
                                  std::size_t n) {
  const std::int64_t num = window.ns() * static_cast<std::int64_t>(i);
  return base + sim::SimTime::nanoseconds(num / static_cast<std::int64_t>(std::max<std::size_t>(1, n)));
}

}  // namespace

mantts::ResourceLimits city_limits(const CityOptions& opt) {
  mantts::ResourceLimits limits;
  // Active endpoints + passive mirrors land in the same per-host table;
  // the margin absorbs churn overlap (a fresh open racing a linger-ing
  // closed slot the reaper has not collected yet).
  limits.max_sessions = (opt.sessions + opt.churn_cycles) * 2 + 64;
  return limits;
}

CityOutcome run_city(World& world, const CityOptions& opt) {
  const std::size_t hosts = world.host_count();
  if (hosts < 2) throw std::invalid_argument("run_city: world needs at least 2 hosts");
  CityOutcome out;
  if (opt.sessions == 0) return out;

  const std::size_t payload = std::max(sizeof(std::uint64_t), opt.message_bytes);
  const std::size_t variants = std::max<std::size_t>(1, opt.acd_variants);
  const sim::SimTime t0 = world.now();
  const sim::SimTime hold_end = t0 + opt.ramp + opt.hold;

  for (std::size_t i = 0; i < hosts; ++i) {
    if (opt.reap_linger > sim::SimTime::zero()) {
      world.transport(i).set_session_reaper(opt.reap_linger);
    }
  }

  // Pool gauge before the first open: the teardown-leak reference the
  // soak test compares against after the drain.
  {
    const auto snap = world.resource_snapshot();
    for (const auto& h : snap.hosts) out.pool_live_bytes_baseline += h.pool.live_bytes;
  }

  // Sink side: every passive session reads the 8-byte send stamp off each
  // delivered message and feeds the end-to-end latency histogram.
  for (std::size_t i = 0; i < hosts; ++i) {
    world.transport(i).set_acceptor([&out, &world](tko::TransportSession& s) {
      s.set_deliver([&out, &world](tko::Message&& m) {
        std::uint64_t stamp = 0;
        if (const auto pre = m.contiguous_prefix(sizeof stamp); pre.size() == sizeof stamp) {
          std::memcpy(&stamp, pre.data(), sizeof stamp);
        } else if (m.size() >= sizeof stamp) {
          const auto bytes = m.peek(sizeof stamp);
          std::memcpy(&stamp, bytes.data(), sizeof stamp);
        } else {
          return;  // truncated unit; not a latency sample
        }
        ++out.messages_delivered;
        out.latency_ns.add(static_cast<double>(world.now().ns()) -
                           static_cast<double>(stamp));
      });
    });
  }

  // Scripted impairments, armed relative to the driver's start.
  std::optional<net::FaultInjector> injector;
  if (opt.faults.has_value() && !opt.faults->empty()) {
    injector.emplace(world.network(), world.topology().scenario_links,
                     world.topology().hosts);
    injector->arm(*opt.faults);
  }

  // Driver-side registry: slot k holds the k-th open's active session
  // until the driver closes it (the only closer of active endpoints, so a
  // non-null slot can never dangle into a reaped table entry).
  std::vector<tko::TransportSession*> slots(opt.sessions + opt.churn_cycles, nullptr);
  std::size_t live = 0;
  std::size_t next_close = 0;

  auto send_from = [&out, payload, &world](tko::TransportSession& s) {
    tko::Message m(s.buffer_pool());
    auto span = m.append_uninit(payload);
    std::memset(span.data(), 0, span.size());
    const auto stamp = static_cast<std::uint64_t>(world.now().ns());
    std::memcpy(span.data(), &stamp, sizeof stamp);
    if (s.send(std::move(m))) {
      ++out.messages_sent;
    } else {
      ++out.send_rejected;
    }
  };

  auto open_one = [&](std::size_t k) {
    const std::size_t src = k % hosts;
    const std::size_t dst = (k + 1) % hosts;
    mantts::Acd acd;
    acd.remotes = {world.transport_address(dst)};
    acd.quantitative.average_throughput = sim::Rate::kbps(64);
    acd.quantitative.peak_throughput = sim::Rate::kbps(64);
    // A short expected duration selects the implicit connection scheme in
    // Stage II: no handshake round trip, SCS piggybacked on first data —
    // the lightweight path a city of short sessions lives on.
    acd.quantitative.duration = sim::SimTime::seconds(2);
    // Heterogeneity knob: the priority byte is hashed into the synthesis
    // key, so each variant is a distinct cache line even though the
    // derived configuration is identical.
    acd.qualitative.priority_delivery = variants > 1;
    acd.qualitative.priority = static_cast<std::uint8_t>(k % variants);
    world.mantts(src).open_session(acd, [&, k](mantts::MantttsEntity::OpenResult r) {
      if (r.refused || r.session == nullptr) {
        ++out.refused;
        return;
      }
      slots[k] = r.session;
      ++out.opened;
      ++live;
      out.peak_active = std::max(out.peak_active, live);
      send_from(*r.session);
      for (std::size_t j = 1; j < opt.messages_per_session; ++j) {
        const sim::SimTime t = world.now() + opt.message_gap * static_cast<std::int64_t>(j);
        if (t >= hold_end) break;  // nothing schedules past the teardown
        world.scheduler().post_at(t, [&, k] {
          if (slots[k] != nullptr) send_from(*slots[k]);
        });
      }
    });
  };

  auto close_one = [&](std::size_t k) {
    if (slots[k] == nullptr) return;
    slots[k]->close(true);
    slots[k] = nullptr;
    ++out.closed;
    --live;
  };

  // Ramp: opens spread evenly across the window.
  for (std::size_t k = 0; k < opt.sessions; ++k) {
    world.scheduler().post_at(spread(t0, opt.ramp, k, opt.sessions),
                              [&open_one, k] { open_one(k); });
  }

  // Churn: close the oldest live session, open a fresh slot in its place.
  for (std::size_t i = 0; i < opt.churn_cycles; ++i) {
    const std::size_t fresh = opt.sessions + i;
    world.scheduler().post_at(spread(t0 + opt.ramp, opt.hold, i, opt.churn_cycles),
                              [&, fresh] {
                                while (next_close < slots.size() &&
                                       slots[next_close] == nullptr) {
                                  ++next_close;
                                }
                                if (next_close < slots.size()) close_one(next_close++);
                                open_one(fresh);
                              });
  }

  // Mid-hold sample: transport-layer concurrency and pinned-byte gauges
  // at the plateau (active + passive, every host).
  world.scheduler().post_at(t0 + opt.ramp + opt.hold / 2, [&] {
    std::size_t sessions_live = 0;
    for (std::size_t i = 0; i < hosts; ++i) {
      sessions_live += world.transport(i).session_count();
    }
    out.peak_transport_sessions = std::max(out.peak_transport_sessions, sessions_live);
    const auto snap = world.resource_snapshot();
    out.peak_session_live_bytes = snap.session_live_bytes();
    out.peak_session_high_water_bytes = snap.session_high_water_bytes();
    out.peak_snapshot_sessions = snap.sessions.size();
  });

  world.run_until(hold_end);

  // Teardown: graceful closes spread over the first half of the drain so
  // FIN exchanges and reap timers resolve inside the second half.
  std::vector<std::size_t> open_slots;
  open_slots.reserve(live);
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (slots[k] != nullptr) open_slots.push_back(k);
  }
  for (std::size_t i = 0; i < open_slots.size(); ++i) {
    const std::size_t k = open_slots[i];
    world.scheduler().post_at(spread(hold_end, opt.drain / 2, i, open_slots.size()),
                              [&close_one, k] { close_one(k); });
  }
  world.run_for(opt.drain);

  // Harvest.
  for (std::size_t i = 0; i < hosts; ++i) {
    auto& tr = world.transport(i);
    out.residual_sessions += tr.session_count();
    out.reaped += tr.sessions_reaped();
    const tko::SessionTableStats& ts = tr.table_stats();
    out.table.inserts += ts.inserts;
    out.table.erases += ts.erases;
    out.table.finds += ts.finds;
    out.table.probe_steps += ts.probe_steps;
    out.table.rehashes += ts.rehashes;
    out.table.max_probe = std::max(out.table.max_probe, ts.max_probe);
    const mantts::SynthesisCacheStats& cs = world.mantts(i).synthesis_cache().stats();
    out.cache.hits += cs.hits;
    out.cache.misses += cs.misses;
    out.cache.insertions += cs.insertions;
    out.cache.evictions += cs.evictions;
    out.cache.invalidations += cs.invalidations;
    if (opt.record_metrics) {
      auto& repo = world.repository();
      const sim::SimTime now = world.now();
      const net::NodeId node = world.node(i);
      repo.record({node, 0, unites::metrics::kSynthCacheHits}, now,
                  static_cast<double>(cs.hits));
      repo.record({node, 0, unites::metrics::kSynthCacheMisses}, now,
                  static_cast<double>(cs.misses));
      repo.record({node, 0, unites::metrics::kSynthCacheEvictions}, now,
                  static_cast<double>(cs.evictions));
      repo.record({node, 0, unites::metrics::kSynthCacheInvalidations}, now,
                  static_cast<double>(cs.invalidations));
      const std::uint64_t looks = cs.hits + cs.misses;
      repo.record({node, 0, unites::metrics::kSynthCacheHitRate}, now,
                  looks == 0 ? 0.0
                             : static_cast<double>(cs.hits) / static_cast<double>(looks));
    }
    tr.set_acceptor(nullptr);
  }
  const std::uint64_t looks = out.cache.hits + out.cache.misses;
  out.cache_hit_rate =
      looks == 0 ? 0.0 : static_cast<double>(out.cache.hits) / static_cast<double>(looks);

  {
    const auto snap = world.resource_snapshot();
    for (const auto& h : snap.hosts) {
      out.pool_live_bytes_final += h.pool.live_bytes;
      out.pool_high_water_bytes += h.pool.high_water_bytes;
    }
  }
  out.bytes_per_session =
      static_cast<double>(out.peak_session_high_water_bytes) /
      static_cast<double>(std::max<std::size_t>(1, out.peak_snapshot_sessions));
  return out;
}

ShardFold<CityOutcome> run_city_sweep(const CityOptions& base,
                                      const std::vector<std::uint64_t>& seeds,
                                      std::size_t jobs, bool capture_trace) {
  return fold_shards<CityOutcome>(seeds, jobs, [&](std::uint64_t seed, ShardYield& yield) {
    World world([seed](sim::EventScheduler& s) { return net::make_ethernet_lan(s, 8, seed); },
                os::CpuConfig{}, city_limits(base));
    if (capture_trace) world.trace().enable();
    CityOptions opt = base;
    opt.seed = seed;
    CityOutcome outcome = run_city(world, opt);
    yield.repo = std::move(world.repository());
    if (capture_trace) {
      yield.trace = world.trace().snapshot();
      yield.trace_emitted = world.trace().emitted();
    }
    return outcome;
  });
}

}  // namespace adaptive
