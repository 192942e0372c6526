// city_churn: one World on the 8-host 10 Mb/s Ethernet LAN holding tens of
// thousands of implicit sessions under close-oldest/open-new churn, each
// session carrying two 64-byte timestamped messages, with the reaper on
// and teardown to zero residual sessions. The per-session control plane
// (MANTTS Stage I-III on the synthesis-cache hit path, session-table
// insert/find/erase, implicit set-up and FIN) and per-session memory do
// the work here; per-byte cost is nil.
//
// The load is generated here, through public calls only (World,
// MantttsEntity::open_session, TransportSession::send/close,
// World::run_until), so every call carries a benchmark span and no change
// to the library's own city runner (adaptive::run_city) can change the
// workload.
#include "harness.hpp"

#include "sim/random.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace perfbench {

namespace ad = adaptive;

namespace {

constexpr std::size_t kHosts = 8;
constexpr std::size_t kSessions = 20'000;
constexpr std::size_t kChurn = kSessions / 5;
constexpr std::size_t kOpens = kSessions + kChurn;
constexpr std::size_t kMessagesPerSession = 2;
constexpr std::size_t kMessageBytes = 64;
constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kRampNs = 10'000 * kMs;
constexpr std::int64_t kHoldNs = 4'000 * kMs;
constexpr std::int64_t kDrainNs = 14'000 * kMs;
constexpr std::int64_t kGapNs = 50 * kMs;
constexpr std::int64_t kReapLingerNs = 20 * kMs;

/// Message layout: send stamp (ns), initiator session id, message index.
struct Header {
  std::int64_t sent_ns;
  std::uint32_t session;
  std::uint32_t unit;
};
static_assert(sizeof(Header) == 16 && sizeof(Header) <= kMessageBytes);

ad::mantts::ResourceLimits city_resource_limits() {
  ad::mantts::ResourceLimits limits;
  // Active endpoints and passive mirrors share each host's table; the
  // margin absorbs opens racing slots the reaper has not collected yet.
  limits.max_sessions = kOpens * 2 + 64;
  return limits;
}

struct Slot {
  ad::tko::TransportSession* session = nullptr;  ///< null once closed
  std::uint32_t sid = 0;
  bool opened = false;
  bool reliable = false;
  std::uint32_t sent = 0;
  std::uint32_t delivered = 0;
  std::uint32_t next_unit = 0;  ///< next in-order unit expected at the receiver
  bool violated = false;        ///< duplicate or out-of-order delivery seen
};

class CityChurn final : public Workload {
public:
  explicit CityChurn(std::uint64_t seed) : seed_(seed) {
    // The seed jitters each open inside its slot of the ramp/hold window,
    // seeds the LAN's noise and draws the modelled host speed within 1% of
    // the 25-MIPS workstation. Without the last, the median latency of this
    // unloaded switched LAN would be one fixed path delay for every seed.
    ad::sim::Rng rng(seed);
    cpu_.mips *= 1.0 + 0.02 * (rng.uniform() - 0.5);
    open_at_ns_.resize(kOpens);
    for (std::size_t k = 0; k < kOpens; ++k) {
      const bool ramp = k < kSessions;
      const std::int64_t base = ramp ? 0 : kRampNs;
      const std::int64_t window = ramp ? kRampNs : kHoldNs;
      const std::size_t n = ramp ? kSessions : kChurn;
      const std::size_t i = ramp ? k : k - kSessions;
      const std::int64_t step = window / static_cast<std::int64_t>(n);
      open_at_ns_[k] = base + step * static_cast<std::int64_t>(i) +
                       static_cast<std::int64_t>(rng.uniform_int(0, step - 1));
    }
    // Messages owed by the definition: the first at open, the second one
    // gap later unless that falls past the end of the hold phase.
    for (std::size_t k = 0; k < kOpens; ++k) {
      owed_ += 1.0 + (open_at_ns_[k] + kGapNs < kRampNs + kHoldNs ? 1.0 : 0.0);
    }
  }

  SetupSample setup_once() override {
    const double t0 = wall_now();
    auto world = build();
    const double dt = wall_now() - t0;
    return {dt, dt};
  }

  IterationResult iterate(bool traced) override;

  [[nodiscard]] std::string check_work_content(const IterationResult& r) const override {
    if (r.exact.at("opens_attempted") != static_cast<double>(kOpens)) {
      return "city_churn: opens attempted differ from sessions + churn";
    }
    if (r.owed != owed_) return "city_churn: messages owed differ from the schedule";
    if (r.exact.at("messages_attempted") + r.exact.at("messages_skipped") != owed_) {
      return "city_churn: messages attempted differ from the schedule";
    }
    return "";
  }

private:
  std::unique_ptr<ad::World> build() const {
    const std::uint64_t seed = seed_;
    auto world = std::make_unique<ad::World>(
        [seed](ad::sim::EventScheduler& s) { return ad::net::make_ethernet_lan(s, kHosts, seed); },
        cpu_, city_resource_limits());
    for (std::size_t i = 0; i < kHosts; ++i) {
      world->transport(i).set_session_reaper(ad::sim::SimTime::nanoseconds(kReapLingerNs));
    }
    return world;
  }

  std::uint64_t seed_;
  ad::os::CpuConfig cpu_;
  std::vector<std::int64_t> open_at_ns_;
  double owed_ = 0;
};

IterationResult CityChurn::iterate(bool traced) {
  auto world_ptr = build();
  ad::World& world = *world_ptr;
  auto& monitor = world.conformance();
  const std::uint64_t inject_ns = trace_switch().inject_deliver_ns;

  std::vector<Slot> slots(kOpens);
  std::vector<double> latency_ms;
  latency_ms.reserve(kOpens * kMessagesPerSession);
  std::unordered_map<std::uint32_t, std::size_t> slot_of_sid;
  slot_of_sid.reserve(kOpens);
  double refused = 0, messages_attempted = 0, messages_skipped = 0, send_rejected = 0;
  double payload_bytes = 0;
  std::int64_t first_send_ns = -1, last_delivery_ns = 0;
  std::size_t next_close = 0;
  SessionCounts sc;

  // Receivers: every passive session reads the header off each message.
  for (std::size_t h = 0; h < kHosts; ++h) {
    world.transport(h).set_acceptor([&](ad::tko::TransportSession& s) {
      s.set_deliver([&](ad::tko::Message&& m) {
        Span span("bench.app.deliver");
        busy_wait_ns(inject_ns);
        Header hdr{};
        if (const auto pre = m.contiguous_prefix(sizeof hdr); pre.size() == sizeof hdr) {
          std::memcpy(&hdr, pre.data(), sizeof hdr);
        } else if (m.size() >= sizeof hdr) {
          const auto bytes = m.peek(sizeof hdr);
          std::memcpy(&hdr, bytes.data(), sizeof hdr);
        } else {
          return;  // truncated message: not a unit
        }
        const auto it = slot_of_sid.find(hdr.session);
        if (it == slot_of_sid.end()) return;
        Slot& slot = slots[it->second];
        const std::int64_t now = world.now().ns();
        const bool duplicate = hdr.unit < slot.next_unit;
        const bool misordered = hdr.unit > slot.next_unit;
        if (duplicate || misordered) slot.violated = true;
        if (!duplicate) slot.next_unit = hdr.unit + 1;
        ++slot.delivered;
        latency_ms.push_back(static_cast<double>(now - hdr.sent_ns) * 1e-6);
        payload_bytes += static_cast<double>(m.size());
        last_delivery_ns = std::max(last_delivery_ns, now);
        monitor.on_delivery(hdr.session, hdr.unit, world.now(), now - hdr.sent_ns, m.size(),
                            duplicate, misordered);
      });
    });
  }

  const auto send_unit = [&](Slot& slot) {
    ad::tko::Message m(slot.session->buffer_pool());
    auto span_bytes = m.append_uninit(kMessageBytes);
    std::memset(span_bytes.data(), 0, span_bytes.size());
    const Header hdr{world.now().ns(), slot.sid, slot.sent};
    std::memcpy(span_bytes.data(), &hdr, sizeof hdr);
    if (first_send_ns < 0) first_send_ns = hdr.sent_ns;
    ++messages_attempted;
    bool ok = false;
    {
      Span span("bench.tko.transport.send");
      ok = slot.session->send(std::move(m));
    }
    if (ok) {
      monitor.on_send(slot.sid, slot.sent, world.now());
    } else {
      ++send_rejected;
    }
    ++slot.sent;
  };

  const std::int64_t hold_end_ns = kRampNs + kHoldNs;
  const auto open_one = [&](std::size_t k) {
    ad::mantts::Acd acd;
    acd.remotes = {world.transport_address((k + 1) % kHosts)};
    acd.quantitative.average_throughput = ad::sim::Rate::kbps(64);
    acd.quantitative.peak_throughput = ad::sim::Rate::kbps(64);
    // A short expected duration selects the implicit connection scheme.
    acd.quantitative.duration = ad::sim::SimTime::seconds(2);
    Span span("bench.mantts.open");
    world.mantts(k % kHosts).open_session(acd, [&, k](ad::mantts::MantttsEntity::OpenResult r) {
      Slot& slot = slots[k];
      if (r.refused || r.session == nullptr) {
        ++refused;
        messages_skipped += 1.0 + (open_at_ns_[k] + kGapNs < hold_end_ns ? 1.0 : 0.0);
        return;
      }
      slot.session = r.session;
      slot.sid = r.session->id();
      slot.opened = true;
      slot.reliable = r.scs.recovery != ad::tko::sa::RecoveryScheme::kNone;
      slot_of_sid[slot.sid] = k;
      send_unit(slot);
      // Nothing is sent past the hold phase (decided by the schedule).
      if (open_at_ns_[k] + kGapNs >= hold_end_ns) return;
      world.scheduler().post_at(world.now() + ad::sim::SimTime::nanoseconds(kGapNs), [&, k] {
        if (slots[k].session != nullptr) {
          send_unit(slots[k]);
        } else {
          ++messages_skipped;
        }
      });
    });
  };

  const auto close_one = [&](std::size_t k) {
    Slot& slot = slots[k];
    if (slot.session == nullptr) return;
    sc.add(*slot.session);
    Span span("bench.tko.transport.close");
    slot.session->close(true);
    slot.session = nullptr;
  };

  auto& prof = ad::unites::Profiler::current();
  prof.clear();
  if (traced) prof.enable();
  TimedPhase phase;
  phase.start();
  const ad::sim::SimTime t0 = world.now();
  for (std::size_t k = 0; k < kOpens; ++k) {
    const ad::sim::SimTime at = t0 + ad::sim::SimTime::nanoseconds(open_at_ns_[k]);
    if (k < kSessions) {
      world.scheduler().post_at(at, [&open_one, k] { open_one(k); });
    } else {
      // Churn: close the oldest live session, open a fresh one.
      world.scheduler().post_at(at, [&, k] {
        while (next_close < slots.size() && slots[next_close].session == nullptr) ++next_close;
        if (next_close < slots.size()) close_one(next_close++);
        open_one(k);
      });
    }
  }
  const ad::sim::SimTime hold_end = t0 + ad::sim::SimTime::nanoseconds(hold_end_ns);
  world.run_until(hold_end);
  // Teardown: graceful closes over the first half of the drain, so FIN
  // exchanges and reaping finish inside the second half.
  std::vector<std::size_t> open_slots;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (slots[k].session != nullptr) open_slots.push_back(k);
  }
  for (std::size_t i = 0; i < open_slots.size(); ++i) {
    const std::size_t k = open_slots[i];
    const std::int64_t off = (kDrainNs / 2) * static_cast<std::int64_t>(i) /
                             static_cast<std::int64_t>(std::max<std::size_t>(1, open_slots.size()));
    world.scheduler().post_at(hold_end + ad::sim::SimTime::nanoseconds(off),
                              [&close_one, k] { close_one(k); });
  }
  world.run_until(hold_end + ad::sim::SimTime::nanoseconds(kDrainNs));
  phase.stop();
  prof.disable();

  IterationResult r;
  r.wall_s = phase.wall_s();
  r.cpu_s = phase.cpu_s();
  if (traced) r.profile = prof.snapshot();
  prof.clear();

  // ---- untimed harvest ----
  monitor.finalize_all(world.now());
  double units = 0, clean = 0, windows = 0, windows_ok = 0, qoe = 0, graded = 0;
  for (std::size_t k = 0; k < kOpens; ++k) {
    const Slot& slot = slots[k];
    units += slot.delivered;
    if (!slot.opened) continue;
    const bool lost = slot.reliable && slot.delivered < slot.sent;
    clean += (!slot.violated && !lost) ? 1 : 0;
    if (const auto* rep = monitor.report(slot.sid)) {
      windows += static_cast<double>(rep->windows.size());
      windows_ok += static_cast<double>(rep->windows.size() - rep->windows_bad);
      qoe += rep->qoe;
      ++graded;
    }
  }
  double residual = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    residual += static_cast<double>(world.transport(h).session_count());
  }
  WorldCounts wc;
  wc.add(world);

  r.units = units;
  r.owed = owed_;
  Exact& x = r.exact;
  x["units"] = units;
  x["opens_attempted"] = static_cast<double>(kOpens);
  x["opens_refused"] = refused;
  x["messages_attempted"] = messages_attempted;
  x["messages_skipped"] = messages_skipped;
  x["messages_rejected"] = send_rejected;
  x["residual_sessions"] = residual;
  std::sort(latency_ms.begin(), latency_ms.end());
  put_latency(x, latency_ms);
  const double traffic_s = static_cast<double>(last_delivery_ns - first_send_ns) * 1e-9;
  x["vt.goodput_mbps"] = traffic_s > 0 ? payload_bytes * 8.0 / traffic_s / 1e6 : 0.0;
  // Refused opens owe their messages and deliver none.
  x["success_fraction"] = success_fraction(units, owed_);
  x["oracle_clean_fraction"] = clean / static_cast<double>(kOpens);
  x["adaptive.seeds_violating"] = static_cast<double>(kOpens) - clean;
  x["vt.time_in_contract"] = windows > 0 ? windows_ok / windows : 0.0;
  x["vt.qoe"] = graded > 0 ? qoe / graded : 0.0;
  x["unites.conformance_windows"] = windows;
  x["unites.trace_events_per_unit"] = 0;
  x["unites.spans"] = 0;
  x["unites.timeline_points"] = 0;
  x["unites.export_mb"] = 0;
  put_layer_counts(x, wc, sc, units, payload_bytes);

  for (std::size_t h = 0; h < kHosts; ++h) world.transport(h).set_acceptor(nullptr);
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_city_churn(std::uint64_t seed) {
  return std::make_unique<CityChurn>(seed);
}

}  // namespace perfbench
