#include "sim/fault_plan.hpp"

#include <charconv>
#include <sstream>

namespace adaptive::sim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "down";
    case FaultKind::kLinkFlap: return "flap";
    case FaultKind::kBurstLoss: return "burst";
    case FaultKind::kLatencySpike: return "delay";
    case FaultKind::kBandwidthDrop: return "bw";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kWireMutate: return "mutate";
    case FaultKind::kHandover: return "handover";
    case FaultKind::kGroupJoin: return "join";
    case FaultKind::kGroupLeave: return "leave";
  }
  return "?";
}

std::string FaultSpec::describe() const {
  std::ostringstream os;
  os << to_string(kind) << '@' << at.sec() << '+' << duration.sec();
  if (kind == FaultKind::kPartition || kind == FaultKind::kHandover ||
      kind == FaultKind::kGroupJoin || kind == FaultKind::kGroupLeave) {
    os << ":node=" << node;
  } else {
    os << ":link=" << link;
  }
  if (kind == FaultKind::kLinkFlap) os << ",count=" << count << ",period=" << period.sec();
  if (kind == FaultKind::kBurstLoss) os << ",ber=" << burst_error_rate;
  if (kind == FaultKind::kLatencySpike) os << ",add=" << extra_delay.sec();
  if (kind == FaultKind::kBandwidthDrop) os << ",factor=" << bandwidth_factor;
  if (kind == FaultKind::kWireMutate) {
    os << ",corrupt=" << corrupt_p << ",dup=" << duplicate_p << ",reorder=" << reorder_p
       << ",trunc=" << truncate_p;
  }
  if (kind == FaultKind::kHandover) {
    os << ",to=" << to_attachment << ",mode=" << (make_before_break ? "mbb" : "bbm");
  }
  return os.str();
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const auto& f : faults) {
    if (!out.empty()) out += "; ";
    out += f.describe();
  }
  return out;
}

namespace {

bool parse_double(std::string_view s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Largest time (seconds) a plan may name. Anything bigger would overflow
/// SimTime's int64 nanoseconds when converted — the pre-fix parser let
/// `down@1e308` through and the cast produced a *negative* fault time
/// (see tests/corpus/fault_plans/huge_numbers.txt).
constexpr double kMaxPlanSeconds = 1e9;

bool parse_time_sec(std::string_view s, double& out) {
  return parse_double(s, out) && out <= kMaxPlanSeconds;
}

bool parse_size(std::string_view s, std::size_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Parse one `kind@start[+dur][:k=v,...]` spec; nullopt + message on error.
bool parse_spec(std::string_view text, FaultSpec& spec, std::string& error) {
  const auto at_pos = text.find('@');
  if (at_pos == std::string_view::npos) {
    error = "missing '@start'";
    return false;
  }
  const std::string_view kind = trim(text.substr(0, at_pos));
  if (kind == "down") {
    spec.kind = FaultKind::kLinkDown;
  } else if (kind == "flap") {
    spec.kind = FaultKind::kLinkFlap;
  } else if (kind == "burst") {
    spec.kind = FaultKind::kBurstLoss;
  } else if (kind == "delay") {
    spec.kind = FaultKind::kLatencySpike;
  } else if (kind == "bw") {
    spec.kind = FaultKind::kBandwidthDrop;
  } else if (kind == "partition") {
    spec.kind = FaultKind::kPartition;
  } else if (kind == "mutate") {
    spec.kind = FaultKind::kWireMutate;
  } else if (kind == "handover") {
    spec.kind = FaultKind::kHandover;
  } else if (kind == "join") {
    spec.kind = FaultKind::kGroupJoin;
  } else if (kind == "leave") {
    spec.kind = FaultKind::kGroupLeave;
  } else {
    error = "unknown fault kind '" + std::string(kind) + "'";
    return false;
  }

  std::string_view rest = text.substr(at_pos + 1);
  std::string_view times = rest;
  std::string_view options;
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    times = rest.substr(0, colon);
    options = rest.substr(colon + 1);
  }

  std::string_view start = times;
  if (const auto plus = times.find('+'); plus != std::string_view::npos) {
    start = times.substr(0, plus);
    double dur = 0.0;
    if (!parse_time_sec(trim(times.substr(plus + 1)), dur) || dur < 0.0) {
      error = "bad duration '" + std::string(times.substr(plus + 1)) + "'";
      return false;
    }
    if (dur <= 0.0) {
      error = "zero-length window (duration must be > 0)";
      return false;
    }
    spec.duration = SimTime::seconds(dur);
  }
  double at = 0.0;
  if (!parse_time_sec(trim(start), at) || at < 0.0) {
    error = "bad start time '" + std::string(start) + "'";
    return false;
  }
  spec.at = SimTime::seconds(at);

  while (!options.empty()) {
    std::string_view kv = options;
    if (const auto comma = options.find(','); comma != std::string_view::npos) {
      kv = options.substr(0, comma);
      options.remove_prefix(comma + 1);
    } else {
      options = {};
    }
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos) {
      error = "option '" + std::string(kv) + "' is not key=value";
      return false;
    }
    const std::string_view key = trim(kv.substr(0, eq));
    const std::string_view val = trim(kv.substr(eq + 1));
    double num = 0.0;
    bool ok = true;
    if (key == "link") {
      ok = parse_size(val, spec.link);
    } else if (key == "node") {
      ok = parse_size(val, spec.node);
    } else if (key == "count") {
      std::size_t c = 0;
      ok = parse_size(val, c) && c > 0;
      spec.count = static_cast<std::uint32_t>(c);
    } else if (key == "period") {
      ok = parse_time_sec(val, num) && num > 0.0;
      if (ok) spec.period = SimTime::seconds(num);
    } else if (key == "ber") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.burst_error_rate = num;
    } else if (key == "g2b") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.p_good_to_bad = num;
    } else if (key == "b2g") {
      ok = parse_double(val, num) && num > 0.0 && num <= 1.0;
      spec.p_bad_to_good = num;
    } else if (key == "add") {
      ok = parse_time_sec(val, num) && num >= 0.0;
      if (ok) spec.extra_delay = SimTime::seconds(num);
    } else if (key == "factor") {
      ok = parse_double(val, num) && num > 0.0;
      spec.bandwidth_factor = num;
    } else if (key == "corrupt") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.corrupt_p = num;
    } else if (key == "dup") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.duplicate_p = num;
    } else if (key == "reorder") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.reorder_p = num;
    } else if (key == "trunc") {
      ok = parse_double(val, num) && num >= 0.0 && num <= 1.0;
      spec.truncate_p = num;
    } else if (key == "to") {
      ok = parse_size(val, spec.to_attachment);
    } else if (key == "mode") {
      if (val == "mbb") {
        spec.make_before_break = true;
      } else if (val == "bbm") {
        spec.make_before_break = false;
      } else {
        ok = false;
      }
    } else {
      error = "unknown option '" + std::string(key) + "'";
      return false;
    }
    if (!ok) {
      error = "bad value for '" + std::string(key) + "': '" + std::string(val) + "'";
      return false;
    }
  }
  return true;
}

/// Mobility control events must not contradict each other: unlike link
/// impairments (which the injector composes against a baseline), a
/// handover is a discrete state change, and two overlapping transitions of
/// the same host — or a join racing a leave at the same instant — have no
/// well-defined composition. The later spec is rejected.
bool contradicts(const FaultSpec& a, const FaultSpec& b, std::string& why) {
  if (a.kind == FaultKind::kHandover && b.kind == FaultKind::kHandover && a.node == b.node) {
    const std::int64_t a_end = a.at.ns() + a.duration.ns();
    const std::int64_t b_end = b.at.ns() + b.duration.ns();
    if (a.at.ns() <= b_end && b.at.ns() <= a_end) {
      std::ostringstream os;
      os << "handover window contradicts an earlier handover of node " << a.node;
      why = os.str();
      return true;
    }
  }
  const auto is_membership = [](FaultKind k) {
    return k == FaultKind::kGroupJoin || k == FaultKind::kGroupLeave;
  };
  if (is_membership(a.kind) && is_membership(b.kind) && a.kind != b.kind &&
      a.node == b.node && a.at.ns() == b.at.ns()) {
    std::ostringstream os;
    os << "join/leave of node " << a.node << " at the same instant";
    why = os.str();
    return true;
  }
  return false;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& text, std::vector<std::string>* errors) {
  FaultPlan plan;
  std::string_view rest = text;
  while (!rest.empty()) {
    std::string_view item = rest;
    if (const auto semi = rest.find(';'); semi != std::string_view::npos) {
      item = rest.substr(0, semi);
      rest.remove_prefix(semi + 1);
    } else {
      rest = {};
    }
    item = trim(item);
    if (item.empty()) continue;
    FaultSpec spec;
    std::string error;
    if (parse_spec(item, spec, error)) {
      // Normalize exact duplicates: a repeated identical spec adds no new
      // impairment, only double begin/end bookkeeping — drop it loudly.
      const std::string desc = spec.describe();
      bool duplicate = false;
      for (const auto& f : plan.faults) {
        if (f.describe() == desc) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        if (errors != nullptr) {
          errors->push_back("'" + std::string(item) + "': duplicate spec dropped");
        }
      } else {
        std::string why;
        bool contradiction = false;
        for (const auto& f : plan.faults) {
          if (contradicts(f, spec, why)) {
            contradiction = true;
            break;
          }
        }
        if (contradiction) {
          if (errors != nullptr) {
            errors->push_back("'" + std::string(item) + "': " + why);
          }
        } else {
          plan.faults.push_back(spec);
        }
      }
    } else if (errors != nullptr) {
      errors->push_back("'" + std::string(item) + "': " + error);
    }
  }
  return plan;
}

}  // namespace adaptive::sim
