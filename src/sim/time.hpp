// Virtual time for the discrete-event kernel.
//
// All ADAPTIVE components run in virtual time: an int64 nanosecond count
// managed by the EventScheduler. Using a strong type (rather than a bare
// int64) keeps durations, rates, and instants from being mixed up at
// compile time.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace adaptive::sim {

/// A point or span in virtual time, nanosecond resolution.
class SimTime {
public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] static constexpr SimTime nanoseconds(std::int64_t v) { return SimTime(v); }
  [[nodiscard]] static constexpr SimTime microseconds(std::int64_t v) { return SimTime(v * 1'000); }
  [[nodiscard]] static constexpr SimTime milliseconds(std::int64_t v) { return SimTime(v * 1'000'000); }
  [[nodiscard]] static constexpr SimTime seconds(double v) {
    return SimTime(static_cast<std::int64_t>(v * 1e9));
  }
  [[nodiscard]] static constexpr SimTime zero() { return SimTime(0); }
  [[nodiscard]] static constexpr SimTime infinity() {
    return SimTime(std::numeric_limits<std::int64_t>::max());
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] constexpr bool is_infinite() const { return *this == infinity(); }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime rhs) { ns_ += rhs.ns_; return *this; }
  constexpr SimTime& operator-=(SimTime rhs) { ns_ -= rhs.ns_; return *this; }
  [[nodiscard]] friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime(a.ns_ + b.ns_); }
  [[nodiscard]] friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime(a.ns_ - b.ns_); }
  [[nodiscard]] friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime(a.ns_ * k); }
  [[nodiscard]] friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return a * k; }
  [[nodiscard]] friend constexpr SimTime operator/(SimTime a, std::int64_t k) { return SimTime(a.ns_ / k); }

  [[nodiscard]] std::string to_string() const;

private:
  std::int64_t ns_ = 0;
};

/// A data rate in bits per second.
class Rate {
public:
  constexpr Rate() = default;
  constexpr explicit Rate(double bits_per_sec) : bps_(bits_per_sec) {}

  [[nodiscard]] static constexpr Rate bps(double v) { return Rate(v); }
  [[nodiscard]] static constexpr Rate kbps(double v) { return Rate(v * 1e3); }
  [[nodiscard]] static constexpr Rate mbps(double v) { return Rate(v * 1e6); }
  [[nodiscard]] static constexpr Rate gbps(double v) { return Rate(v * 1e9); }

  [[nodiscard]] constexpr double bits_per_sec() const { return bps_; }
  [[nodiscard]] constexpr double mbits_per_sec() const { return bps_ / 1e6; }

  /// Longest serialization time a rate reports: 2^53 ns, about 104 days.
  /// A rate so low (or zero) that a packet would take longer keeps its
  /// link busy past any run, while `now + tx` and path sums of many such
  /// times stay far from int64 overflow.
  static constexpr double kMaxTransmissionNs = 9007199254740992.0;

  /// Time to serialize `bytes` onto a channel of this rate, saturated at
  /// kMaxTransmissionNs (the int64 cast of a larger value is undefined).
  [[nodiscard]] constexpr SimTime transmission_time(std::size_t bytes) const {
    const double bits = static_cast<double>(bytes) * 8.0;
    const double ns = bits / bps_ * 1e9;
    return SimTime(static_cast<std::int64_t>(ns < kMaxTransmissionNs ? ns : kMaxTransmissionNs));
  }

  constexpr auto operator<=>(const Rate&) const = default;

private:
  double bps_ = 0.0;
};

}  // namespace adaptive::sim
