// Virtual-time units used throughout the simulator.
//
// All simulated time is kept as a signed 64-bit count of nanoseconds. The
// paper's measurements were taken with a 1 microsecond AM9513 timer board;
// nanosecond resolution is strictly finer, and 64 bits cover ±292 years of
// simulated time, far beyond any experiment here.

#ifndef SRC_BASE_TIME_UNITS_H_
#define SRC_BASE_TIME_UNITS_H_

#include <cstdint>
#include <string>

namespace crbase {

// A point in simulated time, or a span of simulated time, in nanoseconds.
using Time = std::int64_t;
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000 * kNanosecond;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

constexpr Duration Nanoseconds(std::int64_t n) { return n; }
constexpr Duration Microseconds(std::int64_t n) { return n * kMicrosecond; }
constexpr Duration Milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Duration Seconds(std::int64_t n) { return n * kSecond; }

// "Not at any time": what an exact wakeup computes for an event that cannot
// happen until something else changes (a stopped clock never reaches a
// later reading). Later than every reachable simulated time.
inline constexpr Time kNever = INT64_MAX;

// Converts a floating point count of seconds/milliseconds to a Duration,
// rounding to the nearest nanosecond.
constexpr Duration SecondsF(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond) + (s >= 0 ? 0.5 : -0.5));
}
constexpr Duration MillisecondsF(double ms) {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond) + (ms >= 0 ? 0.5 : -0.5));
}

constexpr double ToSeconds(Duration d) { return static_cast<double>(d) / kSecond; }
constexpr double ToMilliseconds(Duration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToMicroseconds(Duration d) { return static_cast<double>(d) / kMicrosecond; }

// Renders a duration with an adaptive unit, e.g. "3.20ms" or "1.500s".
// Intended for logs and bench output, not for parsing.
std::string FormatDuration(Duration d);

}  // namespace crbase

#endif  // SRC_BASE_TIME_UNITS_H_
