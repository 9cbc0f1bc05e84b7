// Per-stream logical clock (§2.4).
//
// Each stream owns a logical clock, distinct from the system clock. When a
// stream is opened its logical clock reads zero and is stopped; crs_start
// starts it advancing at the stream's recording rate times an optional rate
// factor; crs_stop freezes it; crs_seek repositions it. Clients address
// media data by logical time, and the time-driven buffer discards data whose
// timestamps the logical clock has passed.

#ifndef SRC_CORE_LOGICAL_CLOCK_H_
#define SRC_CORE_LOGICAL_CLOCK_H_

#include <cmath>
#include <cstdint>

#include "src/base/logging.h"
#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace cras {

using crbase::Duration;
using crbase::Time;

class LogicalClock {
 public:
  // Rates are held as an integer count of millionths, so the clock and its
  // inverse are exact integer rescalings of real time (no rounding drift
  // between "when" and "what does it read then"). 1.0 is exactly 1000000.
  static constexpr std::int64_t kRateUnit = 1000000;

  explicit LogicalClock(crsim::Engine& engine) : engine_(&engine) {}

  bool running() const { return running_; }
  double rate() const { return static_cast<double>(rate_) / kRateUnit; }

  // Current logical time. May be negative while an initial delay elapses.
  Time Now() const {
    if (!running_) {
      return base_logical_;
    }
    return base_logical_ + Rescale(engine_->Now() - base_real_, kRateUnit, rate_);
  }

  // The clock's exact inverse: the earliest real (engine) time at which
  // Now() >= `logical` — the current time if it already does, and
  // crbase::kNever while the clock is stopped short of it. Any Start, Stop,
  // SeekTo or SetRate invalidates the answer.
  Time RealTimeOf(Time logical) const {
    const Time now = Now();
    if (logical <= now) {
      return engine_->Now();
    }
    if (!running_) {
      return crbase::kNever;
    }
    // Smallest elapsed e with floor(e * rate / unit) >= logical - base.
    return base_real_ + RescaleUp(logical - base_logical_, rate_, kRateUnit);
  }

  // Starts (or resumes) the clock from its current reading, backed off by
  // `initial_delay` of real time: a freshly opened stream started with delay
  // d reads -d*rate now and exactly zero after d (the startup latency while
  // CRAS fills the first buffers); a stopped stream resumes where it froze.
  void Start(Duration initial_delay = 0) {
    CRAS_CHECK(initial_delay >= 0);
    base_logical_ -= Rescale(initial_delay, kRateUnit, rate_);
    base_real_ = engine_->Now();
    running_ = true;
  }

  // Freezes the clock at its current reading.
  void Stop() {
    base_logical_ = Now();
    running_ = false;
  }

  // Repositions the clock; keeps its running/stopped state.
  void SeekTo(Time logical) {
    base_logical_ = logical;
    base_real_ = engine_->Now();
  }

  // Changes the advance rate without disturbing the current reading.
  // `rate` is rounded to the nearest millionth.
  void SetRate(double rate) {
    const auto scaled = static_cast<std::int64_t>(std::llround(rate * kRateUnit));
    CRAS_CHECK(scaled > 0) << "logical clock rate must be positive";
    base_logical_ = Now();
    base_real_ = engine_->Now();
    rate_ = scaled;
  }

 private:
  // d * to / from for d >= 0, rounded down, without overflowing the
  // product (the rescale_duration idiom).
  static std::int64_t Rescale(std::int64_t d, std::int64_t from, std::int64_t to) {
    return d / from * to + d % from * to / from;
  }
  // As Rescale, rounded up.
  static std::int64_t RescaleUp(std::int64_t d, std::int64_t from, std::int64_t to) {
    return d / from * to + (d % from * to + from - 1) / from;
  }

  crsim::Engine* engine_;
  bool running_ = false;
  std::int64_t rate_ = kRateUnit;
  Time base_logical_ = 0;
  Time base_real_ = 0;
};

}  // namespace cras

#endif  // SRC_CORE_LOGICAL_CLOCK_H_
