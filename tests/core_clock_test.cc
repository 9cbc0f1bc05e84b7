#include "src/core/logical_clock.h"

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/base/time_units.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

TEST(LogicalClock, StoppedAtZeroInitially) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  EXPECT_FALSE(clock.running());
  EXPECT_EQ(clock.Now(), 0);
  engine.ScheduleAt(Seconds(5), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);  // stopped clocks do not advance
}

TEST(LogicalClock, AdvancesWithRealTimeWhenRunning) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(3), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, InitialDelayStartsNegative) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start(Seconds(1));
  EXPECT_EQ(clock.Now(), -Seconds(1));
  engine.ScheduleAt(Milliseconds(400), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), -Milliseconds(600));
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);  // logical zero exactly after the delay
}

TEST(LogicalClock, StopFreezesAndResumesFromSameValue) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  clock.Stop();
  engine.ScheduleAt(Seconds(10), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(2));
  clock.Start();
  EXPECT_EQ(clock.Now(), Seconds(2));  // resumes where it froze
  engine.ScheduleAt(Seconds(11), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, SeekRepositions) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  clock.SeekTo(Seconds(42));
  EXPECT_EQ(clock.Now(), Seconds(42));
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(43));
}

TEST(LogicalClock, RateScalesAdvance) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.SetRate(2.0);  // the paper's fast-forward example
  clock.Start();
  engine.ScheduleAt(Seconds(3), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(6));
}

TEST(LogicalClock, RateChangeMidFlightKeepsReading) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.Start();
  engine.ScheduleAt(Seconds(2), [] {});
  engine.Run();
  clock.SetRate(0.5);
  EXPECT_EQ(clock.Now(), Seconds(2));
  engine.ScheduleAt(Seconds(4), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), Seconds(3));
}

TEST(LogicalClock, InitialDelayScalesWithRate) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.SetRate(2.0);
  clock.Start(Seconds(1));
  // After 1 s of real time the clock must read zero regardless of rate.
  engine.ScheduleAt(Seconds(1), [] {});
  engine.Run();
  EXPECT_EQ(clock.Now(), 0);
}

// ---------------------------------------------------------------------------
// The exact inverse: RealTimeOf(x) is the first real time the clock reads x.

TEST(LogicalClock, RealTimeOfIsTheExactInverseOverRandomClocks) {
  crbase::Rng rng(20260419);
  for (int trial = 0; trial < 400; ++trial) {
    crsim::Engine engine;
    LogicalClock clock(engine);
    // Rates from 0.05x to 4x, in the clock's millionths, including awkward
    // ones with no short binary or decimal expansion.
    clock.SetRate(static_cast<double>(rng.NextInRange(50000, 4000000)) / 1e6);
    engine.RunUntil(rng.NextInRange(0, Seconds(3)));
    clock.Start(rng.NextInRange(0, Seconds(2)));  // initial delay
    engine.RunUntil(engine.Now() + rng.NextInRange(0, Seconds(5)));
    if (rng.NextBelow(2) == 0) {
      clock.SeekTo(rng.NextInRange(-Seconds(10), Seconds(100)));
    }
    if (rng.NextBelow(3) == 0) {
      clock.SetRate(static_cast<double>(rng.NextInRange(1, 3000000)) / 1e6);
    }
    const Time target = clock.Now() + rng.NextInRange(-Seconds(1), Seconds(20));
    const Time at = clock.RealTimeOf(target);
    ASSERT_NE(at, crbase::kNever);
    ASSERT_GE(at, engine.Now());
    if (at > engine.Now()) {
      engine.RunUntil(at - 1);
      ASSERT_LT(clock.Now(), target) << "trial " << trial << ": reached a nanosecond early";
      engine.RunUntil(at);
    }
    ASSERT_GE(clock.Now(), target) << "trial " << trial << ": not reached at the inverse";
  }
}

TEST(LogicalClock, RealTimeOfAStoppedClockIsNever) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  EXPECT_EQ(clock.RealTimeOf(Seconds(1)), crbase::kNever);  // never started
  EXPECT_EQ(clock.RealTimeOf(0), 0) << "a reading already reached is reached now";
  clock.Start(Seconds(1));
  EXPECT_EQ(clock.RealTimeOf(0), Seconds(1));
  engine.RunUntil(Milliseconds(500));
  clock.Stop();
  EXPECT_EQ(clock.RealTimeOf(0), crbase::kNever);
  EXPECT_EQ(clock.RealTimeOf(-Seconds(1)), Milliseconds(500));
  clock.Start();
  EXPECT_EQ(clock.RealTimeOf(0), Seconds(1));
}

TEST(LogicalClock, RateRoundsToMillionths) {
  crsim::Engine engine;
  LogicalClock clock(engine);
  clock.SetRate(1.0 / 3.0);
  EXPECT_DOUBLE_EQ(clock.rate(), 0.333333);
  clock.Start();
  engine.RunUntil(Seconds(3));
  EXPECT_EQ(clock.Now(), Milliseconds(999) + crbase::Microseconds(999));
  // One more logical nanosecond takes ceil(1e6 / 333333) real ones here.
  EXPECT_EQ(clock.RealTimeOf(clock.Now() + 1), Seconds(3) + 4);
}

}  // namespace
}  // namespace cras
