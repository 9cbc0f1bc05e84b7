#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/time_units.h"

namespace crsim {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.Now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  e.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  e.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), Milliseconds(30));
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.ScheduleAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Time fired_at = -1;
  e.ScheduleAt(Seconds(1), [&] {
    e.ScheduleAfter(Milliseconds(250), [&] { fired_at = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(fired_at, Seconds(1) + Milliseconds(250));
}

TEST(Engine, PastTimesClampToNow) {
  Engine e;
  e.ScheduleAt(Seconds(1), [] {});
  e.Run();
  Time fired_at = -1;
  e.ScheduleAfter(-Milliseconds(5), [&] { fired_at = e.Now(); });
  e.Run();
  EXPECT_EQ(fired_at, Seconds(1));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  EventId id = e.ScheduleAt(Milliseconds(1), [&] { fired = true; });
  e.Cancel(id);
  e.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.events_fired(), 0u);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.Cancel(kInvalidEventId);
  e.Cancel(9999);
  bool fired = false;
  e.ScheduleAfter(0, [&] { fired = true; });
  EXPECT_EQ(e.pending_events(), 1u);
  e.Run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilAdvancesClockExactly) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(Milliseconds(10), [&] { ++fired; });
  e.ScheduleAt(Milliseconds(90), [&] { ++fired; });
  e.RunUntil(Milliseconds(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.Now(), Milliseconds(50));
  e.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunForIsRelative) {
  Engine e;
  e.ScheduleAt(Milliseconds(10), [] {});
  e.RunFor(Milliseconds(25));
  EXPECT_EQ(e.Now(), Milliseconds(25));
  e.RunFor(Milliseconds(25));
  EXPECT_EQ(e.Now(), Milliseconds(50));
}

TEST(Engine, StopHaltsRun) {
  Engine e;
  int fired = 0;
  e.ScheduleAt(Milliseconds(1), [&] {
    ++fired;
    e.Stop();
  });
  e.ScheduleAt(Milliseconds(2), [&] { ++fired; });
  e.Run();
  EXPECT_EQ(fired, 1);
  e.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      e.ScheduleAfter(Milliseconds(1), chain);
    }
  };
  e.ScheduleAfter(0, chain);
  e.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.Now(), Milliseconds(99));
}

TEST(Engine, StepRunsExactlyOneEvent) {
  Engine e;
  int fired = 0;
  e.ScheduleAfter(1, [&] { ++fired; });
  e.ScheduleAfter(2, [&] { ++fired; });
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(e.Step());
}

TEST(Engine, StepSkipsCancelledEvents) {
  Engine e;
  int fired = 0;
  EventId a = e.ScheduleAfter(1, [&] { ++fired; });
  e.ScheduleAfter(2, [&] { ++fired; });
  e.Cancel(a);
  EXPECT_TRUE(e.Step());  // skips the cancelled event, runs the live one
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.Step());
}

}  // namespace
}  // namespace crsim
