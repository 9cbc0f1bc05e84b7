#include "src/sim/cpu.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/sim/awaitables.h"
#include "src/sim/task.h"

namespace crsim {
namespace {

using crbase::Milliseconds;
using crbase::Time;

struct Completion {
  std::string name;
  Time at;
};

Task Work(Cpu& cpu, int priority, Duration work, std::string name, Engine& e,
          std::vector<Completion>* log) {
  co_await cpu.Run(priority, work);
  log->push_back({std::move(name), e.Now()});
}

TEST(Cpu, SingleRequestTakesExactlyItsWork) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task t = Work(cpu, 5, Milliseconds(30), "a", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].at, Milliseconds(30));
  EXPECT_EQ(cpu.busy_time(), Milliseconds(30));
}

TEST(Cpu, ZeroWorkCompletesImmediately) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task t = Work(cpu, 5, 0, "a", e, &log);
  EXPECT_TRUE(t.done());
}

TEST(Cpu, FixedPriorityRunsHigherFirst) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  // Both arrive at t=0; high priority must finish first even though it was
  // enqueued second.
  Task lo = Work(cpu, 1, Milliseconds(10), "lo", e, &log);
  Task hi = Work(cpu, 9, Milliseconds(10), "hi", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "hi");
  EXPECT_EQ(log[1].name, "lo");
  EXPECT_EQ(log[1].at, Milliseconds(20));
}

TEST(Cpu, FixedPriorityPreemptsImmediately) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task lo = Work(cpu, 1, Milliseconds(100), "lo", e, &log);
  Task spawner = [](Engine& eng, Cpu& c, std::vector<Completion>* l) -> Task {
    co_await Sleep(eng, Milliseconds(10));
    co_await c.Run(9, Milliseconds(5));
    l->push_back({"hi", eng.Now()});
  }(e, cpu, &log);
  e.Run();
  ASSERT_EQ(log.size(), 2u);
  // hi arrives at 10ms, runs 5ms, finishes at 15ms; lo resumes and finishes
  // its remaining 90ms at 105ms.
  EXPECT_EQ(log[0].name, "hi");
  EXPECT_EQ(log[0].at, Milliseconds(15));
  EXPECT_EQ(log[1].name, "lo");
  EXPECT_EQ(log[1].at, Milliseconds(105));
}

TEST(Cpu, FixedPriorityEqualPrioritiesAreFifo) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task a = Work(cpu, 5, Milliseconds(10), "a", e, &log);
  Task b = Work(cpu, 5, Milliseconds(10), "b", e, &log);
  Task c = Work(cpu, 5, Milliseconds(10), "c", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].name, "a");
  EXPECT_EQ(log[1].name, "b");
  EXPECT_EQ(log[2].name, "c");
}

TEST(Cpu, RoundRobinSharesWithQuantum) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kRoundRobin, Milliseconds(10));
  std::vector<Completion> log;
  // Two 20ms jobs: with a 10ms quantum they interleave a,b,a,b and finish at
  // 30 and 40ms regardless of priority.
  Task a = Work(cpu, 1, Milliseconds(20), "a", e, &log);
  Task b = Work(cpu, 9, Milliseconds(20), "b", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "a");
  EXPECT_EQ(log[0].at, Milliseconds(30));
  EXPECT_EQ(log[1].name, "b");
  EXPECT_EQ(log[1].at, Milliseconds(40));
}

TEST(Cpu, RoundRobinIgnoresPriority) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kRoundRobin, Milliseconds(10));
  std::vector<Completion> log;
  Task lo = Work(cpu, 1, Milliseconds(10), "lo", e, &log);
  Task hi = Work(cpu, 9, Milliseconds(10), "hi", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "lo");  // FIFO order, not priority order
}

TEST(Cpu, RoundRobinShortJobFinishesWithinQuantum) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kRoundRobin, Milliseconds(10));
  std::vector<Completion> log;
  Task a = Work(cpu, 0, Milliseconds(4), "a", e, &log);
  Task b = Work(cpu, 0, Milliseconds(4), "b", e, &log);
  e.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].at, Milliseconds(4));
  EXPECT_EQ(log[1].at, Milliseconds(8));
}

TEST(Cpu, BusyTimeAccountsAllWork) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kRoundRobin, Milliseconds(7));
  std::vector<Completion> log;
  Task a = Work(cpu, 0, Milliseconds(33), "a", e, &log);
  Task b = Work(cpu, 0, Milliseconds(19), "b", e, &log);
  e.Run();
  EXPECT_EQ(cpu.busy_time(), Milliseconds(52));
}

TEST(Cpu, PreemptionConservesTotalWork) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task lo = Work(cpu, 1, Milliseconds(50), "lo", e, &log);
  // Three high-priority 5ms interruptions.
  Task intr = [](Engine& eng, Cpu& c, std::vector<Completion>* l) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await Sleep(eng, Milliseconds(10));
      co_await c.Run(9, Milliseconds(5));
    }
    l->push_back({"intr", eng.Now()});
  }(e, cpu, &log);
  e.Run();
  // lo needs 50ms of CPU; 15ms of interruptions inserted => finishes at 65ms.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].name, "lo");
  EXPECT_EQ(log[1].at, Milliseconds(65));
  EXPECT_EQ(cpu.busy_time(), Milliseconds(65));
}

TEST(Cpu, LoadReportsQueuedAndRunning) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task a = Work(cpu, 1, Milliseconds(10), "a", e, &log);
  Task b = Work(cpu, 1, Milliseconds(10), "b", e, &log);
  EXPECT_EQ(cpu.load(), 2u);
  e.Run();
  EXPECT_EQ(cpu.load(), 0u);
}

// A slice that has finished but whose resume is still queued when the
// engine is destroyed reclaims the request's frame.
TEST(Cpu, FinishedSlicePendingAtTeardownIsReclaimed) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task t = Work(cpu, 5, Milliseconds(10), "a", e, &log);
  // Fires after the slice end at the same instant, before the resume.
  e.ScheduleAt(Milliseconds(10), [&] { e.Stop(); });
  e.Run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(cpu.load(), 0u);
  EXPECT_EQ(e.pending_events(), 1u);  // the resume
}

// A preemption at the instant a slice completes finishes the request and
// cancels its slice-end event rather than leaving a no-op queued.
TEST(Cpu, PreemptionAtSliceEndCancelsTheSliceEvent) {
  Engine e;
  Cpu cpu(e, SchedPolicy::kFixedPriority);
  std::vector<Completion> log;
  Task hi = [](Engine& eng, Cpu& c, std::vector<Completion>* out) -> Task {
    co_await Sleep(eng, Milliseconds(10));
    co_await c.Run(9, Milliseconds(5));
    out->push_back({"hi", eng.Now()});
  }(e, cpu, &log);
  Task lo = Work(cpu, 1, Milliseconds(10), "lo", e, &log);
  e.RunUntil(Milliseconds(10) - 1);
  // hi's wakeup precedes lo's slice end at t=10: lo is done, hi runs, and
  // only lo's resume and hi's slice end are queued.
  ASSERT_TRUE(e.Step());
  EXPECT_EQ(e.Now(), Milliseconds(10));
  EXPECT_EQ(e.pending_events(), 2u);
  e.Run();
  EXPECT_EQ(e.events_fired(), 4u);  // hi's wakeup, lo's resume, hi's slice end and resume
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].name, "lo");
  EXPECT_EQ(log[0].at, Milliseconds(10));
  EXPECT_EQ(log[1].name, "hi");
  EXPECT_EQ(log[1].at, Milliseconds(15));
  EXPECT_EQ(cpu.busy_time(), Milliseconds(15));
}

}  // namespace
}  // namespace crsim
