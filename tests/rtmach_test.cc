// Kernel facade and periodic-thread tests.

#include "src/rtmach/kernel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/rtmach/periodic.h"
#include "src/sim/port.h"

namespace crrt {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

TEST(Kernel, SpawnRunsNamedThread) {
  Kernel kernel;
  std::string seen_name;
  int seen_priority = 0;
  crsim::Task t = kernel.Spawn("worker", kPriorityServer, [&](ThreadContext& ctx) -> crsim::Task {
    seen_name = ctx.name();
    seen_priority = ctx.priority();
    co_return;
  });
  kernel.engine().Run();
  EXPECT_EQ(seen_name, "worker");
  EXPECT_EQ(seen_priority, kPriorityServer);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(kernel.live_threads(), 0u);
}

TEST(Kernel, ComputeChargesCpuAtThreadPriority) {
  Kernel kernel;
  std::vector<std::string> completion_order;
  crsim::Task lo = kernel.Spawn("lo", kPriorityTimesharing, [&](ThreadContext& ctx) -> crsim::Task {
    co_await ctx.Compute(Milliseconds(20));
    completion_order.push_back("lo");
  });
  crsim::Task hi = kernel.Spawn("hi", kPriorityServer, [&](ThreadContext& ctx) -> crsim::Task {
    co_await ctx.Compute(Milliseconds(20));
    completion_order.push_back("hi");
  });
  kernel.engine().Run();
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], "hi");
}

// Each thread's context belongs to its coroutine frame: finished threads
// leave nothing behind, and a detached thread still parked when the kernel
// is destroyed is reclaimed with its context (leak detection checks both).
TEST(Kernel, ThreadContextsLiveExactlyAsLongAsTheirThreads) {
  int finished = 0;
  {
    Kernel kernel;
    for (int i = 0; i < 200; ++i) {
      kernel
          .Spawn("short" + std::to_string(i), kPriorityClient,
                 [&finished, i](ThreadContext& ctx) -> crsim::Task {
                   co_await ctx.Sleep(Milliseconds(i % 7));
                   co_await ctx.Compute(Milliseconds(1));
                   ++finished;
                 })
          .Detach();
    }
    kernel.engine().Run();
    EXPECT_EQ(finished, 200);
    EXPECT_EQ(kernel.live_threads(), 0u);

    kernel
        .Spawn("parked", kPriorityServer,
               [](ThreadContext& ctx) -> crsim::Task { co_await ctx.Sleep(Seconds(60)); })
        .Detach();
    kernel.engine().RunFor(Seconds(1));
    EXPECT_EQ(kernel.live_threads(), 1u);
  }
  EXPECT_EQ(finished, 200);
}

TEST(Kernel, WiredMemoryAccounting) {
  Kernel kernel;
  kernel.WireMemory("cras", 250 * 1024);
  kernel.WireMemory("buffers", 4 * 1024 * 1024);
  EXPECT_EQ(kernel.wired_bytes(), 250 * 1024 + 4 * 1024 * 1024);
  kernel.UnwireMemory("buffers", 4 * 1024 * 1024);
  EXPECT_EQ(kernel.wired_bytes(), 250 * 1024);
}

TEST(PeriodicTimer, TicksAtExactBoundaries) {
  Kernel kernel;
  std::vector<crbase::Time> ticks;
  crsim::Task t = kernel.Spawn("periodic", kPriorityServer, [&](ThreadContext& ctx) -> crsim::Task {
    PeriodicTimer timer(ctx.kernel().engine(), Milliseconds(500));
    for (int i = 0; i < 4; ++i) {
      PeriodTick tick = co_await timer.NextPeriod();
      ticks.push_back(ctx.Now());
      EXPECT_EQ(tick.index, i + 1);
      EXPECT_EQ(tick.lateness, 0);
    }
  });
  kernel.engine().Run();
  ASSERT_EQ(ticks.size(), 4u);
  EXPECT_EQ(ticks[0], Milliseconds(500));
  EXPECT_EQ(ticks[3], Milliseconds(2000));
}

TEST(PeriodicTimer, OverrunReportsDeadlineMiss) {
  Kernel kernel;
  crsim::Port<DeadlineMiss> deadline_port(kernel.engine());
  std::vector<DeadlineMiss> misses;
  crsim::Task consumer =
      kernel.Spawn("deadline-mgr", kPriorityServerHigh, [&](ThreadContext&) -> crsim::Task {
        DeadlineMiss miss = co_await deadline_port.Receive();
        misses.push_back(miss);
      });
  crsim::Task t = kernel.Spawn("overrunner", kPriorityServer, [&](ThreadContext& ctx) -> crsim::Task {
    PeriodicTimer timer(ctx.kernel().engine(), Milliseconds(100), &deadline_port);
    PeriodTick first = co_await timer.NextPeriod();
    EXPECT_EQ(first.lateness, 0);
    // Overrun the next period by 30 ms of blocking work.
    co_await ctx.Sleep(Milliseconds(130));
    PeriodTick late = co_await timer.NextPeriod();
    EXPECT_EQ(late.lateness, Milliseconds(30));
    EXPECT_EQ(timer.deadline_misses(), 1);
  });
  kernel.engine().Run();
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].overrun, Milliseconds(30));
  EXPECT_EQ(misses[0].period_index, 2);
}

TEST(PeriodicTimer, CatchesUpAfterLongOverrun) {
  Kernel kernel;
  std::vector<std::int64_t> indices;
  crsim::Task t = kernel.Spawn("p", kPriorityServer, [&](ThreadContext& ctx) -> crsim::Task {
    PeriodicTimer timer(ctx.kernel().engine(), Milliseconds(100));
    co_await ctx.Sleep(Milliseconds(350));  // miss boundaries 1, 2, 3
    for (int i = 0; i < 3; ++i) {
      PeriodTick tick = co_await timer.NextPeriod();
      indices.push_back(tick.index);
    }
  });
  kernel.engine().Run();
  // Periods 1..3 fire immediately (late), then the timer realigns.
  ASSERT_EQ(indices.size(), 3u);
  EXPECT_EQ(indices[0], 1);
  EXPECT_EQ(indices[2], 3);
}

TEST(Kernel, RoundRobinPolicySelectable) {
  Kernel::Options options;
  options.policy = crsim::SchedPolicy::kRoundRobin;
  options.quantum = Milliseconds(5);
  Kernel kernel(options);
  EXPECT_EQ(kernel.cpu().policy(), crsim::SchedPolicy::kRoundRobin);
  EXPECT_EQ(kernel.cpu().quantum(), Milliseconds(5));
}

}  // namespace
}  // namespace crrt
