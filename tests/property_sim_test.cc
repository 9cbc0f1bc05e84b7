// Property tests for the simulation substrate: engine ordering under random
// schedules, CPU work conservation under both policies, and driver request
// conservation under random mixed workloads.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "src/base/random.h"
#include "src/disk/driver.h"
#include "src/sim/awaitables.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace {

using crbase::Milliseconds;

class EngineOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrdering, RandomScheduleAndCancelFiresInOrder) {
  crsim::Engine engine;
  crbase::Rng rng(GetParam());
  std::vector<std::pair<crbase::Time, std::uint64_t>> fired;  // (time, sequence)
  std::vector<crsim::EventId> ids;
  std::uint64_t sequence = 0;
  for (int i = 0; i < 500; ++i) {
    const crbase::Time t = static_cast<crbase::Time>(rng.NextBelow(1000)) * Milliseconds(1);
    ids.push_back(engine.ScheduleAt(t, [&fired, &engine, &sequence] {
      fired.push_back({engine.Now(), sequence++});
    }));
  }
  // Cancel a random third.
  int cancelled = 0;
  for (crsim::EventId id : ids) {
    if (rng.NextBelow(3) == 0) {
      engine.Cancel(id);
      ++cancelled;
    }
  }
  engine.Run();
  EXPECT_EQ(static_cast<int>(fired.size()), 500 - cancelled);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "time went backwards";
    EXPECT_LT(fired[i - 1].second, fired[i].second) << "callback ran twice or out of order";
  }
}

// Schedules, fires and cancels interleave, the callbacks themselves
// scheduling and cancelling, and every step is checked against a reference
// model: an ordered set of pending (time, schedule order, tag). Cancels aim
// at pending ids, at ids already fired or cancelled, and at a callback's own
// fired id right after it scheduled more — the case where the old id's slot
// now holds a newer event, which the cancel must leave alone.
TEST_P(EngineOrdering, InterleavedScheduleFireAndCancelMatchModel) {
  using Key = std::tuple<crbase::Time, std::uint64_t, std::size_t>;  // (time, order, tag)
  crsim::Engine engine;
  crbase::Rng rng(GetParam());
  std::set<Key> model;
  std::vector<Key> keys;             // by tag
  std::vector<crsim::EventId> ids;   // by tag
  std::vector<std::size_t> fired;    // tags in firing order
  std::uint64_t order = 0;
  constexpr std::size_t kMaxEvents = 3000;

  std::function<void(std::size_t)> on_fire;
  auto schedule = [&] {
    if (ids.size() >= kMaxEvents) {
      return;
    }
    const std::size_t tag = ids.size();
    const crbase::Time t =
        engine.Now() + static_cast<crbase::Time>(rng.NextBelow(20)) * Milliseconds(1);
    keys.push_back({t, order++, tag});
    model.insert(keys.back());
    ids.push_back(engine.ScheduleAt(t, [&on_fire, tag] { on_fire(tag); }));
  };
  auto cancel = [&](std::size_t tag) {
    model.erase(keys[tag]);  // no-op once fired or cancelled
    engine.Cancel(ids[tag]);
  };
  on_fire = [&](std::size_t tag) {
    ASSERT_FALSE(model.empty()) << "event " << tag << " fired with nothing pending";
    const auto [time, ignored, expected] = *model.begin();
    ASSERT_EQ(tag, expected) << "wrong event fired";
    EXPECT_EQ(engine.Now(), time);
    model.erase(model.begin());
    fired.push_back(tag);
    for (std::uint64_t n = rng.NextBelow(3); n > 0; --n) {
      schedule();
    }
    if (rng.NextBelow(2) == 0) {
      cancel(tag);  // already fired; its slot may now hold an event just scheduled
    }
    if (rng.NextBelow(3) == 0) {
      cancel(rng.NextBelow(ids.size()));
    }
    EXPECT_EQ(engine.pending_events(), model.size());
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t action = rng.NextBelow(20);
    if (action < 6) {
      schedule();
    } else if (action < 9 && !ids.empty()) {
      cancel(rng.NextBelow(ids.size()));
    } else {
      const bool had_pending = !model.empty();
      const std::size_t fired_before = fired.size();
      EXPECT_EQ(engine.Step(), had_pending);
      EXPECT_EQ(fired.size(), fired_before + (had_pending ? 1 : 0));
    }
    ASSERT_EQ(engine.pending_events(), model.size()) << "after step " << step;
  }
  engine.Run();
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), fired.size());
  EXPECT_GT(fired.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrdering, ::testing::Values(1u, 2u, 3u, 5u, 8u));

// `name` goes last: gtest's default printer dumps a case's bytes into the
// ctest name, and a leading pointer would put an address-randomised value
// at the front of that name, so it would change from one discovery to the next.
struct CpuCase {
  crsim::SchedPolicy policy;
  int jobs;
  std::uint64_t seed;
  const char* name;
};

class CpuConservation : public ::testing::TestWithParam<CpuCase> {};

// Under any policy and any arrival pattern: total busy time equals total
// requested work, and every job eventually completes no earlier than its
// own work requires.
TEST_P(CpuConservation, WorkIsConservedAndJobsComplete) {
  const CpuCase& c = GetParam();
  crsim::Engine engine;
  crsim::Cpu cpu(engine, c.policy, Milliseconds(7));
  crbase::Rng rng(c.seed);

  struct Job {
    crbase::Duration work;
    crbase::Time arrival;
    crbase::Time finished = -1;
  };
  std::vector<Job> jobs(static_cast<std::size_t>(c.jobs));
  crbase::Duration total_work = 0;
  std::vector<crsim::Task> tasks;
  for (Job& job : jobs) {
    job.work = static_cast<crbase::Duration>(rng.NextBelow(40) + 1) * Milliseconds(1);
    job.arrival = static_cast<crbase::Time>(rng.NextBelow(100)) * Milliseconds(1);
    total_work += job.work;
    const int priority = static_cast<int>(rng.NextBelow(5));
    tasks.push_back([](crsim::Engine& eng, crsim::Cpu& processor, Job* j,
                       int prio) -> crsim::Task {
      co_await crsim::Sleep(eng, j->arrival);
      co_await processor.Run(prio, j->work);
      j->finished = eng.Now();
    }(engine, cpu, &job, priority));
  }
  engine.Run();
  EXPECT_EQ(cpu.busy_time(), total_work);
  EXPECT_EQ(cpu.load(), 0u);
  for (const Job& job : jobs) {
    ASSERT_GE(job.finished, 0) << "job never completed";
    EXPECT_GE(job.finished, job.arrival + job.work);
    // And no later than if it ran dead last behind everything.
    EXPECT_LE(job.finished, Milliseconds(100) + total_work);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CpuConservation,
    ::testing::Values(CpuCase{crsim::SchedPolicy::kFixedPriority, 10, 31, "fp_small"},
                      CpuCase{crsim::SchedPolicy::kFixedPriority, 60, 32, "fp_large"},
                      CpuCase{crsim::SchedPolicy::kRoundRobin, 10, 33, "rr_small"},
                      CpuCase{crsim::SchedPolicy::kRoundRobin, 60, 34, "rr_large"}),
    [](const ::testing::TestParamInfo<CpuCase>& info) { return info.param.name; });

class DriverConservation : public ::testing::TestWithParam<std::uint64_t> {};

// Every submitted request completes exactly once; realtime requests are
// never outlasted by normal requests submitted at the same instant.
TEST_P(DriverConservation, AllRequestsCompleteExactlyOnce) {
  crsim::Engine engine;
  crdisk::DiskDevice::Options device_options;
  device_options.geometry = crdisk::St32550nGeometry();
  crdisk::DiskDevice device(engine, device_options);
  crdisk::DiskDriver driver(engine, device);
  crbase::Rng rng(GetParam());

  const int kRequests = 200;
  std::vector<int> completions(kRequests, 0);
  crbase::Time last_rt_done = 0;
  crbase::Time first_normal_done = 0;
  int submitted_rt = 0;
  for (int i = 0; i < kRequests; ++i) {
    crdisk::DiskRequest req;
    req.lba = static_cast<crdisk::Lba>(
        rng.NextBelow(static_cast<std::uint64_t>(device.geometry().total_sectors() - 256)));
    req.sectors = static_cast<std::int64_t>(rng.NextBelow(255)) + 1;
    req.realtime = rng.NextBelow(2) == 0;
    submitted_rt += req.realtime ? 1 : 0;
    req.on_complete = [&completions, &last_rt_done, &first_normal_done, &engine,
                       i](const crdisk::DiskCompletion& done) {
      ++completions[static_cast<std::size_t>(i)];
      if (done.realtime) {
        last_rt_done = std::max(last_rt_done, engine.Now());
      } else if (first_normal_done == 0) {
        first_normal_done = engine.Now();
      }
    };
    driver.Submit(std::move(req));
  }
  engine.Run();
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(completions[static_cast<std::size_t>(i)], 1) << "request " << i;
  }
  EXPECT_EQ(driver.realtime_stats().completed, submitted_rt);
  EXPECT_EQ(driver.normal_stats().completed, kRequests - submitted_rt);
  // All submitted at t=0: the whole RT queue drains before any normal
  // request other than the very first dispatch (which may have grabbed the
  // idle device before any RT request arrived).
  if (submitted_rt > 1 && first_normal_done > 0) {
    const crdisk::DriverQueueStats& normal = driver.normal_stats();
    EXPECT_GT(normal.total_queue_time, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverConservation, ::testing::Values(5u, 6u, 7u, 8u));

}  // namespace
