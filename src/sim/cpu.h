// Simulated single processor with preemptive scheduling.
//
// Simulated threads consume CPU through `co_await cpu.Run(priority, work)`.
// The Cpu serializes all outstanding work requests according to its policy:
//
//  * kFixedPriority — the highest-priority ready request runs; a newly
//    arriving higher-priority request preempts the running one immediately.
//    This models Real-Time Mach's fixed-priority scheduling, the mode CRAS
//    depends on.
//  * kRoundRobin — ready requests share the processor FIFO with a fixed
//    quantum; priorities are ignored. This is the timesharing policy the
//    paper contrasts in Figure 10.
//
// Higher numeric priority = more important. Preemption accounting is exact:
// a preempted request keeps its remaining work and continues later.

#ifndef SRC_SIM_CPU_H_
#define SRC_SIM_CPU_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <string>

#include "src/base/time_units.h"
#include "src/sim/engine.h"

namespace crsim {

enum class SchedPolicy {
  kFixedPriority,
  kRoundRobin,
};

const char* SchedPolicyName(SchedPolicy policy);

class Cpu {
 public:
  Cpu(Engine& engine, SchedPolicy policy,
      Duration quantum = crbase::Milliseconds(10));
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  // Reclaims frames still queued for (or holding) the processor.
  ~Cpu();

  SchedPolicy policy() const { return policy_; }
  void set_policy(SchedPolicy policy) { policy_ = policy; }
  Duration quantum() const { return quantum_; }

  // Opaque grouping key for Boost(); typically the address of the lock or
  // resource on whose behalf the work runs.
  using Tag = const void*;

  // Awaitable that completes when `work` of CPU time has been consumed under
  // contention. Zero or negative work completes immediately.
  auto Run(int priority, Duration work) { return RunAwaiter{this, priority, work, nullptr}; }

  // As Run, but the request carries `tag` so its priority can later be
  // raised by Boost() — the hook priority-inheritance locks use.
  auto RunTagged(Tag tag, int priority, Duration work) {
    return RunAwaiter{this, priority, work, tag};
  }

  // Raises every queued or running request carrying `tag` to at least
  // `priority`, re-evaluating preemption. No-op on requests already at or
  // above it; ignores untagged work.
  void Boost(Tag tag, int priority);

  // Total CPU time handed out (for utilization accounting).
  Duration busy_time() const { return busy_time_; }

  // Number of requests currently queued or running.
  std::size_t load() const { return ready_.size() + (running_ ? 1 : 0); }

 private:
  struct Request {
    int priority;
    Duration remaining;
    std::coroutine_handle<> handle;
    std::uint64_t seq;  // FIFO tiebreak among equal priorities
    Tag tag = nullptr;
  };

  struct RunAwaiter {
    Cpu* cpu;
    int priority;
    Duration work;
    Tag tag;

    bool await_ready() const { return work <= 0; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {}
  };

  void Enqueue(Request req);
  // Starts the best ready request if the processor is idle.
  void Dispatch();
  // Removes the running request from the processor, charging elapsed time.
  void PreemptRunning();
  void OnSliceEnd();
  // Picks (and removes) the next request to run from ready_.
  Request PopNext();

  Engine* engine_;
  SchedPolicy policy_;
  Duration quantum_;

  std::deque<Request> ready_;
  bool running_ = false;
  Request current_{};
  Time slice_start_ = 0;
  Duration slice_len_ = 0;
  EventId slice_end_ = kInvalidEventId;  // cancelled on preemption
  std::uint64_t next_seq_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace crsim

#endif  // SRC_SIM_CPU_H_
