// A Real-Time-Mach-flavoured kernel facade over the simulation engine.
//
// Real-Time Mach gives CRAS three things the paper depends on: named threads
// with fixed-priority preemptive scheduling, periodic threads with deadline
// notification, and the ability to wire server memory. This layer provides
// simulated equivalents:
//
//   * Kernel        — owns the Engine (virtual time) and one Cpu.
//   * Spawn()       — creates a named simulated thread with a priority; the
//                     thread body is a coroutine receiving a ThreadContext.
//   * ThreadContext — per-thread services: Sleep, Compute (CPU time charged
//                     at the thread's priority), Now.
//   * WireMemory()  — accounting for memory that must stay resident (the
//                     paper wires the whole server: ~250 KB + buffers).

#ifndef SRC_RTMACH_KERNEL_H_
#define SRC_RTMACH_KERNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/base/time_units.h"
#include "src/sim/awaitables.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace crrt {

using crbase::Duration;
using crbase::Time;

// Conventional priority bands (higher = more urgent). CRAS server threads
// run above every client and every timesharing task, as the paper requires.
inline constexpr int kPriorityIdle = 0;
inline constexpr int kPriorityTimesharing = 10;
inline constexpr int kPriorityClient = 20;
inline constexpr int kPriorityUnixServer = 25;
inline constexpr int kPriorityServer = 30;
inline constexpr int kPriorityServerHigh = 40;

class Kernel;

// Handed to every thread body; identifies the thread and proxies kernel
// services at its priority.
class ThreadContext {
 public:
  ThreadContext(Kernel& kernel, std::string name, int priority)
      : kernel_(&kernel), name_(std::move(name)), priority_(priority) {}

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  Kernel& kernel() { return *kernel_; }

  Time Now() const;
  // Suspends for `d` of virtual time (not CPU time; the thread is blocked).
  crsim::SleepAwaiter Sleep(Duration d) const;
  // Consumes `work` of CPU time under contention at this thread's priority.
  auto Compute(Duration work) const;

 private:
  Kernel* kernel_;
  std::string name_;
  int priority_;
};

class Kernel {
 public:
  struct Options {
    crsim::SchedPolicy policy = crsim::SchedPolicy::kFixedPriority;
    Duration quantum = crbase::Milliseconds(10);
  };

  Kernel();
  explicit Kernel(const Options& options);
  // A kernel (host) sharing another's virtual-time engine: two machines on
  // one timeline, each with its own processor. Used for distributed
  // configurations (the QtPlay server/client pair of Figure 11).
  Kernel(crsim::Engine& shared_engine, const Options& options);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  crsim::Engine& engine() { return *engine_; }
  crsim::Cpu& cpu() { return cpu_; }
  Time Now() const { return engine_->Now(); }

  // Spawns a named thread. The ThreadContext lives as long as the thread's
  // coroutine; the returned Task may be awaited (join) or dropped (detach).
  crsim::Task Spawn(std::string name, int priority,
                    std::function<crsim::Task(ThreadContext&)> body);

  // Wired (resident) memory accounting.
  void WireMemory(const std::string& owner, std::int64_t bytes);
  void UnwireMemory(const std::string& owner, std::int64_t bytes);
  std::int64_t wired_bytes() const { return wired_bytes_; }

  std::size_t live_threads() const { return live_threads_; }

 private:
  std::unique_ptr<crsim::Engine> owned_engine_;  // null when sharing
  crsim::Engine* engine_;
  crsim::Cpu cpu_;
  std::size_t live_threads_ = 0;
  std::int64_t wired_bytes_ = 0;
};

inline Time ThreadContext::Now() const { return kernel_->Now(); }

inline crsim::SleepAwaiter ThreadContext::Sleep(Duration d) const {
  return crsim::Sleep(kernel_->engine(), d);
}

inline auto ThreadContext::Compute(Duration work) const {
  return kernel_->cpu().Run(priority_, work);
}

}  // namespace crrt

#endif  // SRC_RTMACH_KERNEL_H_
