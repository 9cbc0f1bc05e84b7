// Basic awaitables: virtual-time sleep and manual-reset gates.

#ifndef SRC_SIM_AWAITABLES_H_
#define SRC_SIM_AWAITABLES_H_

#include <coroutine>
#include <vector>

#include "src/base/time_units.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace crsim {

// `co_await Sleep(engine, d)` suspends the coroutine for `d` of virtual time.
struct SleepAwaiter {
  Engine* engine;
  Duration delay;

  bool await_ready() const { return delay <= 0; }
  void await_suspend(std::coroutine_handle<> h) { engine->ScheduleResumeAfter(delay, h); }
  void await_resume() const {}
};

inline SleepAwaiter Sleep(Engine& engine, Duration delay) { return SleepAwaiter{&engine, delay}; }

// `co_await SleepUntil(engine, t)` suspends until absolute virtual time `t`.
inline SleepAwaiter SleepUntil(Engine& engine, Time t) {
  return SleepAwaiter{&engine, t - engine.Now()};
}

// Parked waiters with optional deadlines, woken together — the simulated
// form of a thread blocking on a port with a timeout. `co_await
// list.Wait(t)` resumes at absolute time t (crbase::kNever: no timeout) or
// at the first Notify() after it parked, whichever comes first; either way
// the waiter re-checks what it waits for. Notify() wakes waiters in the
// order they parked, each through a zero-delay event, so wakeups serialize
// deterministically with other same-time events. A woken waiter's timer is
// cancelled, never left to fire as a no-op.
class WaitList {
 public:
  explicit WaitList(Engine& engine) : engine_(&engine) {}
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  // Reclaims still-parked frames (as Gate does); their timers die with them.
  ~WaitList() {
    std::vector<Waiter> waiters = std::move(waiters_);
    for (const Waiter& w : waiters) {
      engine_->Cancel(w.timer);
      DestroyParkedChain(w.handle);
    }
  }

  auto Wait(Time wake_at) {
    struct Awaiter {
      WaitList* list;
      Time wake_at;
      bool await_ready() const { return wake_at <= list->engine_->Now(); }
      void await_suspend(std::coroutine_handle<> h) {
        EventId timer = kInvalidEventId;
        if (wake_at != crbase::kNever) {
          WaitList* self = list;
          timer = list->engine_->ScheduleAt(wake_at, [self, h] { self->Expire(h); }, h);
        }
        list->waiters_.push_back(Waiter{h, timer});
      }
      void await_resume() const {}
    };
    return Awaiter{this, wake_at};
  }

  void Notify() {
    std::vector<Waiter> waiters = std::move(waiters_);
    waiters_.clear();
    for (const Waiter& w : waiters) {
      engine_->Cancel(w.timer);
      engine_->ScheduleResumeAfter(0, w.handle);
    }
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    EventId timer = kInvalidEventId;
  };

  // Deadline reached before any Notify(): unlist and resume.
  void Expire(std::coroutine_handle<> h) {
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->handle == h) {
        waiters_.erase(it);
        break;
      }
    }
    h.resume();
  }

  Engine* engine_;
  std::vector<Waiter> waiters_;
};

// A manual-reset event. Waiters block until Open() is called; once open,
// waits complete immediately until Close().
class Gate {
 public:
  explicit Gate(Engine& engine, bool open = false) : engine_(&engine), open_(open) {}

  ~Gate() {
    std::vector<std::coroutine_handle<>> waiters = std::move(waiters_);
    for (std::coroutine_handle<> h : waiters) {
      DestroyParkedChain(h);
    }
  }

  void Open() {
    open_ = true;
    // Wake every waiter through the event queue so wakeups serialize with
    // other same-time events deterministically.
    for (std::coroutine_handle<> h : waiters_) {
      engine_->ScheduleResumeAfter(0, h);
    }
    waiters_.clear();
  }

  void Close() { open_ = false; }
  bool is_open() const { return open_; }

  auto Wait() {
    struct Awaiter {
      Gate* gate;
      bool await_ready() const { return gate->open_; }
      void await_suspend(std::coroutine_handle<> h) { gate->waiters_.push_back(h); }
      void await_resume() const {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  bool open_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace crsim

#endif  // SRC_SIM_AWAITABLES_H_
