// Discrete-event simulation engine.
//
// The engine owns virtual time: a monotonic nanosecond clock that advances
// only when the next pending event fires. All simulated activity — thread
// wakeups, disk completions, CPU slice expirations — is an event. Execution
// is strictly deterministic: events at equal timestamps fire in scheduling
// order (FIFO by sequence number).
//
// Layout: the binary heap holds only 16-byte (time, id) keys. An event's
// callback and parked frame live in a slot of `slots_`, recycled through a
// free list. An id is `sequence << kSlotBits | slot`, so ids compare in
// scheduling order and name their slot. Cancel() frees the slot at once; a
// popped key whose slot no longer holds its id is stale and is skipped.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/time_units.h"

namespace crsim {

using crbase::Duration;
using crbase::Time;

// Identifies a scheduled event so it can be cancelled.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  // Reclaims coroutine frames parked on still-pending wakeup events (see
  // ScheduleResumeAt) so that tearing a simulation down mid-flight leaks
  // nothing. Runs after every other simulation object's destructor in the
  // standard rig layouts (the engine is declared first / owned by Kernel).
  ~Engine();

  // Current virtual time.
  Time Now() const { return now_; }

  // Schedules `cb` to run at absolute virtual time `t` (>= Now()).
  EventId ScheduleAt(Time t, Callback cb);

  // Schedules `cb` to run `d` from now. d < 0 is clamped to 0.
  EventId ScheduleAfter(Duration d, Callback cb);

  // As ScheduleAt/ScheduleAfter, but additionally records that `parked` is a
  // coroutine suspended solely waiting for this event (which `cb` will
  // resume). If the engine is destroyed while the event is still pending and
  // uncancelled, the frame — and every frame awaiting it — is destroyed
  // instead of leaked. All coroutine wakeups should flow through these.
  EventId ScheduleAt(Time t, Callback cb, std::coroutine_handle<> parked);
  EventId ScheduleAfter(Duration d, Callback cb, std::coroutine_handle<> parked);

  // The common pure-wakeup form: the event just resumes `h`. It carries no
  // callback, only the parked handle.
  EventId ScheduleResumeAt(Time t, std::coroutine_handle<> h);
  EventId ScheduleResumeAfter(Duration d, std::coroutine_handle<> h);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op (events self-expire), which keeps "cancel my timeout" call sites
  // simple.
  void Cancel(EventId id);

  // Runs the single next event. Returns false if the queue is empty.
  bool Step();

  // Runs until the queue is empty or Stop() is called.
  void Run();

  // Runs all events with time <= t, then sets Now() to exactly t.
  void RunUntil(Time t);

  // Runs for `d` of virtual time from Now().
  void RunFor(Duration d);

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  std::size_t pending_events() const { return pending_; }
  std::uint64_t events_fired() const { return events_fired_; }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  struct Key {
    Time time;
    EventId id;
  };
  static_assert(sizeof(Key) == 16);
  // Orders the heap so its front is the earliest key, FIFO among equal times.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.id > b.id;
    }
  };
  // A free slot has id kInvalidEventId, no callback and no parked handle.
  struct Slot {
    EventId id = kInvalidEventId;
    Callback cb;                       // empty for a pure resume
    std::coroutine_handle<> parked{};  // frame waiting on this event, if any
  };

  // Claims a slot for an event at `t` (clamped to Now()) and pushes its key.
  EventId Push(Time t, std::coroutine_handle<> parked);
  // Frees the slot of a pending event, handing back its contents.
  Slot Release(std::uint64_t index);
  // Pops the top key and runs its event; assumes the heap is non-empty.
  // Returns false if the key was stale (its event was cancelled).
  bool FireTop();

  Time now_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t events_fired_ = 0;
  std::size_t pending_ = 0;
  bool stopped_ = false;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace crsim

#endif  // SRC_SIM_ENGINE_H_
