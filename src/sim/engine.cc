#include "src/sim/engine.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/sim/task.h"

namespace crsim {

namespace {
// Ids keep 64 - kSlotBits bits for the sequence number.
constexpr std::uint64_t kSequenceLimit = std::uint64_t{1} << 40;
}  // namespace

Engine::~Engine() {
  // Destroying a parked frame runs frame-local destructors, which may
  // release semaphores or send to ports and thereby schedule fresh events —
  // hence the loop keeps draining until the heap is truly empty.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const EventId id = heap_.back().id;
    heap_.pop_back();
    const std::uint64_t index = id & kSlotMask;
    if (slots_[index].id != id) {
      continue;  // stale key: the event was cancelled
    }
    Slot event = Release(index);
    event.cb = nullptr;  // a callback dies before the frame it may refer to
    if (event.parked) {
      DestroyParkedChain(event.parked);
    }
  }
}

EventId Engine::ScheduleAt(Time t, Callback cb) { return ScheduleAt(t, std::move(cb), {}); }

EventId Engine::ScheduleAt(Time t, Callback cb, std::coroutine_handle<> parked) {
  CRAS_CHECK(cb != nullptr);
  const EventId id = Push(t, parked);
  slots_[id & kSlotMask].cb = std::move(cb);
  return id;
}

EventId Engine::ScheduleAfter(Duration d, Callback cb) {
  return ScheduleAfter(d, std::move(cb), {});
}

EventId Engine::ScheduleAfter(Duration d, Callback cb, std::coroutine_handle<> parked) {
  return ScheduleAt(now_ + std::max<Duration>(d, 0), std::move(cb), parked);
}

EventId Engine::ScheduleResumeAt(Time t, std::coroutine_handle<> h) {
  CRAS_CHECK(h != nullptr);
  return Push(t, h);
}

EventId Engine::ScheduleResumeAfter(Duration d, std::coroutine_handle<> h) {
  return ScheduleResumeAt(now_ + std::max<Duration>(d, 0), h);
}

EventId Engine::Push(Time t, std::coroutine_handle<> parked) {
  CRAS_CHECK(next_sequence_ < kSequenceLimit) << "event sequence numbers exhausted";
  std::uint64_t index;
  if (free_slots_.empty()) {
    CRAS_CHECK(slots_.size() <= kSlotMask) << "more than 2^24 pending events";
    index = slots_.size();
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id = next_sequence_++ << kSlotBits | index;
  slots_[index].id = id;
  slots_[index].parked = parked;
  heap_.push_back(Key{std::max(t, now_), id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++pending_;
  return id;
}

Engine::Slot Engine::Release(std::uint64_t index) {
  Slot& slot = slots_[index];
  Slot out{slot.id, std::move(slot.cb), slot.parked};
  slot.id = kInvalidEventId;
  slot.cb = nullptr;
  slot.parked = {};
  free_slots_.push_back(static_cast<std::uint32_t>(index));
  --pending_;
  return out;
}

void Engine::Cancel(EventId id) {
  const std::uint64_t index = id & kSlotMask;
  if (id != kInvalidEventId && index < slots_.size() && slots_[index].id == id) {
    Release(index);
  }
}

bool Engine::FireTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  const std::uint64_t index = key.id & kSlotMask;
  if (slots_[index].id != key.id) {
    return false;  // stale key: the event was cancelled
  }
  CRAS_CHECK(key.time >= now_) << "event time went backwards";
  now_ = key.time;
  ++events_fired_;
  // Free the slot before running: the event may schedule or cancel others.
  Slot event = Release(index);
  if (event.cb) {
    event.cb();
  } else {
    event.parked.resume();
  }
  return true;
}

bool Engine::Step() {
  while (!heap_.empty()) {
    if (FireTop()) {
      return true;
    }
  }
  return false;
}

void Engine::Run() {
  stopped_ = false;
  while (!stopped_ && !heap_.empty()) {
    FireTop();
  }
}

void Engine::RunUntil(Time t) {
  CRAS_CHECK(t >= now_) << "cannot run into the past";
  stopped_ = false;
  while (!stopped_ && !heap_.empty() && heap_.front().time <= t) {
    FireTop();
  }
  if (!stopped_ && now_ < t) {
    now_ = t;
  }
}

void Engine::RunFor(Duration d) { RunUntil(now_ + d); }

}  // namespace crsim
