#include "src/core/time_driven_buffer.h"

#include <algorithm>
#include <iterator>

#include "src/base/logging.h"

namespace cras {

TimeDrivenBuffer::TimeDrivenBuffer(std::int64_t capacity_bytes, Duration jitter_allowance)
    : capacity_bytes_(capacity_bytes), jitter_allowance_(jitter_allowance) {
  CRAS_CHECK(capacity_bytes > 0);
  CRAS_CHECK(jitter_allowance >= 0);
}

void TimeDrivenBuffer::AttachObs(crobs::Hub* hub, const std::string& stream) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Tracer& trace = hub->trace();
  obs->track = trace.InternTrack("buffers");
  obs->name = trace.InternName(stream);
  crobs::Registry& metrics = hub->metrics();
  obs->resident = metrics.GetGauge("buffer.resident_bytes", {{"stream", stream}});
  obs->puts = metrics.GetCounter("buffer.puts", {{"stream", stream}});
  obs->discarded = metrics.GetCounter("buffer.discarded", {{"stream", stream}});
  obs->evictions = metrics.GetCounter("buffer.overflow_evictions", {{"stream", stream}});
  obs_ = std::move(obs);
  RecordOccupancy();
}

void TimeDrivenBuffer::SetFrameTrace(crobs::SessionTrace* trace,
                                     crobs::FrameStage miss_stage) {
  ftrace_ = trace;
  miss_stage_ = miss_stage;
}

void TimeDrivenBuffer::NoteDropped(const Entry& entry) {
  if (ftrace_ != nullptr && !entry.taken) {
    ftrace_->Miss(entry.chunk.chunk_index, miss_stage_);
  }
}

void TimeDrivenBuffer::RecordOccupancy() {
  if (obs_ == nullptr) {
    return;
  }
  obs_->resident->Set(static_cast<double>(resident_bytes_));
  crobs::Tracer& trace = obs_->hub->trace();
  if (trace.enabled()) {
    trace.CounterSample(obs_->track, obs_->name, static_cast<double>(resident_bytes_));
  }
}

void TimeDrivenBuffer::PopFront() {
  ++head_;
  if (head_ == chunks_.size()) {
    chunks_.clear();
    head_ = 0;
  }
}

std::vector<TimeDrivenBuffer::Entry>::iterator TimeDrivenBuffer::FirstAfter(Time t) {
  return std::upper_bound(chunks_.begin() + static_cast<std::ptrdiff_t>(head_), chunks_.end(), t,
                          [](Time at, const Entry& e) { return at < e.chunk.timestamp; });
}

void TimeDrivenBuffer::Insert(const BufferedChunk& chunk) {
  if (head_ == chunks_.size() || chunks_.back().chunk.timestamp < chunk.timestamp) {
    if (chunks_.size() == chunks_.capacity() && head_ * 2 >= chunks_.size()) {
      // At least half the vector is discarded prefix: slide the live range
      // down instead of growing.
      chunks_.erase(chunks_.begin(), chunks_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    chunks_.push_back(Entry{chunk, false});
    return;
  }
  chunks_.insert(FirstAfter(chunk.timestamp), Entry{chunk, false});
}

void TimeDrivenBuffer::DiscardObsolete(Time logical_now) {
  const Time discard_before = logical_now - jitter_allowance_;
  std::int64_t discarded = 0;
  while (head_ < chunks_.size()) {
    const Entry& front = chunks_[head_];
    if (front.chunk.timestamp + front.chunk.duration > discard_before) {
      // Timestamp order: everything later is still live.
      break;
    }
    resident_bytes_ -= front.chunk.size;
    ++stats_.discarded_obsolete;
    ++discarded;
    NoteDropped(front);
    PopFront();
  }
  if (discarded > 0 && obs_ != nullptr) {
    obs_->discarded->Add(discarded);
    RecordOccupancy();
  }
}

void TimeDrivenBuffer::Put(const BufferedChunk& chunk, Time logical_now) {
  DiscardObsolete(logical_now);
  if (chunk.timestamp + chunk.duration <= logical_now - jitter_allowance_) {
    // The data arrived after its playback window closed (a deadline miss
    // upstream); the time-driven rule says it is already garbage.
    ++stats_.rejected_late;
    if (ftrace_ != nullptr) {
      ftrace_->Miss(chunk.chunk_index, miss_stage_);
    }
    return;
  }
  // A duplicate put (e.g. after a seek re-fetches a window) replaces the
  // resident copy.
  if (head_ < chunks_.size() && chunk.timestamp <= chunks_.back().chunk.timestamp) {
    const auto after = FirstAfter(chunk.timestamp);
    if (after != chunks_.begin() + static_cast<std::ptrdiff_t>(head_) &&
        std::prev(after)->chunk.timestamp == chunk.timestamp) {
      resident_bytes_ -= std::prev(after)->chunk.size;
      chunks_.erase(std::prev(after));
      ++stats_.replaced;
    }
  }
  while (resident_bytes_ + chunk.size > capacity_bytes_ && head_ < chunks_.size()) {
    const Entry& oldest = chunks_[head_];
    resident_bytes_ -= oldest.chunk.size;
    NoteDropped(oldest);
    PopFront();
    ++stats_.overflow_evictions;
    if (obs_ != nullptr) {
      obs_->evictions->Add();
    }
  }
  Insert(chunk);
  resident_bytes_ += chunk.size;
  stats_.max_resident_bytes = std::max(stats_.max_resident_bytes, resident_bytes_);
  ++stats_.puts;
  if (obs_ != nullptr) {
    obs_->puts->Add();
    RecordOccupancy();
  }
}

std::optional<BufferedChunk> TimeDrivenBuffer::Get(Time t) {
  // Last chunk with timestamp <= t whose interval covers t.
  auto it = FirstAfter(t);
  if (it == chunks_.begin() + static_cast<std::ptrdiff_t>(head_)) {
    ++stats_.get_misses;
    return std::nullopt;
  }
  --it;
  const BufferedChunk& c = it->chunk;
  if (t >= c.timestamp + c.duration) {
    ++stats_.get_misses;
    return std::nullopt;
  }
  it->taken = true;
  ++stats_.get_hits;
  return c;
}

void TimeDrivenBuffer::Clear() {
  chunks_.clear();
  head_ = 0;
  resident_bytes_ = 0;
  RecordOccupancy();
}

}  // namespace cras
