// Property tests for the time-driven shared buffer: invariants under random
// operation sequences, swept over capacities and jitter allowances, and an
// exact comparison against an ordered-map reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>

#include "src/base/random.h"
#include "src/core/time_driven_buffer.h"

namespace cras {
namespace {

using crbase::Duration;
using crbase::Milliseconds;
using crbase::Time;

// `name` goes last: gtest's default printer dumps a case's bytes into the
// ctest name, and a leading pointer would put an address-randomised value
// at the front of that name (see CpuCase in property_sim_test.cc).
struct BufferCase {
  std::int64_t capacity_frames;
  std::int64_t jitter_ms;
  std::uint64_t seed;
  const char* name;
};

class BufferInvariants : public ::testing::TestWithParam<BufferCase> {};

TEST_P(BufferInvariants, RandomOperationSequencePreservesInvariants) {
  const BufferCase& c = GetParam();
  const Duration frame = Milliseconds(33);
  const std::int64_t frame_bytes = 6250;
  TimeDrivenBuffer buffer(c.capacity_frames * frame_bytes, Milliseconds(c.jitter_ms));
  crbase::Rng rng(c.seed);

  // A reference model: map timestamp -> size, maintained with the same
  // discard rule, without the capacity bound.
  std::map<Time, std::int64_t> model;
  Time logical = -crbase::Seconds(1);
  std::int64_t produced = 0;

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 50) {
      // Put the next chunk (sometimes a duplicate of a recent one).
      std::int64_t index = produced;
      if (op < 5 && produced > 0) {
        index = static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(produced)));
      } else {
        ++produced;
      }
      BufferedChunk chunk;
      chunk.chunk_index = index;
      chunk.timestamp = index * frame;
      chunk.duration = frame;
      chunk.size = frame_bytes;
      buffer.Put(chunk, logical);
      if (chunk.timestamp + chunk.duration > logical - buffer.jitter_allowance()) {
        model[chunk.timestamp] = chunk.size;
      }
    } else if (op < 75) {
      // Advance logical time and sweep.
      logical += static_cast<Duration>(rng.NextBelow(100)) * Milliseconds(10);
      buffer.DiscardObsolete(logical);
    } else {
      // Random get.
      const Time t = logical + static_cast<Duration>(rng.NextInRange(-2000, 2000)) *
                                   Milliseconds(1);
      std::optional<BufferedChunk> got = buffer.Get(t);
      if (got.has_value()) {
        // Whatever comes back must cover t.
        EXPECT_LE(got->timestamp, t);
        EXPECT_GT(got->timestamp + got->duration, t);
      }
    }
    // Mirror the discard rule in the model.
    const Time discard_before = logical - buffer.jitter_allowance();
    for (auto it = model.begin(); it != model.end();) {
      if (it->first + frame <= discard_before) {
        it = model.erase(it);
      } else {
        ++it;
      }
    }

    // Invariants:
    //  (1) resident bytes equals the sum of resident chunk sizes and never
    //      exceeds capacity;
    EXPECT_LE(buffer.resident_bytes(), buffer.capacity_bytes());
    EXPECT_EQ(buffer.resident_bytes(),
              static_cast<std::int64_t>(buffer.resident_chunks()) * frame_bytes);
    //  (2) the buffer holds a subset of the unbounded reference model
    //      (capacity evictions may remove more, never retain extra);
    EXPECT_LE(buffer.resident_chunks(), model.size());
  }
  //  (3) accounting identity over the whole run: every accepted put is
  //      resident, aged out, capacity-evicted, or replaced by a duplicate.
  const TimeDrivenBufferStats& stats = buffer.stats();
  EXPECT_EQ(stats.puts,
            static_cast<std::int64_t>(buffer.resident_chunks()) + stats.discarded_obsolete +
                stats.overflow_evictions + stats.replaced);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferInvariants,
    ::testing::Values(BufferCase{4, 0, 11, "tiny_no_jitter"},
                      BufferCase{4, 100, 22, "tiny_jittered"},
                      BufferCase{32, 100, 33, "interval_sized"},
                      BufferCase{32, 100, 44, "interval_sized_alt_seed"},
                      BufferCase{256, 500, 55, "large_long_jitter"},
                      BufferCase{256, 0, 66, "large_no_jitter"}),
    [](const ::testing::TestParamInfo<BufferCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// The buffer against a reference model: the same rules written over an
// ordered map keyed by timestamp. Every Put, Get and DiscardObsolete must
// return the same chunk and leave the same occupancy and statistics.

class ModelBuffer {
 public:
  ModelBuffer(std::int64_t capacity, Duration jitter) : capacity_(capacity), jitter_(jitter) {}

  void DiscardObsolete(Time logical_now) {
    while (!chunks_.empty()) {
      const BufferedChunk& c = chunks_.begin()->second;
      if (c.timestamp + c.duration > logical_now - jitter_) {
        break;
      }
      resident_ -= c.size;
      ++stats_.discarded_obsolete;
      chunks_.erase(chunks_.begin());
    }
  }

  void Put(const BufferedChunk& chunk, Time logical_now) {
    DiscardObsolete(logical_now);
    if (chunk.timestamp + chunk.duration <= logical_now - jitter_) {
      ++stats_.rejected_late;
      return;
    }
    auto existing = chunks_.find(chunk.timestamp);
    if (existing != chunks_.end()) {
      resident_ -= existing->second.size;
      chunks_.erase(existing);
      ++stats_.replaced;
    }
    while (resident_ + chunk.size > capacity_ && !chunks_.empty()) {
      resident_ -= chunks_.begin()->second.size;
      chunks_.erase(chunks_.begin());
      ++stats_.overflow_evictions;
    }
    chunks_[chunk.timestamp] = chunk;
    resident_ += chunk.size;
    stats_.max_resident_bytes = std::max(stats_.max_resident_bytes, resident_);
    ++stats_.puts;
  }

  std::optional<BufferedChunk> Get(Time t) {
    auto it = chunks_.upper_bound(t);
    if (it == chunks_.begin() || t >= std::prev(it)->second.timestamp +
                                          std::prev(it)->second.duration) {
      ++stats_.get_misses;
      return std::nullopt;
    }
    ++stats_.get_hits;
    return std::prev(it)->second;
  }

  void Clear() {
    chunks_.clear();
    resident_ = 0;
  }

  const std::map<Time, BufferedChunk>& chunks() const { return chunks_; }
  std::int64_t resident_bytes() const { return resident_; }
  const TimeDrivenBufferStats& stats() const { return stats_; }

 private:
  std::int64_t capacity_;
  Duration jitter_;
  std::map<Time, BufferedChunk> chunks_;
  std::int64_t resident_ = 0;
  TimeDrivenBufferStats stats_;
};

void ExpectSameChunk(const std::optional<BufferedChunk>& got,
                     const std::optional<BufferedChunk>& want, int step) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
  if (!got.has_value()) {
    return;
  }
  EXPECT_EQ(got->chunk_index, want->chunk_index) << "step " << step;
  EXPECT_EQ(got->timestamp, want->timestamp) << "step " << step;
  EXPECT_EQ(got->duration, want->duration) << "step " << step;
  EXPECT_EQ(got->size, want->size) << "step " << step;
  EXPECT_EQ(got->filled_at, want->filled_at) << "step " << step;
}

void ExpectSameState(const TimeDrivenBuffer& buffer, const ModelBuffer& model, int step) {
  EXPECT_EQ(buffer.resident_bytes(), model.resident_bytes()) << "step " << step;
  EXPECT_EQ(buffer.resident_chunks(), model.chunks().size()) << "step " << step;
  const TimeDrivenBufferStats& got = buffer.stats();
  const TimeDrivenBufferStats& want = model.stats();
  EXPECT_EQ(got.puts, want.puts) << "step " << step;
  EXPECT_EQ(got.get_hits, want.get_hits) << "step " << step;
  EXPECT_EQ(got.get_misses, want.get_misses) << "step " << step;
  EXPECT_EQ(got.discarded_obsolete, want.discarded_obsolete) << "step " << step;
  EXPECT_EQ(got.overflow_evictions, want.overflow_evictions) << "step " << step;
  EXPECT_EQ(got.rejected_late, want.rejected_late) << "step " << step;
  EXPECT_EQ(got.replaced, want.replaced) << "step " << step;
  EXPECT_EQ(got.max_resident_bytes, want.max_resident_bytes) << "step " << step;
}

class BufferModel : public ::testing::TestWithParam<BufferCase> {};

TEST_P(BufferModel, RandomOperationsMatchTheOrderedMapModel) {
  const BufferCase& c = GetParam();
  const Duration frame = Milliseconds(33);
  const std::int64_t frame_bytes = 6250;
  TimeDrivenBuffer buffer(c.capacity_frames * frame_bytes, Milliseconds(c.jitter_ms));
  ModelBuffer model(c.capacity_frames * frame_bytes, Milliseconds(c.jitter_ms));
  crbase::Rng rng(c.seed);
  Time logical = 0;
  std::int64_t produced = 0;

  // Chunk `index` sits at index * frame; a duration shorter than the frame
  // leaves a gap before the next chunk.
  auto make_chunk = [&](std::int64_t index, std::int64_t size) {
    BufferedChunk chunk;
    chunk.chunk_index = index;
    chunk.timestamp = index * frame;
    chunk.duration = frame - static_cast<Duration>(rng.NextBelow(3)) * Milliseconds(10);
    chunk.size = size;
    chunk.filled_at = static_cast<Time>(rng.NextBelow(1000000));
    return chunk;
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 35) {
      // In order: the next chunk, skipping ahead to the clock if the
      // producer fell behind it.
      produced = std::max(produced, logical / frame);
      const BufferedChunk chunk = make_chunk(produced++, frame_bytes);
      buffer.Put(chunk, logical);
      model.Put(chunk, logical);
    } else if (op < 42 && produced > 0) {
      // Out of order: an earlier chunk, resident or not.
      const BufferedChunk chunk = make_chunk(
          static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(produced))),
          frame_bytes);
      buffer.Put(chunk, logical);
      model.Put(chunk, logical);
    } else if (op < 48 && !model.chunks().empty()) {
      // Duplicate timestamp of a resident chunk, with a new size.
      auto it = model.chunks().begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBelow(model.chunks().size())));
      const BufferedChunk chunk = make_chunk(
          it->second.chunk_index,
          frame_bytes / 2 + static_cast<std::int64_t>(rng.NextBelow(frame_bytes)));
      buffer.Put(chunk, logical);
      model.Put(chunk, logical);
    } else if (op < 52) {
      // Over capacity: a chunk several frames large, or larger than the
      // whole buffer.
      const std::int64_t frames = 1 + static_cast<std::int64_t>(
                                          rng.NextBelow(static_cast<std::uint64_t>(
                                              c.capacity_frames + 2)));
      const BufferedChunk chunk = make_chunk(produced++, frames * frame_bytes);
      buffer.Put(chunk, logical);
      model.Put(chunk, logical);
    } else if (op < 62) {
      // Advance logical time and sweep.
      logical += static_cast<Duration>(rng.NextBelow(40)) * Milliseconds(10);
      buffer.DiscardObsolete(logical);
      model.DiscardObsolete(logical);
    } else if (op < 63) {
      buffer.Clear();
      model.Clear();
    } else {
      // Gets: inside a resident chunk, in the gap after one, before the
      // first, after the last, or anywhere near the clock.
      Time t = logical;
      const std::uint64_t kind = rng.NextBelow(5);
      const auto& chunks = model.chunks();
      if (!chunks.empty() && kind < 4) {
        auto it = chunks.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBelow(chunks.size())));
        const BufferedChunk& ref = it->second;
        switch (kind) {
          case 0:  // hit
            t = ref.timestamp + static_cast<Duration>(rng.NextBelow(
                                    static_cast<std::uint64_t>(ref.duration)));
            break;
          case 1:  // the gap (or next chunk) after it
            t = ref.timestamp + ref.duration +
                static_cast<Duration>(rng.NextBelow(static_cast<std::uint64_t>(frame)));
            break;
          case 2:  // before the first
            t = chunks.begin()->first - 1 -
                static_cast<Duration>(rng.NextBelow(static_cast<std::uint64_t>(frame)));
            break;
          default:  // after the last
            t = chunks.rbegin()->second.timestamp + chunks.rbegin()->second.duration +
                static_cast<Duration>(rng.NextBelow(static_cast<std::uint64_t>(frame)));
            break;
        }
      } else {
        t = logical + static_cast<Duration>(rng.NextInRange(-2000, 2000)) * Milliseconds(1);
      }
      ExpectSameChunk(buffer.Get(t), model.Get(t), step);
    }
    ExpectSameState(buffer, model, step);
    if (::testing::Test::HasFailure()) {
      return;  // the first divergence is the informative one
    }
  }
  EXPECT_GT(model.stats().overflow_evictions, 0);
  EXPECT_GT(model.stats().replaced, 0);
  EXPECT_GT(model.stats().get_hits, 0);
  EXPECT_GT(model.stats().get_misses, 0);
  EXPECT_GT(model.stats().discarded_obsolete, 0);
  EXPECT_GT(model.stats().rejected_late, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferModel,
    ::testing::Values(BufferCase{4, 0, 101, "tiny_no_jitter"},
                      BufferCase{4, 100, 202, "tiny_jittered"},
                      BufferCase{32, 100, 303, "interval_sized"},
                      BufferCase{256, 500, 404, "large_long_jitter"}),
    [](const ::testing::TestParamInfo<BufferCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cras
