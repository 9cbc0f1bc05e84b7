// Player statistics and option-handling tests.

#include "src/core/player.h"

#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

FrameRecord Frame(std::int64_t i, crbase::Duration delay, std::int64_t bytes = 6250) {
  FrameRecord f;
  f.frame = i;
  f.bytes = bytes;
  f.due_at = i * Milliseconds(33);
  f.obtained_at = f.due_at + delay;
  return f;
}

TEST(PlayerStats, EmptyStats) {
  PlayerStats stats;
  EXPECT_EQ(stats.max_delay(), 0);
  EXPECT_EQ(stats.mean_delay(), 0);
  EXPECT_EQ(stats.OnTimeBytes(Milliseconds(100)), 0);
}

TEST(PlayerStats, DelayAggregates) {
  PlayerStats stats;
  stats.frames = {Frame(0, 0), Frame(1, Milliseconds(10)), Frame(2, Milliseconds(2))};
  EXPECT_EQ(stats.max_delay(), Milliseconds(10));
  EXPECT_EQ(stats.mean_delay(), Milliseconds(4));
}

TEST(PlayerStats, OnTimeBytesFiltersByThreshold) {
  PlayerStats stats;
  stats.frames = {Frame(0, 0, 1000), Frame(1, Milliseconds(50), 2000),
                  Frame(2, Milliseconds(200), 4000)};
  EXPECT_EQ(stats.OnTimeBytes(Milliseconds(100)), 3000);
  EXPECT_EQ(stats.OnTimeBytes(Milliseconds(300)), 7000);
  EXPECT_EQ(stats.OnTimeBytes(0), 1000);
}

TEST(Player, LateFrameIsTakenTheInstantItIsPublished) {
  // Logical zero 50 ms before the first interval's data is published: frame
  // 0 is late. The player waits on the session, not on a poll timer, so it
  // holds the frame at the exact instant the scheduler publishes it.
  TestbedOptions bed_options;
  bed_options.obs.frames.enabled = true;
  Testbed bed(bed_options);
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(3));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(2);
  options.initial_delay = bed.cras_server.SuggestedInitialDelay() - Milliseconds(50);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(4));

  ASSERT_FALSE(stats.frames.empty());
  EXPECT_EQ(stats.frames_missed, 0);
  const FrameRecord& first = stats.frames.front();
  ASSERT_EQ(first.frame, 0);
  EXPECT_GT(first.delay(), 0) << "frame 0 was late";
  const crobs::SessionTrace* trace = bed.hub.frames().Find(/*session_id=*/1);
  ASSERT_NE(trace, nullptr);
  const crobs::FrameRecord* record = trace->Find(0);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(first.obtained_at,
            record->stage[static_cast<int>(crobs::FrameStage::kPublished)]);
}

TEST(Player, UfsPlayerRespectsFrameStep) {
  Testbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(6));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(4);
  options.frame_step = 5;  // 6 fps from a 30 fps stream
  crsim::Task player = SpawnUfsPlayer(bed.kernel, bed.unix_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(8));
  EXPECT_NEAR(static_cast<double>(stats.frames_played), 4.0 * 6.0, 2.0);
  // The frames fetched are 0, 5, 10, ...
  for (const FrameRecord& f : stats.frames) {
    EXPECT_EQ(f.frame % 5, 0);
  }
}

TEST(Player, StartDelayDefersOpen) {
  Testbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(4));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(2);
  options.start_delay = Seconds(3);
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(2));
  EXPECT_EQ(bed.cras_server.stats().sessions_opened, 0);  // still sleeping
  bed.engine().RunFor(Seconds(8));
  EXPECT_EQ(bed.cras_server.stats().sessions_opened, 1);
  EXPECT_GT(stats.frames_played, 50);
}

TEST(Player, ExplicitInitialDelayOverridesSuggestion) {
  Testbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(6));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(3);
  options.initial_delay = Seconds(2);  // above the suggested 1 s
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(8));
  ASSERT_FALSE(stats.frames.empty());
  // First frame becomes due only after the explicit delay.
  EXPECT_GE(stats.frames.front().due_at, Seconds(2));
  EXPECT_EQ(stats.frames_missed, 0);
}

TEST(Player, TooShortInitialDelayLosesTheOpeningThenRecovers) {
  // A client that refuses to allow the startup latency starts its logical
  // clock ahead of the retrieval pipeline: the opening second's frames are
  // already obsolete when they land and are lost. The scheduler's bounded
  // burst catch-up then re-primes the pipeline and the rest plays cleanly
  // — but nothing can resurrect the missed opening. The suggested initial
  // delay *is* the pipeline depth.
  Testbed bed;
  bed.StartServers();
  auto file = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(8));
  PlayerStats stats;
  PlayerOptions options;
  options.play_length = Seconds(6);
  options.initial_delay = Milliseconds(50);  // far below the suggested 1 s
  crsim::Task player = SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, options, &stats);
  bed.engine().RunFor(Seconds(10));
  EXPECT_GT(stats.frames_missed, 10);   // the opening is gone
  EXPECT_GT(stats.frames_played, 130);  // the rest recovered
  ASSERT_FALSE(stats.frames.empty());
  EXPECT_LE(stats.frames.back().delay(), Milliseconds(5));
}

}  // namespace
}  // namespace cras
