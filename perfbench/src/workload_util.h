// Helpers the three workloads share: seeded input generation, media
// writing, observability configuration, the timed run and the viewers'
// frame loop.

#ifndef PERFBENCH_SRC_WORKLOAD_UTIL_H_
#define PERFBENCH_SRC_WORKLOAD_UTIL_H_

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "perfbench/src/bench.h"
#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/core/cras.h"
#include "src/media/media_file.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/ufs/ufs.h"

namespace perfbench {

// Independent stream `stream` of the workload seed (SplitMix64 finalizer),
// so adding a draw to one input never shifts another.
inline std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform in [0, range).
inline crbase::Duration Jitter(crbase::Rng& rng, crbase::Duration range) {
  return static_cast<crbase::Duration>(rng.NextBelow(static_cast<std::uint64_t>(range)));
}

// An MPEG1-rate VBR title: log-normal frame sizes, coefficient of variation
// 0.2, 30 frames/s.
inline crmedia::ChunkIndex VbrTitle(crbase::Duration length, crbase::Rng& rng) {
  return crmedia::BuildVbrIndex(crmedia::kMpeg1BytesPerSec, 0.2, crmedia::kVideoFps, length, rng);
}

inline crufs::InodeNumber WriteTitle(crufs::Ufs& fs, const std::string& name,
                                     const crmedia::ChunkIndex& index) {
  auto file = crmedia::WriteMediaFile(fs, name, index);
  CRAS_CHECK(file.ok()) << file.status().ToString();
  return file->inode;
}

// A recording target: contiguous space for the whole capture.
inline crufs::InodeNumber PreallocateCapture(crufs::Ufs& fs, const std::string& name,
                                             const crmedia::ChunkIndex& index) {
  auto inode = fs.Create(name);
  CRAS_CHECK(inode.ok()) << inode.status().ToString();
  const crbase::Status st = fs.PreallocateContiguous(*inode, index.total_bytes());
  CRAS_CHECK(st.ok()) << st.ToString();
  return *inode;
}

// The file a background `cat` loops over (120 s of MPEG1).
inline crmedia::MediaFile WriteCatFile(crufs::Ufs& fs, const std::string& name) {
  auto file = crmedia::WriteMpeg1File(fs, name, crbase::Seconds(120));
  CRAS_CHECK(file.ok()) << file.status().ToString();
  return std::move(*file);
}

// Traced rounds turn on the hub's trace, frame tracer and SLO monitor. The
// trace ring is sized so that no round overwrites an event.
inline void ConfigureObs(const RoundConfig& config, crobs::Hub::Options* obs) {
  if (!config.traced) {
    return;
  }
  obs->trace.enabled = true;
  obs->trace.capacity = std::size_t{1} << 22;
  obs->frames.enabled = true;
  obs->slo.enabled = true;
}

// The client side of a round on `server`; traced rounds also log every
// admission decision into `out`.
inline ClientEnv MakeClientEnv(crrt::Kernel& kernel, cras::CrasServer& server, SpanRecorder& spans,
                               const SpanNames& names, const RoundConfig& config, Outputs* out) {
  ClientEnv env;
  env.kernel = &kernel;
  env.server = &server;
  env.spans = &spans;
  env.names = &names;
  env.admission = config.traced ? &out->admission : nullptr;
  return env;
}

// Runs the engine for `length` of simulated time, timing it on the host.
inline void RunTimed(crsim::Engine& engine, crbase::Duration length, SpanRecorder& spans,
                     const SpanNames& names, RoundTimes* times) {
  const std::uint64_t events_before = engine.events_fired();
  const double start = CpuSeconds();
  {
    ScopedSpan run(spans, names.run);
    engine.RunFor(length);
  }
  times->run_s = (CpuSeconds() - start);
  times->events = engine.events_fired() - events_before;
}

// Frame attribution and telemetry loss of a traced round.
inline void CollectObs(const crobs::Hub& hub, const RoundConfig& config, RoundResult* result) {
  Outputs& out = result->out;
  out.layer["sim.events_per_sim_s"] = static_cast<double>(result->times.events) / out.sim_seconds;
  if (!config.traced) {
    return;
  }
  out.frames_traced = true;
  out.attribution = hub.frames().Totals();
  result->trace_dropped_events =
      static_cast<std::int64_t>(hub.trace().dropped()) + out.attribution.frames_evicted;
  std::fprintf(stderr, "trace: %zu events kept, %" PRIu64 " dropped; %" PRId64
               " frame records evicted unresolved\n",
               hub.trace().size(), hub.trace().dropped(), out.attribution.frames_evicted);
  const struct {
    const char* name;
    crobs::StageBucket bucket;
  } stages[] = {
      {"frame.disk_queue_ms", crobs::StageBucket::kDiskQueue},
      {"frame.disk_service_ms", crobs::StageBucket::kDiskService},
      {"frame.buffer_wait_ms", crobs::StageBucket::kBufferWait},
      {"frame.wire_ms", crobs::StageBucket::kWire},
      {"frame.repair_ms", crobs::StageBucket::kRepair},
      {"frame.playout_slack_ms", crobs::StageBucket::kPlayoutSlack},
  };
  for (const auto& stage : stages) {
    out.layer[stage.name] = out.attribution.frames_resolved() > 0
                                ? out.attribution.MeanBucketMs(stage.bucket)
                                : 0.0;
  }
}

inline double Ms(crbase::Duration d) { return static_cast<double>(d) / 1e6; }

// Plays every due frame of `index` from `get` — a time-driven buffer: the
// server's shared buffer for a local viewer, the receiver's for a network
// one — fetching each at its due time and retrying every 2 ms for up to
// 100 ms. `cpu_per_frame` is charged to the server host's CPU before each
// fetch (zero for a viewer on its own host); `ftrace`, when set, takes each
// frame's playout verdict. Stops early, counting the rest unplayed, once
// the server has shed session `id`.
template <typename GetFn>
crsim::Task PlayFrames(crrt::ThreadContext& ctx, const ClientEnv& env, cras::SessionId id,
                       const crmedia::ChunkIndex& index, crbase::Time zero_at,
                       crbase::Time open_at, crbase::Duration cpu_per_frame,
                       crobs::SessionTrace* ftrace, ViewerRecord* record, GetFn get) {
  constexpr crbase::Duration kRetry = crbase::Milliseconds(2);
  constexpr crbase::Duration kGiveUp = crbase::Milliseconds(100);
  for (std::int64_t frame = 0; frame < record->frames_due; ++frame) {
    const crmedia::Chunk& chunk = index.at(static_cast<std::size_t>(frame));
    const crbase::Time due_at = zero_at + chunk.timestamp;
    if (due_at > ctx.Now()) {
      co_await ctx.Sleep(due_at - ctx.Now());
    }
    if (cpu_per_frame > 0) {
      co_await ctx.Compute(cpu_per_frame);
    }
    bool got = false;
    while (ctx.Now() - due_at < kGiveUp && !env.server->WasShed(id)) {
      std::optional<cras::BufferedChunk> buffered;
      {
        ScopedSpan span(*env.spans, env.names->get);
        buffered = get(chunk.timestamp);
      }
      ++record->get_calls;
      if (buffered.has_value()) {
        if (record->frames_played == 0) {
          record->startup_ms = Ms(buffered->filled_at - open_at);
        }
        ++record->frames_played;
        record->bytes += buffered->size;
        if (buffered->size != chunk.size) {
          ++record->size_mismatches;
        }
        record->played[static_cast<std::size_t>(frame)] = true;
        if (ftrace != nullptr) {
          ftrace->Deliver(frame);
        }
        got = true;
        break;
      }
      co_await ctx.Sleep(kRetry);
    }
    if (env.server->WasShed(id)) {
      record->shed = true;
      record->frames_unplayed = record->frames_due - record->frames_played - record->frames_missed;
      co_return;
    }
    if (!got) {
      ++record->frames_missed;
      if (ftrace != nullptr) {
        ftrace->Miss(frame, crobs::FrameStage::kPlayout);
      }
    }
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_UTIL_H_
