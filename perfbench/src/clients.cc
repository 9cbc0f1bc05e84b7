// The benchmark's client loops and the server-side collection every
// workload shares.

#include <algorithm>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workload_util.h"
#include "src/obs/ledger.h"

namespace perfbench {
namespace {

// Decode and display on the server host, as in the paper's player.
constexpr crbase::Duration kCpuPerFrame = crbase::Microseconds(200);

}  // namespace

std::int64_t FramesDue(const crmedia::ChunkIndex& index, crbase::Duration watch) {
  std::int64_t due = 0;
  for (const crmedia::Chunk& chunk : index.chunks()) {
    if (chunk.timestamp >= watch) {
      break;
    }
    ++due;
  }
  return due;
}

cras::StreamDemand DemandOf(const crmedia::ChunkIndex& index, crbase::Duration interval) {
  cras::StreamDemand demand;
  demand.rate_bytes_per_sec = index.WorstRate(interval);
  demand.chunk_bytes = index.max_chunk_bytes();
  return demand;
}

void NoteAdmissionDecision(const ClientEnv& env, const cras::StreamDemand& demand) {
  if (env.admission == nullptr) {
    return;
  }
  std::vector<cras::StreamDemand> set;
  set.reserve(env.admission->open.size() + 1);
  for (const auto& [session, open] : env.admission->open) {
    set.push_back(open);
  }
  set.push_back(demand);
  env.admission->sets.push_back(std::move(set));
}

void NoteOpened(const ClientEnv& env, std::int64_t session, const cras::StreamDemand& demand) {
  if (env.admission != nullptr) {
    env.admission->open[session] = demand;
  }
}

void NoteClosed(const ClientEnv& env, std::int64_t session) {
  if (env.admission != nullptr) {
    env.admission->open.erase(session);
  }
}

crsim::Task SpawnLocalViewer(const ClientEnv& env, const crmedia::ChunkIndex* index,
                             crufs::InodeNumber inode, crbase::Time arrive_at,
                             crbase::Duration watch, bool* refused_flag, ViewerRecord* record) {
  record->frames_due = FramesDue(*index, watch);
  record->played.assign(static_cast<std::size_t>(record->frames_due), false);
  return env.kernel->Spawn(
      "viewer", crrt::kPriorityClient,
      [env, index, inode, arrive_at, refused_flag,
       record](crrt::ThreadContext& ctx) -> crsim::Task {
        cras::CrasServer& server = *env.server;
        if (arrive_at > ctx.Now()) {
          co_await ctx.Sleep(arrive_at - ctx.Now());
        }
        if (refused_flag != nullptr && *refused_flag) {
          co_return;  // the schedule stopped at the first refusal
        }
        record->arrived = true;
        const crbase::Time open_at = ctx.Now();
        const cras::StreamDemand demand = DemandOf(*index, server.options().interval);
        NoteAdmissionDecision(env, demand);
        cras::OpenParams params;
        params.inode = inode;
        params.index = *index;
        auto opened = co_await server.Open(std::move(params));
        record->open_ms = Ms(ctx.Now() - open_at);
        if (!opened.ok()) {
          if (opened.status().code() == crbase::StatusCode::kResourceExhausted) {
            if (refused_flag != nullptr) {
              *refused_flag = true;
            }
          } else {
            ++record->control_errors;
          }
          co_return;
        }
        record->admitted = true;
        const cras::SessionId id = *opened;
        NoteOpened(env, id, demand);
        const crbase::Duration delay = server.SuggestedInitialDelay();
        if (!(co_await server.StartStream(id, delay)).ok()) {
          ++record->control_errors;
        }
        // The frame-trace ring (traced rounds only): a local client is the
        // delivery layer, so it owns each frame's playout verdict.
        crobs::SessionTrace* ftrace = server.FrameTrace(id);
        co_await PlayFrames(ctx, env, id, *index, ctx.Now() + delay, open_at, kCpuPerFrame, ftrace,
                            record, [&server, id](crbase::Time t) { return server.Get(id, t); });
        if (record->shed) {
          NoteClosed(env, id);
          co_return;
        }
        if (!(co_await server.StopStream(id)).ok()) {
          ++record->control_errors;
        }
        if (!(co_await server.Close(id)).ok()) {
          ++record->control_errors;
        }
        NoteClosed(env, id);
      });
}

crsim::Task SpawnRecorder(const ClientEnv& env, const crmedia::ChunkIndex* index,
                          crufs::InodeNumber inode, RecorderRecord* record) {
  record->chunks_due = static_cast<std::int64_t>(index->count());
  return env.kernel->Spawn(
      "recorder", crrt::kPriorityClient,
      [env, index, inode, record](crrt::ThreadContext& ctx) -> crsim::Task {
        cras::CrasServer& server = *env.server;
        const cras::StreamDemand demand = DemandOf(*index, server.options().interval);
        NoteAdmissionDecision(env, demand);
        cras::OpenParams params;
        params.inode = inode;
        params.index = *index;
        params.kind = cras::SessionKind::kWrite;
        auto opened = co_await server.Open(std::move(params));
        if (!opened.ok()) {
          ++record->control_errors;
          co_return;
        }
        record->admitted = true;
        const cras::SessionId id = *opened;
        NoteOpened(env, id, demand);
        if (!(co_await server.StartStream(id, 0)).ok()) {
          ++record->control_errors;
        }
        const crbase::Time start = ctx.Now();
        for (std::size_t c = 0; c < index->count(); ++c) {
          const crmedia::Chunk& chunk = index->at(c);
          const crbase::Time due = start + chunk.timestamp;
          if (due > ctx.Now()) {
            co_await ctx.Sleep(due - ctx.Now());
          }
          crbase::Status put;
          {
            ScopedSpan span(*env.spans, env.names->put_chunk);
            put = server.PutChunk(id, static_cast<std::int64_t>(c));
          }
          if (put.ok()) {
            ++record->chunks_put;
            record->bytes_put += chunk.size;
          } else {
            ++record->put_errors;
          }
        }
        // The last chunks reach the disk within two interval boundaries.
        co_await ctx.Sleep(3 * server.options().interval);
        auto stats = server.GetSessionStats(id);
        if (stats.ok()) {
          record->chunks_written = stats->chunks_written;
          record->bytes_written = stats->bytes_written;
        } else {
          ++record->control_errors;
        }
        if (!(co_await server.StopStream(id)).ok()) {
          ++record->control_errors;
        }
        if (!(co_await server.Close(id)).ok()) {
          ++record->control_errors;
        }
        NoteClosed(env, id);
      });
}

crsim::Task SpawnBackgroundReader(crrt::Kernel& kernel, crufs::UnixServer& server,
                                  crufs::InodeNumber inode, std::int64_t file_bytes,
                                  crbase::Time stop_at, std::int64_t* bytes,
                                  std::int64_t* errors) {
  return kernel.Spawn(
      "cat", crrt::kPriorityTimesharing,
      [&server, inode, file_bytes, stop_at, bytes, errors](crrt::ThreadContext& ctx)
          -> crsim::Task {
        constexpr std::int64_t kReadSize = 8 * 1024;
        std::int64_t offset = 0;
        while (ctx.Now() < stop_at) {
          const std::int64_t length = std::min(kReadSize, file_bytes - offset);
          const crbase::Status st = co_await server.Read(inode, offset, length);
          if (st.ok()) {
            *bytes += length;
          } else {
            ++*errors;
          }
          offset += length;
          if (offset >= file_bytes) {
            offset = 0;
          }
        }
      });
}

namespace {

// The histogram series of `name` whose labels include every pair of
// `match`, merged into one (the families share their bucket bounds).
crobs::SeriesSnapshot MergedHistogram(const crobs::RegistrySnapshot& snap, const std::string& name,
                                      const crobs::Labels& match = {}) {
  crobs::SeriesSnapshot merged;
  bool first = true;
  for (const crobs::FamilySnapshot& family : snap.families) {
    if (family.name != name) {
      continue;
    }
    for (const crobs::SeriesSnapshot& series : family.series) {
      bool matches = true;
      for (const auto& want : match) {
        if (std::find(series.labels.begin(), series.labels.end(), want) == series.labels.end()) {
          matches = false;
        }
      }
      if (!matches || series.count == 0) {
        continue;
      }
      if (first) {
        merged = series;
        first = false;
        continue;
      }
      const double total = static_cast<double>(merged.count + series.count);
      merged.mean = (merged.mean * static_cast<double>(merged.count) +
                     series.mean * static_cast<double>(series.count)) /
                    total;
      merged.count += series.count;
      merged.min = std::min(merged.min, series.min);
      merged.max = std::max(merged.max, series.max);
      for (std::size_t b = 0; b < merged.buckets.size() && b < series.buckets.size(); ++b) {
        merged.buckets[b] += series.buckets[b];
      }
    }
  }
  return merged;
}

std::int64_t CounterSum(const crobs::RegistrySnapshot& snap, const std::string& name) {
  std::int64_t total = 0;
  for (const crobs::FamilySnapshot& family : snap.families) {
    if (family.name == name) {
      for (const crobs::SeriesSnapshot& series : family.series) {
        total += series.counter;
      }
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void CollectServerSide(crrt::Kernel& kernel, cras::CrasServer& server,
                       crufs::UnixServer& unix_server, const crobs::RegistrySnapshot& snapshot,
                       Outputs* out) {
  const double sim_ns = out->sim_seconds * 1e9;
  out->server = server.stats();
  out->open_sessions_end = static_cast<std::int64_t>(server.open_sessions());
  out->buffer_bytes_reserved_end = server.buffer_bytes_reserved();
  out->wired_bytes_end = kernel.wired_bytes();
  out->interval = server.options().interval;
  out->max_read_bytes = server.options().max_read_bytes;
  out->memory_budget_bytes = server.options().memory_budget_bytes;
  out->disk_params = server.options().disk_params;
  crvol::Volume& volume = server.volume();
  out->disks = volume.disks();
  out->stripe_unit_bytes = volume.stripe_unit_bytes();

  std::map<std::string, double>& m = out->layer;
  m["rtmach.cpu_busy_pct"] = 100.0 * Ratio(static_cast<double>(kernel.cpu().busy_time()), sim_ns);

  double busy = 0;
  for (int d = 0; d < volume.disks(); ++d) {
    busy += static_cast<double>(volume.device(d).stats().busy_time);
  }
  m["disk.busy_pct"] = 100.0 * Ratio(busy / volume.disks(), sim_ns);
  m["disk.service_ms_p50"] = MergedHistogram(snapshot, "disk.service_ms").Percentile(50);
  m["driver.rt_queue_ms_p99"] =
      MergedHistogram(snapshot, "driver.queue_ms", {{"queue", "rt"}}).Percentile(99);
  m["driver.nr_queue_ms_p50"] =
      MergedHistogram(snapshot, "driver.queue_ms", {{"queue", "nr"}}).Percentile(50);

  // Member-disk pieces, one series per disk: the scheduler's fan-out and
  // the Unix server's Submit() path alike.
  const std::int64_t pieces = CounterSum(snapshot, "volume.pieces");
  std::int64_t max_pieces = 0;
  for (const crobs::FamilySnapshot& family : snapshot.families) {
    if (family.name == "volume.pieces") {
      for (const crobs::SeriesSnapshot& series : family.series) {
        max_pieces = std::max(max_pieces, series.counter);
      }
    }
  }
  m["volume.member_skew"] = Ratio(static_cast<double>(max_pieces),
                                  static_cast<double>(pieces) / volume.disks());

  crobs::BudgetLedger* ledger = server.options().obs != nullptr ? server.options().obs->ledger()
                                                                : nullptr;
  out->ledger_overruns = ledger != nullptr ? ledger->overruns() : 0;
  m["ledger.overruns"] = static_cast<double>(out->ledger_overruns);
  double command_max = 0;
  for (const crobs::FamilySnapshot& family : snapshot.families) {
    if (family.name != "ledger.util_pct") {
      continue;
    }
    for (const crobs::SeriesSnapshot& series : family.series) {
      for (const auto& label : series.labels) {
        if (label == crobs::Labels::value_type{"term", "command"} && series.count > 0) {
          command_max = std::max(command_max, series.max);
        }
      }
    }
  }
  m["ledger.command_util_pct_max"] = command_max;
  m["ledger.seek_util_pct_mean"] = MergedHistogram(snapshot, "ledger.util_pct", {{"term", "seek"}}).mean;

  m["ufs.background_blocks"] = static_cast<double>(unix_server.stats().blocks_requested);
  m["cras.bytes_per_read_request"] = Ratio(static_cast<double>(out->server.bytes_read),
                                           static_cast<double>(out->server.read_requests));
  m["cras.deadline_slack_ms_p1"] = MergedHistogram(snapshot, "cras.deadline_slack_ms").Percentile(1);
  m["cras.deadline_misses"] = static_cast<double>(out->server.deadline_misses);
  m["buffer.discarded"] = static_cast<double>(CounterSum(snapshot, "buffer.discarded"));

  const crcache::StreamCache* cache = server.cache();
  out->has_cache = cache != nullptr;
  double hits = 0, misses = 0;
  if (cache != nullptr) {
    const crcache::CacheCounters& c = cache->counters();
    out->interval_pool_used_end = cache->interval_pool_used();
    out->pairs_active_end = cache->pairs_active();
    hits = static_cast<double>(c.prefix_hit_chunks + c.interval_hit_chunks);
    misses = static_cast<double>(c.miss_chunks);
    m["cache.pairs_formed"] = static_cast<double>(c.pairs_formed);
    m["cache.pairs_broken"] = static_cast<double>(c.pairs_broken);
    m["cache.fallbacks"] = static_cast<double>(c.fallbacks);
  } else {
    m["cache.pairs_formed"] = 0;
    m["cache.pairs_broken"] = 0;
    m["cache.fallbacks"] = 0;
  }
  m["cache.hit_share"] = Ratio(hits, hits + misses);
  m["cache.bytes_from_cache_share"] =
      Ratio(static_cast<double>(out->server.bytes_from_cache),
            static_cast<double>(out->server.bytes_from_cache + out->server.bytes_read));
  m["mcast.deduped_chunk_reads"] = static_cast<double>(CounterSum(snapshot, "mcast.deduped_chunk_reads"));

  // Client-side counts.
  std::vector<double> open_ms;
  std::int64_t gets = 0, due = 0;
  for (const ViewerRecord& v : out->viewers) {
    if (v.arrived && v.open_ms >= 0) {
      open_ms.push_back(v.open_ms);
    }
    if (v.admitted) {
      gets += v.get_calls;
      due += v.frames_due;
    }
  }
  std::sort(open_ms.begin(), open_ms.end());
  m["control.open_ms_p50"] = open_ms.empty() ? 0 : open_ms[open_ms.size() / 2];
  m["client.get_calls_per_frame"] = Ratio(static_cast<double>(gets), static_cast<double>(due));
}

}  // namespace perfbench
