// The CRAS benchmark: three traffic mixes run against the simulated server,
// measured from outside the program. Each workload builds its rig, writes
// its media, drives clients through the server's public control and data
// interfaces, and returns what it observed: per-viewer frame records, the
// server's public stats, and the layers' registry snapshot.
//
// A *round* is one complete run of a workload at one seed: set-up, the
// timed simulation, and collection. main.cc repeats rounds of the same seed
// until the requested wall time is spent and reports medians of the
// host-time figures; the simulated figures must repeat exactly across
// rounds, which the behaviour digest proves.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/cras.h"
#include "src/media/chunk_index.h"
#include "src/obs/frame_trace.h"
#include "src/obs/metrics.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"
#include "src/ufs/unix_server.h"
#include "src/volume/admission.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of the calling thread, in seconds. Set-up and run times are
// taken in CPU time: on a shared host, wall time also counts the time other
// processes hold the core, which says nothing about the program.
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own record of host time spent in each call it makes
// into a layer. Kept in memory for the round and written out at the end of
// the run. Recording is off (one branch per call site) in untraced rounds.

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct NameTotals {
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // total minus the time its child spans cover
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::uint32_t Intern(const std::string& name);
  // Opens a span nested in the innermost open one; returns its index.
  std::int32_t Begin(std::uint32_t name);
  void End(std::int32_t span);

  std::map<std::string, NameTotals> Totals() const;
  // Chrome trace_event JSON (complete events), loadable in Perfetto.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::uint32_t name)
      : recorder_(recorder), span_(recorder.enabled() ? recorder.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (span_ >= 0) {
      recorder_.End(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t span_;
};

// Interned names of the spans the benchmark records.
struct SpanNames {
  explicit SpanNames(SpanRecorder& r)
      : setup(r.Intern("setup")),
        setup_rig(r.Intern("setup.rig")),
        setup_media(r.Intern("setup.media")),
        run(r.Intern("run")),
        get(r.Intern("client.get")),
        put_chunk(r.Intern("client.put_chunk")),
        collect(r.Intern("collect")) {}
  std::uint32_t setup, setup_rig, setup_media, run, get, put_chunk, collect;
};

// ---------------------------------------------------------------------------
// What a round observed.

// One viewer (a stream a client asked for). Every frame due to an admitted
// viewer is an attempted operation; it fails when missed, or when it was
// never played because the server shed the stream.
struct ViewerRecord {
  int title = -1;                 // index into Outputs::titles
  bool arrived = false;           // issued its Open
  bool admitted = false;
  bool shed = false;
  std::int64_t frames_due = 0;    // fixed by the watch length before the run
  std::int64_t frames_played = 0;
  std::int64_t frames_missed = 0;
  std::int64_t frames_unplayed = 0;  // due after a shed
  std::int64_t bytes = 0;            // bytes of the frames in hand
  std::int64_t size_mismatches = 0;  // delivered size != index size
  std::int64_t control_errors = 0;   // non-refusal control request errors
  std::vector<bool> played;          // per due frame: in hand
  double startup_ms = -1;            // Open issued -> first frame's data in hand
  double open_ms = -1;               // Open issued -> verdict
  std::int64_t get_calls = 0;
};

// One constant-rate recording session.
struct RecorderRecord {
  bool admitted = false;
  std::int64_t chunks_due = 0;
  std::int64_t chunks_put = 0;
  std::int64_t put_errors = 0;
  std::int64_t control_errors = 0;
  std::int64_t bytes_put = 0;
  // The server's session counts, read before close (-1: never read).
  std::int64_t chunks_written = -1;
  std::int64_t bytes_written = -1;  // device bytes: whole sectors per batch
};

// The demand sets of every admission decision the clients asked for, for
// the host-time replay through VolumeAdmissionModel::Admissible.
struct AdmissionLog {
  std::map<std::int64_t, cras::StreamDemand> open;  // by session id
  std::vector<std::vector<cras::StreamDemand>> sets;
};

// Everything the checks and metrics read. Workload code fills it; checks
// are pure functions of it, so the self-test can corrupt a copy and confirm
// that each check notices.
struct Outputs {
  std::string workload;
  std::vector<crmedia::ChunkIndex> titles;
  std::vector<ViewerRecord> viewers;
  std::vector<RecorderRecord> recorders;

  double sim_seconds = 0;  // simulated time the clients' load spanned
  int disks = 1;
  double worst_rate = 0;   // bytes/s: max over viewed titles of WorstRate(T)

  // Server side, from public stats.
  cras::ServerStats server;
  std::int64_t ledger_overruns = 0;
  std::int64_t background_bytes = 0;  // Unix-server readers' bytes in hand
  std::int64_t background_errors = 0;
  // End state, once every client has closed.
  std::int64_t open_sessions_end = 0;
  std::int64_t buffer_bytes_reserved_end = 0;
  std::int64_t wired_bytes_start = 0;  // server + cache pools, before any client
  std::int64_t wired_bytes_end = 0;
  bool has_cache = false;
  std::int64_t interval_pool_used_end = 0;
  std::int64_t pairs_active_end = 0;

  // Network side (hot_title_fanout).
  bool has_link = false;
  std::int64_t link_bytes_sent = 0;
  int hot_title = -1;
  std::int64_t mcast_chunks_sent = 0;  // group sender's multicast chunks
  std::int64_t disk_bytes_bound = 0;   // hot title once + each cold title once

  // Frame attribution (frame tracer on, traced rounds only).
  bool frames_traced = false;
  crobs::StageAttribution attribution;

  // Per-layer figures derived from simulated state (no host time).
  std::map<std::string, double> layer;
  // Recorded in traced rounds only, with the model parameters to replay on.
  AdmissionLog admission;
  cras::DiskParams disk_params;
  crbase::Duration interval = 0;
  std::int64_t max_read_bytes = 0;
  std::int64_t memory_budget_bytes = 0;
  std::int64_t stripe_unit_bytes = 0;
};

// How a round runs.
struct RoundConfig {
  std::uint64_t seed = 1;
  // Traced round: hub trace, frame tracer and SLO monitor on, spans
  // recorded, admission demand sets kept.
  bool traced = false;
};

// Host-time figures of one round.
struct RoundTimes {
  double setup_s = 0;        // build the rig, generate and write the media
  double media_write_s = 0;  // the media part of set-up
  double run_s = 0;          // the timed simulation
  std::uint64_t events = 0;  // engine events fired during the timed run
};

struct RoundResult {
  Outputs out;
  RoundTimes times;
  // Traced rounds: hub tracer drops plus frame records evicted unresolved.
  std::int64_t trace_dropped_events = 0;
};

// The three workloads. Each builds a fresh rig, runs to completion and
// returns what it saw; `spans` records host time when enabled.
RoundResult RunStripedVod(const RoundConfig& config, SpanRecorder& spans);
RoundResult RunHotTitleFanout(const RoundConfig& config, SpanRecorder& spans);
RoundResult RunZipfChurn(const RoundConfig& config, SpanRecorder& spans);

// ---------------------------------------------------------------------------
// Shared pieces of the workloads (clients.cc).

// The client side of one round: the kernel and server it talks to, and the
// span recorder that times its calls.
struct ClientEnv {
  crrt::Kernel* kernel = nullptr;
  cras::CrasServer* server = nullptr;
  SpanRecorder* spans = nullptr;
  const SpanNames* names = nullptr;
  AdmissionLog* admission = nullptr;  // null when not recording
};

// Frames a viewer watching `watch` of `index` is due: chunks whose logical
// timestamp falls before the watch length.
std::int64_t FramesDue(const crmedia::ChunkIndex& index, crbase::Duration watch);

// A local viewer: at `arrive_at` opens `inode`, starts it with the server's
// suggested initial delay, fetches each due frame from the shared buffer at
// its due time (retrying every 2 ms for up to 100 ms), then stops and
// closes. When `refused_flag` is non-null the viewer does not arrive once it
// is set, and sets it on refusal (fill-until-refused schedules).
crsim::Task SpawnLocalViewer(const ClientEnv& env, const crmedia::ChunkIndex* index,
                             crufs::InodeNumber inode, crbase::Time arrive_at,
                             crbase::Duration watch, bool* refused_flag, ViewerRecord* record);

// A recorder: opens a write session on a preallocated file, puts every chunk
// of `index` at its frame time, waits three intervals for the writes to land,
// reads the server's written-byte count, then stops and closes.
crsim::Task SpawnRecorder(const ClientEnv& env, const crmedia::ChunkIndex* index,
                          crufs::InodeNumber inode, RecorderRecord* record);

// A background `cat`: sequential 8 KiB reads of `inode` through the Unix
// server, wrapping at the end, until `stop_at`.
crsim::Task SpawnBackgroundReader(crrt::Kernel& kernel, crufs::UnixServer& server,
                                  crufs::InodeNumber inode, std::int64_t file_bytes,
                                  crbase::Time stop_at, std::int64_t* bytes,
                                  std::int64_t* errors);

// Records the demand set an Open of `demand` is judged on, then (after the
// verdict) keeps the open-session map current.
void NoteAdmissionDecision(const ClientEnv& env, const cras::StreamDemand& demand);
void NoteOpened(const ClientEnv& env, std::int64_t session, const cras::StreamDemand& demand);
void NoteClosed(const ClientEnv& env, std::int64_t session);
cras::StreamDemand DemandOf(const crmedia::ChunkIndex& index, crbase::Duration interval);

// Reads the server-side figures every workload shares (server stats, disk,
// volume, driver, ledger, cache, CPU, Unix server, registry histograms)
// into `out`.
void CollectServerSide(crrt::Kernel& kernel, cras::CrasServer& server,
                       crufs::UnixServer& unix_server, const crobs::RegistrySnapshot& snapshot,
                       Outputs* out);

// ---------------------------------------------------------------------------
// Checks, metrics and the digest (report.cc).

// Every failed check, as one line each; empty when the round is correct.
std::vector<std::string> Check(const Outputs& out);

// Operations attempted and failed (see ViewerRecord / RecorderRecord).
std::int64_t Attempted(const Outputs& out);
std::int64_t Failed(const Outputs& out);

// End-to-end metrics that come from simulated state.
std::map<std::string, double> SimulatedEndToEnd(const Outputs& out);

// FNV-1a over every simulated output: the end-to-end and per-layer figures
// above and each viewer's and recorder's counts. Host times are excluded,
// so two builds that behave identically give the same digest.
std::uint64_t Digest(const Outputs& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
