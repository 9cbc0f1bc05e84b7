// Playback clients used by the evaluation.
//
// A player renders a stream frame by frame at its recorded rate and records
// each frame's *delay* — the difference between the wall time at which the
// frame's data was actually obtainable and the wall time at which its
// logical timestamp fell due (the paper's Figure 7/10 metric).
//
// Two implementations mirror the paper's comparison:
//  * CrasPlayer — crs_open / crs_start / crs_get against a CRAS server;
//  * UfsPlayer  — read() against the Unix server at the frame schedule (the
//    baseline with no rate guarantee).

#ifndef SRC_CORE_PLAYER_H_
#define SRC_CORE_PLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/media/media_file.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"
#include "src/ufs/unix_server.h"

namespace cras {

struct FrameRecord {
  std::int64_t frame = 0;
  std::int64_t bytes = 0;
  crbase::Time due_at = 0;       // wall time the frame's logical timestamp fell due
  crbase::Time obtained_at = 0;  // wall time its data was available to the client
  crbase::Duration delay() const { return obtained_at - due_at; }
};

struct PlayerStats {
  std::vector<FrameRecord> frames;
  std::int64_t frames_played = 0;
  std::int64_t frames_missed = 0;  // data never arrived within the give-up window
  std::int64_t bytes_consumed = 0;
  bool open_rejected = false;      // CRAS admission refused the stream
  // The degradation controller closed this session mid-playback (degraded
  // array could no longer carry it). Frames rendered before the shed still
  // count in `frames`; frames after it count nowhere.
  bool shed = false;

  crbase::Duration max_delay() const;
  crbase::Duration mean_delay() const;
  // Bytes of frames delivered within `threshold` of their due time — the
  // "can it actually play back" throughput the paper's Figure 6 reports.
  std::int64_t OnTimeBytes(crbase::Duration threshold) const;
};

struct PlayerOptions {
  crbase::Duration play_length = crbase::Seconds(10);
  // Sleep before opening the stream. Staggering players avoids the
  // unrealistic lock-step wakeup of N identical clients started in the same
  // microsecond.
  crbase::Duration start_delay = 0;
  // CRAS only: initial delay allowed before logical zero (defaults to the
  // server's suggested 2*T when negative).
  crbase::Duration initial_delay = -1;
  // Consumption rate divisor for dynamic-QoS experiments: 3 plays every 3rd
  // frame (10 fps from a 30 fps stream), as in §2.4's example.
  std::int64_t frame_step = 1;
  // How long to wait for a late frame. A late frame is waited for on the
  // session (CrasServer::WaitSession: it wakes the player the moment the
  // data is published), not polled for. The give-up must not exceed the
  // server's jitter allowance J: a frame later than J is discarded by the
  // time-driven rule anyway, and a player that keeps waiting for it slips
  // so far that every subsequent chunk has aged out before it asks (an
  // unrecoverable spiral). Give up, count the miss, and stay on schedule —
  // which is what crs_get semantics imply.
  crbase::Duration give_up = crbase::Milliseconds(100);
  // CPU charged per rendered frame (decode/display stand-in).
  crbase::Duration cpu_per_frame = crbase::Microseconds(200);
  int priority = crrt::kPriorityClient;
};

// Spawns a player against a CRAS server. `stats` must outlive the task.
crsim::Task SpawnCrasPlayer(crrt::Kernel& kernel, CrasServer& server,
                            const crmedia::MediaFile& file, const PlayerOptions& options,
                            PlayerStats* stats);

// Spawns a player reading through the Unix server (no guarantees).
crsim::Task SpawnUfsPlayer(crrt::Kernel& kernel, crufs::UnixServer& server,
                           const crmedia::MediaFile& file, const PlayerOptions& options,
                           PlayerStats* stats);

}  // namespace cras

#endif  // SRC_CORE_PLAYER_H_
