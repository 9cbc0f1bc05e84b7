// NPS — a user-level stream transmission engine (paper references [9, 10]).
//
// The paper's QtPlay application (Figure 11) is distributed: a qtserver
// host retrieves movie data through CRAS and transmits it with NPS over
// 10 Mb/s Ethernet to a qtclient host, which hands frames to its display
// and audio sinks. This module provides that path:
//
//   NpsSender   — a thread on the server host that walks a session's chunk
//                 index slightly ahead of the logical clock, fetches each
//                 chunk from the CRAS shared buffer (crs_get), fragments it
//                 into packets, and transmits them;
//   NpsReceiver — the client-host endpoint that reassembles chunks into a
//                 local time-driven buffer, from which a remote player
//                 consumes by logical time exactly as a local one would;
//   LeaseClient — the heartbeat generator keeping a session's lease alive
//                 across the link (CrasServer::Options::lease_period).
//
// Reliability layer (for impaired links — see crnet::LinkImpairments):
// every transmitted chunk carries a sequence number and every fragment its
// index within the chunk, so the receiver reassembles from explicit
// per-sequence state and never trusts arrival order. With a reverse link
// connected (ConnectReverse), the receiver detects gaps — a missing
// fragment, or a wholly lost chunk revealed by a sequence-number jump — and
// requests repair with NAKs under capped exponential backoff. Both ends are
// deadline-aware: the receiver abandons a chunk its logical clock has
// passed (the buffer would discard it on arrival anyway), and the sender
// drops NAKed data whose playout deadline can no longer be met, so late
// retransmissions never waste wire time. Without a reverse link the
// protocol degrades to the classic best-effort NPS: an incomplete chunk is
// abandoned after a short reordering grace.
//
// No loop here polls. The sender sleeps until the exact real time its
// session's logical clock reaches the next chunk's ship time (the clock's
// inverse), or until the server signals the session — data published,
// clock started/stopped/seeked/re-rated, session closed or resumed — and
// re-checks then. The receiver's timers are per gap, plus one tail sweep
// per stream.

#ifndef SRC_NET_NPS_H_
#define SRC_NET_NPS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/core/time_driven_buffer.h"
#include "src/net/link.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"

namespace crnet {

class NpsSender;

// The one shared playout-deadline rule: a chunk is repair-worthy until the
// end of its playout slot, `timestamp + duration`, on the *logical* clock.
// The NAK sender's refusal check, the receiver's drop rule, the sender's
// store pruning, and grouped XOR repair (src/mcast) all call this helper so
// the boundary chunk — logical clock exactly at the deadline — is treated
// identically everywhere: still repairable at the deadline, dead strictly
// past it.
inline crbase::Time ChunkDeadline(const cras::BufferedChunk& chunk) {
  return chunk.timestamp + chunk.duration;
}
inline crbase::Time ChunkDeadline(const crmedia::Chunk& chunk) {
  return chunk.timestamp + chunk.duration;
}

// What one paced step of a sender's walk found.
enum class PaceOutcome {
  kShip,  // the chunk is in hand
  kSkip,  // the clock passed the chunk's playout deadline before it landed
  kGone,  // the session is closed
};

struct PacedChunk {
  PaceOutcome outcome = PaceOutcome::kGone;
  std::optional<cras::BufferedChunk> chunk;  // set on kShip
};

// The paced walk every server-side sender (NpsSender, the group transport's
// feed and member walks) runs per chunk: wait until `session`'s logical
// clock is `lookahead` short of the chunk's timestamp, then take the chunk
// from the shared buffer (crs_get), waiting on the session if it has not
// landed yet. Every wait is exact — the clock's inverse, or a server signal
// on the session — so the walk wakes once per chunk in steady state.
crsim::Task PaceChunk(cras::CrasServer& server, cras::SessionId session,
                      const crmedia::Chunk& chunk, crbase::Duration lookahead,
                      PacedChunk* out);

// One NPS packet: a fragment of chunk number `seq`. Every fragment carries
// the full chunk metadata, so reassembly survives the loss of any subset.
struct NpsFragment {
  std::uint64_t seq = 0;  // chunk sequence number (consecutive from 0)
  int frag_index = 0;
  int frag_count = 1;
  std::int64_t bytes = 0;  // payload bytes in this fragment
  cras::BufferedChunk chunk;
  crbase::Time sent_at = 0;  // original chunk send start (sender host time)
  bool retransmit = false;
  bool multicast = false;  // delivered by group fan-out, not a unicast send
};

// A repair request: the fragments of `seq` the receiver is still missing.
// An empty `missing` list means "everything" (the whole chunk was lost and
// the receiver does not know its fragment count). `playout` is the
// receiver's logical clock when it sent the NAK: the sender judges the
// playout deadline by the receiver's clock, which may trail the session's.
struct NpsNak {
  std::uint64_t seq = 0;
  std::vector<int> missing;
  crbase::Time playout = 0;
};

struct NpsReceiverStats {
  std::int64_t chunks_received = 0;
  std::int64_t bytes_received = 0;
  std::int64_t fragments_received = 0;
  std::int64_t duplicate_fragments = 0;    // already held, or chunk already done
  std::int64_t out_of_order_fragments = 0; // arrived behind a higher index
  std::int64_t retransmitted_fragments = 0;
  std::int64_t naks_sent = 0;
  std::int64_t chunks_abandoned = 0;  // given up: deadline passed or unrepairable
  crbase::Duration max_network_latency = 0;  // chunk send start -> reassembled
};

// Client-side endpoint: reassembled chunks land in a time-driven buffer.
class NpsReceiver {
 public:
  struct Options {
    std::int64_t buffer_bytes = 1 << 20;
    crbase::Duration jitter_allowance = crbase::Milliseconds(100);
    // Reordering grace before the first NAK (or, with no reverse link,
    // before an incomplete chunk is abandoned).
    crbase::Duration nak_delay = crbase::Milliseconds(20);
    // NAK retry backoff doubles per attempt up to this cap.
    crbase::Duration nak_backoff_cap = crbase::Milliseconds(160);
    int max_naks = 10;  // per chunk, before giving up
    // Give-up horizon for a wholly lost chunk (sequence gap, so no
    // metadata and hence no logical deadline to test against).
    crbase::Duration placeholder_ttl = crbase::Milliseconds(500);
    std::int64_t nak_bytes = 64;  // wire size of one NAK packet
  };

  NpsReceiver(crrt::Kernel& kernel, const Options& options);
  explicit NpsReceiver(crrt::Kernel& kernel);
  NpsReceiver(const NpsReceiver&) = delete;
  NpsReceiver& operator=(const NpsReceiver&) = delete;
  // Cancels any pending NAK and tail timers (they ride the engine queue).
  ~NpsReceiver();

  // Packet arrival, invoked by the forward link's delivery events.
  void OnFragment(const NpsFragment& fragment);

  // Enables repair: NAKs travel over `reverse` to `sender`, which starts
  // retaining sent chunks for retransmission.
  void ConnectReverse(Link& reverse, NpsSender& sender);

  // The remote application's crs_get equivalent.
  std::optional<cras::BufferedChunk> Get(crbase::Time t);

  cras::LogicalClock& clock() { return clock_; }
  const NpsReceiverStats& stats() const { return stats_; }
  const cras::TimeDrivenBufferStats& buffer_stats() const { return buffer_.stats(); }
  std::size_t incomplete_chunks() const { return pending_.size(); }

  // Counters (nps.rx_*) and a reassembly-latency histogram, labeled
  // {stream, name}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

  // Points reassembly at the session's frame-trace ring: arrival/repair
  // stamps, give-up misses, and playout delivery all land there. Also wired
  // through to the local buffer so an unconsumed drop after reassembly is
  // resolved (missed at kCompleted). Usually set by NpsSender::Start.
  void set_frame_trace(crobs::SessionTrace* trace);
  crobs::SessionTrace* frame_trace() const { return ftrace_; }

  // The stream's chunk index — the client holds the control file it opened
  // the stream with. With a reverse link connected it enables the tail
  // sweep: gap detection learns of a lost chunk only from a later arrival,
  // so nothing reveals a lost final chunk. Once the playout clock is within
  // the jitter allowance of the final chunk, one timer per stream opens
  // placeholders (and so NAKs) for every chunk after the last one seen.
  // Set by NpsSender::Start.
  void set_index(const crmedia::ChunkIndex* index) { index_ = index; }

  // How long after the first sign of a chunk (its first fragment, or the
  // gap that reveals it) this receiver's last NAK for it can reach the
  // sender: the reordering grace plus every backoff step, max_naks NAKs in
  // all, plus the reverse path's propagation, jitter and reorder delay.
  // The sender retains sent chunks at least this long.
  crbase::Duration NakWindow() const;

 private:
  // Reassembly state for one sequence number. A placeholder entry (created
  // on a sequence gap) has frag_count == 0 until a fragment arrives.
  struct Reassembly {
    cras::BufferedChunk chunk;
    int frag_count = 0;
    std::vector<bool> have;
    int received = 0;
    int max_frag_seen = -1;
    crbase::Time sent_at = 0;
    crbase::Time created_at = 0;  // receiver host time
    // Arrival of the newest *fresh* (non-retransmit) fragment: the frame
    // trace's wire/repair boundary. A chunk completed entirely by fresh
    // fragments gets a repair latency of exactly zero.
    crbase::Time last_fresh_at = -1;
    bool timer_armed = false;
    crsim::EventId timer{};
    crbase::Duration backoff = 0;
    int naks = 0;
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* chunks_received = nullptr;
    crobs::Counter* naks_sent = nullptr;
    crobs::Counter* chunks_abandoned = nullptr;
    crobs::Histogram* reassembly_ms = nullptr;
  };

  // Ensures a pending entry exists for `seq` with its first NAK timer
  // armed; used for both gap placeholders and fragment-carrying entries.
  Reassembly& EnsureEntry(std::uint64_t seq);
  void ArmTimer(std::uint64_t seq, crbase::Duration delay);
  // NAK timer body: give up, or request repair and re-arm with backoff.
  void OnTimer(std::uint64_t seq);
  void Complete(std::uint64_t seq, Reassembly& entry);
  void Abandon(std::uint64_t seq, Reassembly& entry);
  // Logical time of the tail sweep: the final chunk's timestamp less the
  // jitter allowance.
  crbase::Time TailSweepAt() const;
  // Arms the tail timer once the index, a repair path and a running clock
  // are all there.
  void MaybeArmTail();
  void OnTailTimer();

  crrt::Kernel* kernel_;
  Options options_;
  cras::TimeDrivenBuffer buffer_;
  cras::LogicalClock clock_;
  Link* reverse_ = nullptr;
  NpsSender* sender_ = nullptr;
  const crmedia::ChunkIndex* index_ = nullptr;
  std::map<std::uint64_t, Reassembly> pending_;
  std::set<std::uint64_t> done_;  // delivered or abandoned
  std::uint64_t expected_next_ = 0;  // every seq below this has an entry or is done
  // The highest sequence number whose chunk metadata arrived, and its chunk
  // index: the tail sweep's anchor. -1 until a fragment arrives.
  std::int64_t last_meta_seq_ = -1;
  std::int64_t last_meta_chunk_ = -1;
  crsim::EventId tail_timer_ = crsim::kInvalidEventId;
  bool tail_swept_ = false;
  NpsReceiverStats stats_;
  std::unique_ptr<ObsState> obs_;
  crobs::SessionTrace* ftrace_ = nullptr;
};

struct NpsSenderStats {
  std::int64_t chunks_sent = 0;
  std::int64_t chunks_skipped = 0;  // never appeared in the shared buffer
  std::int64_t packets_sent = 0;    // original fragments (excludes retransmits)
  std::int64_t bytes_sent = 0;
  std::int64_t naks_received = 0;
  std::int64_t fragments_retransmitted = 0;
  std::int64_t retransmits_abandoned = 0;  // NAKed, but playout deadline passed
  std::int64_t naks_unknown = 0;           // for a chunk already pruned
};

// Server-side transmitter for one stream session.
class NpsSender {
 public:
  struct Options {
    // How far ahead of the session's logical clock chunks are shipped;
    // hides the network serialization + propagation latency.
    crbase::Duration lookahead = crbase::Milliseconds(250);
    std::int64_t max_packet_bytes = 8 * 1024;  // fragmentation threshold
    crbase::Duration cpu_per_chunk = crbase::Microseconds(150);
    int priority = crrt::kPriorityServer - 1;  // below CRAS, above clients
  };

  NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link, NpsReceiver& receiver,
            const Options& options);
  NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link, NpsReceiver& receiver);
  NpsSender(const NpsSender&) = delete;
  NpsSender& operator=(const NpsSender&) = delete;

  // Spawns the transmitter thread for `session`, walking `index` to its
  // end. The returned task may be awaited or dropped.
  crsim::Task Start(cras::SessionId session, const crmedia::ChunkIndex* index);

  // Retain sent chunks (until the receiver can no longer ask for them) so
  // NAKs can be answered. Called by NpsReceiver::ConnectReverse.
  void EnableRetransmit() { retransmit_enabled_ = true; }

  // Repair request arrival, invoked by the reverse link's delivery events.
  // Retransmits the missing fragments — unless the receiver's clock (the
  // NAK's `playout`) has passed the chunk's playout deadline, in which case
  // the data is dropped here, at the sender.
  void OnNak(const NpsNak& nak);

  const NpsSenderStats& stats() const { return stats_; }
  std::size_t retained_chunks() const { return store_.size(); }

  // Chunk index behind NPS sequence number `seq`, or -1 if the chunk is no
  // longer retained. Sequence numbers are *not* chunk indexes — a skipped
  // chunk consumes no seq — so the receiver maps a wholly-lost placeholder
  // back to its frame identity through here (it holds the sender pointer
  // whenever a reverse link is connected).
  std::int64_t ChunkIndexOf(std::uint64_t seq) const;

  // Counters (nps.tx_*), labeled {stream, name}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  // A sent chunk retained for repair until its playout deadline.
  struct StoredChunk {
    cras::BufferedChunk chunk;
    crbase::Time sent_at = 0;
    std::vector<std::int64_t> frag_bytes;
    crbase::Time deadline = 0;  // logical: timestamp + duration
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* naks_received = nullptr;
    crobs::Counter* fragments_retransmitted = nullptr;
    crobs::Counter* retransmits_abandoned = nullptr;
  };

  crsim::Task SenderThread(crrt::ThreadContext& ctx, cras::SessionId session,
                           const crmedia::ChunkIndex* index);
  void SendFragment(const NpsFragment& fragment);
  // Drops retained chunks the receiver can no longer ask for: its playout
  // (the latest NAK's reading) is past their deadline, or its NAK window
  // has closed on them.
  void PruneStore();

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  Link* link_;
  NpsReceiver* receiver_;
  Options options_;
  bool retransmit_enabled_ = false;
  cras::SessionId session_ = cras::kInvalidSession;
  crobs::SessionTrace* ftrace_ = nullptr;  // cached from the server at Start
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, StoredChunk> store_;
  // The receiver's playout clock as of its latest NAK; before any NAK,
  // nothing is known to be past.
  crbase::Time receiver_playout_ = INT64_MIN;
  // seq -> chunk index for every chunk ever sent. Identity must outlive the
  // retransmit store: the store prunes past-deadline entries, but the
  // receiver may only observe a wholly-lost chunk's sequence gap after a
  // sender stall, and the give-up still needs a frame to attribute.
  std::vector<std::int64_t> sent_chunk_index_;
  NpsSenderStats stats_;
  std::unique_ptr<ObsState> obs_;
};

// Client-side lease heartbeat generator: a thread that renews the session's
// lease across the link every `period` (CrasServer::Options::lease_period
// governs how long the server waits; renew at least twice per period so one
// lost heartbeat does not lapse the lease). Stop() silences it — the
// simulated equivalent of a client crash or network partition, after which
// the server's reaper reclaims the session.
class LeaseClient {
 public:
  struct Options {
    crbase::Duration period = crbase::Milliseconds(500);
    std::int64_t heartbeat_bytes = 64;
    int priority = crrt::kPriorityClient;
  };

  LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
              cras::SessionId session, const Options& options);
  LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
              cras::SessionId session);
  LeaseClient(const LeaseClient&) = delete;
  LeaseClient& operator=(const LeaseClient&) = delete;

  // Spawns the heartbeat thread. The returned task may be awaited or
  // dropped; it exits at the next tick after Stop().
  crsim::Task Start();
  void Stop() { stopped_ = true; }

  std::int64_t heartbeats_sent() const { return heartbeats_sent_; }

 private:
  crsim::Task HeartbeatThread(crrt::ThreadContext& ctx);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  Link* link_;
  cras::SessionId session_;
  Options options_;
  bool stopped_ = false;
  std::int64_t heartbeats_sent_ = 0;
};

}  // namespace crnet

#endif  // SRC_NET_NPS_H_
