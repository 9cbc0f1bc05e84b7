// Grouped delivery transport: one multicast feed, N receivers, coded repair.
//
// GroupSender is the server-host transmitter for one delivery group
// (src/mcast/group_manager.h). It walks the title's chunk index once,
// slightly ahead of the *feed* session's logical clock, fetches each chunk
// from the feed's shared buffer (one disk read per interval however many
// viewers watch) and fans the fragments out with crnet::Link::Multicast —
// serialized once, delivered to every member with independent impairment
// draws. Late joiners are bridged unicast: until a member's merge point the
// sender walks the member's own (prefix-cache-served) session, so the
// bridge costs wire time but no disk time.
//
// Repair is coded, not per-client. Each GroupReceiver periodically reports
// the sequence numbers/fragments it is still missing over its reverse link
// (a loss *bitmap*, not a NAK per gap). The sender aggregates the reports
// and, every repair_interval, multicasts XOR parity packets over windows of
// recently sent fragments (src/mcast/xor_codec.h), partitioned so no
// receiver is missing two fragments of one window — a single parity packet
// then fixes a *different* loss at every receiver. Both ends test
// crnet::ChunkDeadline before spending wire time or decode effort.
//
// Degradation is explicit, mirroring the cache's demote-to-disk rule: a
// reported loss that has already left the sender's repair window (the
// receiver fell too far behind) while still being repairable on the
// member's own clock demotes the member to unicast — the sender calls
// CrasServer::DemoteGroupMember, admission re-settles, and from then on the
// member is served like a plain NPS stream. Never a silent miss.
//
// Nothing here polls. The sender's feed walk and each member's bridge or
// unicast walk run as their own threads, each sleeping until the exact
// real time its session's clock reaches the next chunk's ship time, or
// until the server signals that session (data published, clock changed,
// member demoted or closed). Coded repair runs on a timer armed by loss
// reports. A receiver's report thread sleeps until its next due-sweep or
// deadline time while nothing is missing, and on the report cadence while
// something is.

#ifndef SRC_MCAST_GROUP_TRANSPORT_H_
#define SRC_MCAST_GROUP_TRANSPORT_H_

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
#include "src/mcast/group_manager.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/awaitables.h"
#include "src/sim/task.h"

namespace crmcast {

class GroupSender;

// One entry of a receiver's periodic loss report: the fragments of `seq`
// still missing. An empty `missing` list means the whole chunk (the
// receiver saw the sequence gap but holds no metadata).
struct LossReportEntry {
  std::uint64_t seq = 0;
  std::vector<int> missing;
};

// A receiver's aggregate loss bitmap, shipped on the reverse link every
// report interval — one packet regardless of how many gaps it covers.
struct LossReport {
  SessionId member = kNoSession;
  std::vector<LossReportEntry> entries;
};

// Identifies one fragment covered by a parity window. Carries the full
// chunk metadata (like crnet::NpsFragment) so a decode can synthesize the
// lost fragment outright.
struct RepairRef {
  std::uint64_t seq = 0;
  int frag_index = 0;
  int frag_count = 1;
  std::int64_t bytes = 0;
  cras::BufferedChunk chunk;
  crbase::Time sent_at = 0;
};

// One multicast XOR parity packet: the bytewise XOR of every fragment in
// `window`. A receiver holding all but one window member recovers it.
struct RepairPacket {
  std::vector<RepairRef> window;
  std::int64_t bytes = 0;  // wire size: max fragment size + header overhead
};

struct GroupReceiverStats {
  std::int64_t chunks_received = 0;
  std::int64_t bytes_received = 0;
  std::int64_t fragments_received = 0;
  std::int64_t duplicate_fragments = 0;
  std::int64_t retransmitted_fragments = 0;
  std::int64_t reports_sent = 0;
  std::int64_t chunks_abandoned = 0;   // playout deadline passed unrepaired
  std::int64_t repair_decodes = 0;     // parity packet recovered a fragment
  std::int64_t repair_useless = 0;     // parity covered nothing we miss
  std::int64_t repair_decode_failed = 0;  // >1 window member absent
  crbase::Duration max_network_latency = 0;
};

// Client-host endpoint of a grouped stream. Reassembles multicast, bridge
// and repaired fragments into a time-driven buffer, tracks gaps against
// both the multicast cursor and the unicast bridge cursor, and reports
// losses as periodic bitmaps instead of per-gap NAKs.
class GroupReceiver {
 public:
  struct Options {
    std::int64_t buffer_bytes = 4 << 20;
    crbase::Duration jitter_allowance = crbase::Milliseconds(100);
    // Cadence of loss-bitmap reports (and deadline sweeps) while any chunk
    // is incomplete; with nothing missing the thread sleeps until the next
    // chunk's due sweep.
    crbase::Duration report_interval = crbase::Milliseconds(25);
    // A gap younger than this is assumed reordering, not loss.
    crbase::Duration reorder_grace = crbase::Milliseconds(10);
    std::int64_t report_bytes = 96;  // wire size of one loss report
    int priority = crrt::kPriorityClient;
  };

  // `index` is the title's chunk index — the receiver knows the stream
  // layout (the player has it too), which gives every gap a playout
  // deadline even when no fragment metadata ever arrived.
  GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index,
                const Options& options);
  GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index);
  GroupReceiver(const GroupReceiver&) = delete;
  GroupReceiver& operator=(const GroupReceiver&) = delete;

  // Chunks below the merge point arrive on the unicast bridge; the
  // multicast gap tracker starts expecting sequence numbers from here.
  void set_merge_chunk(std::int64_t merge_chunk);

  // Loss reports travel over `reverse` to `sender`, identified as `member`
  // (the CRAS session id). Starts nothing by itself — Start() runs the
  // report thread.
  void ConnectReverse(crnet::Link& reverse, GroupSender& sender, SessionId member);

  // Spawns the report/sweep thread. Runs until Stop().
  crsim::Task Start();
  void Stop() {
    stopped_ = true;
    wake_.Notify();
  }

  // Packet arrival, invoked by the forward link's delivery events.
  void OnFragment(const crnet::NpsFragment& fragment);
  void OnRepair(const RepairPacket& packet);

  // The remote application's crs_get equivalent.
  std::optional<cras::BufferedChunk> Get(crbase::Time t);

  // Points the receiver at the member session's frame-trace ring (the
  // sender wires this in AddMember). Completed chunks stamp kArrived (last
  // fresh fragment) and kCompleted; deadline-swept gaps resolve as misses;
  // Get() stamps playout. nullptr detaches.
  void set_frame_trace(crobs::SessionTrace* trace);
  crobs::SessionTrace* frame_trace() const { return ftrace_; }

  cras::LogicalClock& clock() { return clock_; }
  const GroupReceiverStats& stats() const { return stats_; }
  const cras::TimeDrivenBufferStats& buffer_stats() const { return buffer_.stats(); }
  std::size_t incomplete_chunks() const { return pending_.size(); }

  // Counters (mcast.rx_*), labeled {stream}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  struct Reassembly {
    cras::BufferedChunk chunk;
    int frag_count = 0;  // 0 while only a gap placeholder
    std::vector<bool> have;
    int received = 0;
    crbase::Time sent_at = 0;
    crbase::Time created_at = 0;  // receiver host time
    // Arrival of the newest *fresh* (non-repair) fragment: the wire/repair
    // attribution boundary. -1 until one arrives.
    crbase::Time last_fresh_at = -1;
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* chunks_received = nullptr;
    crobs::Counter* reports_sent = nullptr;
    crobs::Counter* chunks_abandoned = nullptr;
    crobs::Counter* repair_decodes = nullptr;
    crobs::Counter* repair_decode_failed = nullptr;
  };

  Reassembly& EnsureEntry(std::uint64_t seq);
  void Complete(std::uint64_t seq, Reassembly& entry);
  void Abandon(std::uint64_t seq, Reassembly& entry);
  // Playout deadline of `seq` from the chunk index — defined even for
  // placeholders that never saw metadata.
  crbase::Time DeadlineOf(std::uint64_t seq) const;
  crsim::Task ReportThread(crrt::ThreadContext& ctx);
  // True when this receiver holds fragment (seq, frag_index) — completed
  // chunks hold everything; abandoned ones hold nothing.
  bool Holds(std::uint64_t seq, int frag_index) const;

  // Abandons what playout passed, runs the due sweep, sends the report.
  void Sweep();
  // When the report thread should next run.
  crbase::Time NextWake() const;

  crrt::Kernel* kernel_;
  const crmedia::ChunkIndex* index_;
  Options options_;
  cras::TimeDrivenBuffer buffer_;
  cras::LogicalClock clock_;
  crnet::Link* reverse_ = nullptr;
  GroupSender* sender_ = nullptr;
  SessionId member_ = kNoSession;
  std::int64_t merge_chunk_ = 0;
  bool stopped_ = false;
  // The report thread parks here. While it sleeps with nothing pending
  // (`idle_`), the first fragment that leaves a chunk incomplete wakes it
  // onto the report cadence — once per idle spell, not per fragment.
  crsim::WaitList wake_;
  bool idle_ = false;
  bool idle_on_stopped_clock_ = false;
  std::map<std::uint64_t, Reassembly> pending_;
  std::set<std::uint64_t> done_;       // completed or abandoned
  std::set<std::uint64_t> abandoned_;  // subset of done_: holds no data
  // Gap trackers: every seq below a cursor has an entry or is done.
  std::uint64_t mcast_expected_ = 0;    // multicast stream, from merge_chunk_
  std::uint64_t unicast_expected_ = 0;  // bridge/unicast stream, from 0
  // Due sweep cursor: every chunk below it is done, pending, or was
  // placeholdered when its playout became imminent.
  std::uint64_t due_swept_ = 0;
  GroupReceiverStats stats_;
  std::unique_ptr<ObsState> obs_;
  crobs::SessionTrace* ftrace_ = nullptr;
};

struct GroupSenderStats {
  std::int64_t chunks_multicast = 0;
  std::int64_t packets_multicast = 0;  // original fragments, paid once each
  std::int64_t bytes_multicast = 0;
  std::int64_t chunks_skipped = 0;  // never appeared in the shared buffer
  std::int64_t patch_chunks = 0;    // bridge chunks below a merge point
  std::int64_t unicast_chunks = 0;  // demoted-member chunks
  std::int64_t fragments_retransmitted = 0;
  std::int64_t retransmits_abandoned = 0;
  std::int64_t repair_packets = 0;
  std::int64_t repair_bytes = 0;
  std::int64_t reports_received = 0;
  std::int64_t deduped_chunk_reads = 0;  // reads the fan-out saved vs unicast
  std::int64_t members_demoted = 0;      // fell past the repair window
};

// Server-host transmitter for one delivery group.
class GroupSender {
 public:
  struct Options {
    crbase::Duration lookahead = crbase::Milliseconds(250);
    std::int64_t max_packet_bytes = 8 * 1024;
    crbase::Duration cpu_per_chunk = crbase::Microseconds(150);
    // Cadence of the coded-repair pass over accumulated loss reports: a
    // reported multicast loss is repaired at most this long after the
    // previous pass.
    crbase::Duration repair_interval = crbase::Milliseconds(30);
    // How many recently multicast chunks stay repairable. A reported loss
    // older than this (and still in deadline on the member's clock) demotes
    // the member to unicast.
    std::int64_t repair_window_chunks = 64;
    std::int64_t repair_packet_overhead = 96;  // header bytes atop the parity
    // Cap on fragments XOR-ed into one parity packet.
    std::size_t max_window_entries = 16;
    // Extra linger after every member's clock has passed the final chunk's
    // deadline, so reports and repairs already on the wire still land; the
    // repair pass closes after it. The wait for the slowest member is
    // clock-driven, not part of this knob.
    crbase::Duration drain = crbase::Seconds(1);
    // Receiver playout clocks trail their session clocks by the client's
    // chosen startup lag, which the server cannot observe. Deadline checks
    // on the session clock (store pruning, the demote rule, bridge
    // retransmits) extend the chunk's life by this much so a repair the
    // receiver can still use is not refused as already-dead.
    crbase::Duration playout_slack = crbase::Milliseconds(500);
    int priority = crrt::kPriorityServer - 1;
  };

  GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward,
              const Options& options);
  GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward);
  GroupSender(const GroupSender&) = delete;
  GroupSender& operator=(const GroupSender&) = delete;
  // Cancels a pending repair pass (it rides the engine queue).
  ~GroupSender();

  // Registers a member session and its client-host receiver. Call after the
  // server admitted the session into the group (any time, including while
  // the feed is already rolling — that is the late-join path).
  void AddMember(SessionId session, GroupReceiver& receiver);

  // Spawns the transmitter thread for `group`, walking `index` to its end,
  // then waiting out every member's walk plus a short repair drain. Each
  // member's bridge/unicast walk runs on a thread of its own (spawned here,
  // or by AddMember once started). The returned task may be awaited or
  // dropped.
  crsim::Task Start(GroupId group, const crmedia::ChunkIndex* index);

  // Loss-report arrival, invoked by a reverse link's delivery events.
  // Bridge/unicast losses are retransmitted immediately (deadline-checked);
  // multicast losses accumulate for the next coded-repair pass.
  void OnLossReport(const LossReport& report);

  const GroupSenderStats& stats() const { return stats_; }
  std::size_t retained_chunks() const { return store_.size(); }

  // Counters (mcast.tx_*), labeled {group}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  struct Member {
    SessionId session = kNoSession;
    GroupReceiver* receiver = nullptr;
    std::int64_t merge_chunk = 0;
    std::int64_t patch_cursor = 0;    // unicast bridge progress, [0, merge)
    std::int64_t unicast_cursor = 0;  // demoted-member progress
    bool unicast = false;             // demoted: served like a plain stream
    bool dead = false;                // session gone
    // The member session's frame-trace ring (nullptr when tracing is off).
    crobs::SessionTrace* trace = nullptr;
    // Multicast losses reported since the last repair pass.
    std::map<std::uint64_t, std::vector<int>> missing;
  };

  // A multicast chunk retained for coded repair while inside the window.
  struct StoredChunk {
    cras::BufferedChunk chunk;
    crbase::Time sent_at = 0;
    std::vector<std::int64_t> frag_bytes;
    crbase::Time deadline = 0;
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* chunks_multicast = nullptr;
    crobs::Counter* repair_packets = nullptr;
    crobs::Counter* repair_bytes = nullptr;
    crobs::Counter* deduped_chunk_reads = nullptr;
  };

  crsim::Task SenderThread(crrt::ThreadContext& ctx);
  // One member's bridge (below its merge point) and, once demoted, unicast
  // walk; then it waits out the member's clock past the final deadline.
  crsim::Task MemberWalk(crrt::ThreadContext& ctx, std::size_t mi);
  void SpawnWalk(std::size_t mi);
  // Arms the next coded-repair pass, repair_interval after the last one.
  void ArmRepair();
  // Fans one chunk out to every multicast-eligible member. Returns the
  // number of members it reached.
  std::size_t ShipMulticast(std::uint64_t seq, const cras::BufferedChunk& chunk,
                            crbase::Time sent_at);
  void SendUnicast(Member& member, std::uint64_t seq, const cras::BufferedChunk& chunk,
                   crbase::Time sent_at, bool retransmit);
  // Re-detects server-side state changes (demotions, closed sessions).
  void RefreshMember(Member& member);
  void RetransmitUnicast(Member& member, const LossReportEntry& entry);
  void RepairTick();
  void PruneStore();
  Member* FindMember(SessionId session);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  crnet::Link* link_;
  Options options_;
  GroupId group_ = kNoGroup;
  const crmedia::ChunkIndex* index_ = nullptr;
  std::uint64_t cursor_ = 0;  // next chunk the feed multicasts
  bool started_ = false;
  std::vector<Member> members_;
  std::size_t live_walks_ = 0;
  crsim::WaitList walks_done_;  // notified as each member walk finishes
  crsim::EventId repair_timer_ = crsim::kInvalidEventId;
  crbase::Time last_repair_ = 0;
  bool repair_closed_ = false;  // drained: no further repair passes
  std::map<std::uint64_t, StoredChunk> store_;
  std::set<std::uint64_t> skipped_;  // never sent; repair requests ignored
  GroupSenderStats stats_;
  std::unique_ptr<ObsState> obs_;
};

}  // namespace crmcast

#endif  // SRC_MCAST_GROUP_TRANSPORT_H_
