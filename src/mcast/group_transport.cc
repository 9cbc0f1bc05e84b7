#include "src/mcast/group_transport.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/mcast/xor_codec.h"

namespace crmcast {

// ---------------------------------------------------------------------------
// GroupReceiver
// ---------------------------------------------------------------------------

GroupReceiver::GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index,
                             const Options& options)
    : kernel_(&kernel),
      index_(index),
      options_(options),
      buffer_(options.buffer_bytes, options.jitter_allowance),
      clock_(kernel.engine()),
      wake_(kernel.engine()) {
  CRAS_CHECK(index_ != nullptr);
  CRAS_CHECK(options_.report_interval > 0);
}

GroupReceiver::GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index)
    : GroupReceiver(kernel, index, Options{}) {}

void GroupReceiver::set_merge_chunk(std::int64_t merge_chunk) {
  CRAS_CHECK(merge_chunk >= 0);
  merge_chunk_ = merge_chunk;
  mcast_expected_ = static_cast<std::uint64_t>(merge_chunk);
}

void GroupReceiver::ConnectReverse(crnet::Link& reverse, GroupSender& sender,
                                   SessionId member) {
  reverse_ = &reverse;
  sender_ = &sender;
  member_ = member;
}

void GroupReceiver::set_frame_trace(crobs::SessionTrace* trace) {
  ftrace_ = trace;
  // Chunks that complete reassembly but age out unconsumed were last seen
  // completing; the buffer resolves them there.
  buffer_.SetFrameTrace(trace, crobs::FrameStage::kCompleted);
}

crsim::Task GroupReceiver::Start() {
  return kernel_->Spawn("mcast-report", options_.priority,
                        [this](crrt::ThreadContext& ctx) { return ReportThread(ctx); });
}

crbase::Time GroupReceiver::DeadlineOf(std::uint64_t seq) const {
  if (seq >= index_->count()) {
    return 0;
  }
  return crnet::ChunkDeadline(index_->at(static_cast<std::size_t>(seq)));
}

GroupReceiver::Reassembly& GroupReceiver::EnsureEntry(std::uint64_t seq) {
  auto [it, inserted] = pending_.try_emplace(seq);
  if (inserted) {
    it->second.created_at = kernel_->Now();
  }
  return it->second;
}

void GroupReceiver::OnFragment(const crnet::NpsFragment& fragment) {
  ++stats_.fragments_received;
  if (fragment.retransmit) {
    ++stats_.retransmitted_fragments;
  }
  if (done_.count(fragment.seq) != 0) {
    ++stats_.duplicate_fragments;
    return;
  }
  // Gap detection runs against two independent cursors: the multicast
  // stream (sequence numbers from the merge point up) and the unicast
  // bridge (from 0 up to the merge point). Retransmitted/repaired
  // fragments never move a cursor — they fill holes, they don't reveal new
  // ones.
  if (!fragment.retransmit) {
    if (fragment.multicast) {
      const std::uint64_t base =
          std::max(mcast_expected_, static_cast<std::uint64_t>(merge_chunk_));
      for (std::uint64_t seq = base; seq < fragment.seq; ++seq) {
        if (done_.count(seq) == 0) {
          EnsureEntry(seq);
        }
      }
      if (fragment.seq >= mcast_expected_) {
        mcast_expected_ = fragment.seq + 1;
      }
    } else {
      for (std::uint64_t seq = unicast_expected_; seq < fragment.seq; ++seq) {
        if (done_.count(seq) == 0) {
          EnsureEntry(seq);
        }
      }
      if (fragment.seq >= unicast_expected_) {
        unicast_expected_ = fragment.seq + 1;
      }
    }
  }
  Reassembly& entry = EnsureEntry(fragment.seq);
  if (entry.frag_count == 0) {
    CRAS_CHECK(fragment.frag_count > 0);
    entry.chunk = fragment.chunk;
    entry.frag_count = fragment.frag_count;
    entry.have.assign(static_cast<std::size_t>(fragment.frag_count), false);
    entry.sent_at = fragment.sent_at;
  }
  CRAS_CHECK(fragment.frag_index >= 0 && fragment.frag_index < entry.frag_count);
  if (entry.have[static_cast<std::size_t>(fragment.frag_index)]) {
    ++stats_.duplicate_fragments;
    return;
  }
  entry.have[static_cast<std::size_t>(fragment.frag_index)] = true;
  ++entry.received;
  if (!fragment.retransmit) {
    entry.last_fresh_at = kernel_->Now();
  }
  if (entry.received == entry.frag_count) {
    Complete(fragment.seq, entry);
  }
  // Wake an idle report thread if something is now incomplete (back onto
  // the report cadence), or if it parked on a stopped clock that has since
  // started (its due sweep needs a real time to sleep to).
  if (idle_ && (!pending_.empty() || (idle_on_stopped_clock_ && clock_.running()))) {
    idle_ = false;
    wake_.Notify();
  }
}

bool GroupReceiver::Holds(std::uint64_t seq, int frag_index) const {
  if (abandoned_.count(seq) != 0) {
    return false;
  }
  if (done_.count(seq) != 0) {
    return true;  // completed: every fragment is on hand
  }
  auto it = pending_.find(seq);
  if (it == pending_.end() || it->second.frag_count == 0) {
    return false;
  }
  const Reassembly& entry = it->second;
  if (frag_index < 0 || frag_index >= entry.frag_count) {
    return false;
  }
  return entry.have[static_cast<std::size_t>(frag_index)];
}

void GroupReceiver::OnRepair(const RepairPacket& packet) {
  // XOR decode: the parity recovers a window member iff exactly one is
  // absent here. Count the absences, remember the last one.
  const RepairRef* missing = nullptr;
  int absent = 0;
  bool blocked = false;  // an absent member was abandoned: data gone for good
  for (const RepairRef& ref : packet.window) {
    if (!Holds(ref.seq, ref.frag_index)) {
      ++absent;
      missing = &ref;
      if (abandoned_.count(ref.seq) != 0) {
        blocked = true;
      }
    }
  }
  if (absent == 0) {
    ++stats_.repair_useless;
    return;
  }
  if (absent > 1 || blocked) {
    ++stats_.repair_decode_failed;
    if (obs_ != nullptr) {
      obs_->repair_decode_failed->Add();
      obs_->hub->flight().Record(crobs::FlightEventKind::kRepairDecodeFailed,
                                 static_cast<std::int64_t>(missing->seq), absent, 0,
                                 "receiver");
    }
    return;
  }
  // One absence — but only spend the decode if we actually want the data.
  const bool wanted = missing->seq >= static_cast<std::uint64_t>(merge_chunk_) &&
                      done_.count(missing->seq) == 0;
  if (!wanted) {
    ++stats_.repair_useless;
    return;
  }
  ++stats_.repair_decodes;
  if (obs_ != nullptr) {
    obs_->repair_decodes->Add();
  }
  crnet::NpsFragment recovered;
  recovered.seq = missing->seq;
  recovered.frag_index = missing->frag_index;
  recovered.frag_count = missing->frag_count;
  recovered.bytes = missing->bytes;
  recovered.chunk = missing->chunk;
  recovered.sent_at = missing->sent_at;
  recovered.retransmit = true;
  recovered.multicast = true;
  OnFragment(recovered);
}

void GroupReceiver::Complete(std::uint64_t seq, Reassembly& entry) {
  const crbase::Time now = kernel_->Now();
  cras::BufferedChunk local = entry.chunk;
  local.filled_at = now;
  if (ftrace_ != nullptr) {
    // Wire ends at the last fresh fragment; time after that is coded
    // repair. A loss-free chunk completes on arrival with zero repair; a
    // chunk none of whose fresh fragments survived has zero wire time and
    // charges the full sent-to-completed wait to repair.
    ftrace_->StampAt(local.chunk_index, crobs::FrameStage::kArrived,
                     entry.last_fresh_at >= 0 ? entry.last_fresh_at : entry.sent_at);
    ftrace_->StampAt(local.chunk_index, crobs::FrameStage::kCompleted, now);
  }
  buffer_.Put(local, clock_.Now());
  ++stats_.chunks_received;
  stats_.bytes_received += entry.chunk.size;
  stats_.max_network_latency = std::max(stats_.max_network_latency, now - entry.sent_at);
  if (obs_ != nullptr) {
    obs_->chunks_received->Add();
  }
  done_.insert(seq);
  pending_.erase(seq);
}

void GroupReceiver::Abandon(std::uint64_t seq, Reassembly& entry) {
  ++stats_.chunks_abandoned;
  if (obs_ != nullptr) {
    obs_->chunks_abandoned->Add();
    obs_->hub->flight().Record(crobs::FlightEventKind::kNakGiveUp,
                               static_cast<std::int64_t>(seq), 0, 0, "mcast-receiver");
  }
  if (ftrace_ != nullptr) {
    // Multicast sequence numbers are chunk indices, so even a metadata-less
    // placeholder resolves against the right frame.
    const std::int64_t chunk_index =
        entry.frag_count > 0 ? entry.chunk.chunk_index : static_cast<std::int64_t>(seq);
    if (entry.last_fresh_at >= 0) {
      ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.last_fresh_at);
    } else if (entry.frag_count > 0) {
      // Only repair traffic arrived: zero wire time, the wait was all repair.
      ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.sent_at);
    }
    ftrace_->Miss(chunk_index, entry.received > 0 ? crobs::FrameStage::kCompleted
                                                  : crobs::FrameStage::kArrived);
  }
  done_.insert(seq);
  abandoned_.insert(seq);
  pending_.erase(seq);
}

crsim::Task GroupReceiver::ReportThread(crrt::ThreadContext& ctx) {
  (void)ctx;
  while (!stopped_) {
    Sweep();
    idle_ = pending_.empty();
    idle_on_stopped_clock_ = idle_ && !clock_.running();
    co_await wake_.Wait(NextWake());
  }
}

void GroupReceiver::Sweep() {
  // Give up on anything playout has moved past. The chunk index supplies
  // the deadline, so even a metadata-less placeholder dies on schedule
  // instead of lingering on a TTL.
  const crbase::Time logical = clock_.Now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::uint64_t seq = it->first;
    if (logical > DeadlineOf(seq)) {
      Reassembly& entry = it->second;
      ++it;  // Abandon erases; advance first
      Abandon(seq, entry);
    } else {
      ++it;
    }
  }
  if (reverse_ == nullptr || sender_ == nullptr) {
    return;
  }
  // Due sweep (on a running clock only: before playout starts the clock
  // reads a meaningless zero): arrival-driven gap detection cannot reveal a loss no later
  // packet follows — the tail of the unicast bridge, or the last chunks of
  // the movie. Walk the index once (monotone cursor) and placeholder any
  // chunk whose playout time is imminent and still absent, so it gets
  // reported and, failing repair, swept at its deadline. The jitter
  // allowance of slack keeps an on-schedule stream from generating phantom
  // reports for chunks simply not sent yet. Chunks already done need no
  // check, whatever their time.
  while (clock_.running() && due_swept_ < index_->count()) {
    if (done_.count(due_swept_) == 0) {
      if (index_->at(static_cast<std::size_t>(due_swept_)).timestamp >
          logical + options_.jitter_allowance) {
        break;
      }
      if (pending_.count(due_swept_) == 0) {
        EnsureEntry(due_swept_);
      }
    }
    ++due_swept_;
  }
  // Bitmap report: every surviving gap older than the reordering grace,
  // in one packet.
  LossReport report;
  report.member = member_;
  const crbase::Time now = kernel_->Now();
  for (const auto& [seq, entry] : pending_) {
    if (now - entry.created_at <= options_.reorder_grace) {
      continue;
    }
    LossReportEntry loss;
    loss.seq = seq;
    for (int i = 0; i < entry.frag_count; ++i) {
      if (!entry.have[static_cast<std::size_t>(i)]) {
        loss.missing.push_back(i);
      }
    }
    report.entries.push_back(std::move(loss));
  }
  if (report.entries.empty()) {
    return;
  }
  ++stats_.reports_sent;
  if (obs_ != nullptr) {
    obs_->reports_sent->Add();
  }
  GroupSender* sender = sender_;
  reverse_->Send(options_.report_bytes,
                 [sender, report = std::move(report)] { sender->OnLossReport(report); });
}

crbase::Time GroupReceiver::NextWake() const {
  if (!pending_.empty()) {
    // Something is missing: report (and sweep) on the cadence.
    return kernel_->Now() + options_.report_interval;
  }
  if (reverse_ == nullptr || sender_ == nullptr || due_swept_ >= index_->count() ||
      !clock_.running()) {
    // Only a fragment (or Stop) can give work; the first fragment after a
    // stopped clock starts wakes us.
    return crbase::kNever;
  }
  // The next chunk's due sweep.
  return clock_.RealTimeOf(index_->at(static_cast<std::size_t>(due_swept_)).timestamp -
                           options_.jitter_allowance);
}

std::optional<cras::BufferedChunk> GroupReceiver::Get(crbase::Time t) {
  buffer_.DiscardObsolete(clock_.Now());
  std::optional<cras::BufferedChunk> chunk = buffer_.Get(t);
  if (chunk.has_value() && ftrace_ != nullptr) {
    ftrace_->Deliver(chunk->chunk_index);
  }
  return chunk;
}

void GroupReceiver::AttachObs(crobs::Hub* hub, const std::string& name) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"stream", name}};
  obs->chunks_received = metrics.GetCounter("mcast.rx_chunks", labels);
  obs->reports_sent = metrics.GetCounter("mcast.rx_reports_sent", labels);
  obs->chunks_abandoned = metrics.GetCounter("mcast.rx_chunks_abandoned", labels);
  obs->repair_decodes = metrics.GetCounter("mcast.rx_repair_decodes", labels);
  obs->repair_decode_failed = metrics.GetCounter("mcast.rx_repair_decode_failed", labels);
  obs_ = std::move(obs);
}

// ---------------------------------------------------------------------------
// GroupSender
// ---------------------------------------------------------------------------

GroupSender::GroupSender(crrt::Kernel& kernel, cras::CrasServer& server,
                         crnet::Link& forward, const Options& options)
    : kernel_(&kernel),
      server_(&server),
      link_(&forward),
      options_(options),
      walks_done_(kernel.engine()) {
  CRAS_CHECK(options_.repair_window_chunks > 0);
  CRAS_CHECK(options_.max_window_entries > 0);
}

GroupSender::GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward)
    : GroupSender(kernel, server, forward, Options{}) {}

GroupSender::~GroupSender() { kernel_->engine().Cancel(repair_timer_); }

void GroupSender::AddMember(SessionId session, GroupReceiver& receiver) {
  Member member;
  member.session = session;
  member.receiver = &receiver;
  const crmcast::GroupManager* mgr = server_->mcast_groups();
  CRAS_CHECK(mgr != nullptr);
  member.merge_chunk = mgr->MergeChunkOf(session);
  receiver.set_merge_chunk(member.merge_chunk);
  // Frame identity rides the member session: both ends of this member's
  // delivery stamp the same trace ring.
  member.trace = server_->FrameTrace(session);
  receiver.set_frame_trace(member.trace);
  members_.push_back(std::move(member));
  if (started_) {
    SpawnWalk(members_.size() - 1);
  }
}

void GroupSender::SpawnWalk(std::size_t mi) {
  ++live_walks_;
  kernel_->Spawn("mcast-member", options_.priority, [this, mi](crrt::ThreadContext& ctx) {
           return MemberWalk(ctx, mi);
         }).Detach();
}

GroupSender::Member* GroupSender::FindMember(SessionId session) {
  for (Member& member : members_) {
    if (member.session == session) {
      return &member;
    }
  }
  return nullptr;
}

crsim::Task GroupSender::Start(GroupId group, const crmedia::ChunkIndex* index) {
  group_ = group;
  index_ = index;
  started_ = true;
  last_repair_ = kernel_->Now();
  crsim::Task feed = kernel_->Spawn(
      "mcast-sender", options_.priority,
      [this](crrt::ThreadContext& ctx) { return SenderThread(ctx); });
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    SpawnWalk(mi);
    if (!members_[mi].missing.empty()) {
      ArmRepair();
    }
  }
  return feed;
}

std::size_t GroupSender::ShipMulticast(std::uint64_t seq, const cras::BufferedChunk& chunk,
                                       crbase::Time sent_at) {
  std::vector<std::int64_t> frag_bytes;
  for (std::int64_t remaining = chunk.size; remaining > 0;) {
    const std::int64_t fragment = std::min(remaining, options_.max_packet_bytes);
    frag_bytes.push_back(fragment);
    remaining -= fragment;
  }
  const int frag_count = static_cast<int>(frag_bytes.size());

  std::vector<Member*> targets;
  for (Member& member : members_) {
    if (!member.dead && !member.unicast &&
        static_cast<std::uint64_t>(member.merge_chunk) <= seq) {
      targets.push_back(&member);
    }
  }
  StoredChunk stored;
  stored.chunk = chunk;
  stored.sent_at = sent_at;
  stored.frag_bytes = frag_bytes;
  stored.deadline = crnet::ChunkDeadline(chunk);
  store_.emplace(seq, std::move(stored));
  // The repair window: the last repair_window_chunks multicast chunks.
  // Deadline pruning waits for the next repair pass, the only reader that
  // cares.
  while (store_.size() > static_cast<std::size_t>(options_.repair_window_chunks)) {
    store_.erase(store_.begin());
  }

  for (int i = 0; i < frag_count; ++i) {
    crnet::NpsFragment fragment;
    fragment.seq = seq;
    fragment.frag_index = i;
    fragment.frag_count = frag_count;
    fragment.bytes = frag_bytes[static_cast<std::size_t>(i)];
    fragment.chunk = chunk;
    fragment.sent_at = sent_at;
    fragment.multicast = true;
    std::vector<std::function<void()>> delivers;
    delivers.reserve(targets.size());
    for (Member* target : targets) {
      GroupReceiver* receiver = target->receiver;
      delivers.push_back([receiver, fragment] { receiver->OnFragment(fragment); });
    }
    if (!delivers.empty()) {
      link_->Multicast(fragment.bytes, std::move(delivers));
    }
    ++stats_.packets_multicast;
    stats_.bytes_multicast += fragment.bytes;
  }
  for (Member* target : targets) {
    if (target->trace != nullptr) {
      // Each member's frame enters the wire here; the fan-out itself is the
      // member's first traced stage (no per-member disk work exists).
      target->trace->SetPath(chunk.chunk_index, crobs::FramePath::kMcastMember);
      target->trace->StampAt(chunk.chunk_index, crobs::FrameStage::kSent, sent_at);
    }
  }
  ++stats_.chunks_multicast;
  if (obs_ != nullptr) {
    obs_->chunks_multicast->Add();
  }
  // One disk read served every multicast target; each target beyond the
  // first is a read a unicast server would have issued.
  if (targets.size() > 1) {
    const std::int64_t saved = static_cast<std::int64_t>(targets.size()) - 1;
    stats_.deduped_chunk_reads += saved;
    if (obs_ != nullptr) {
      obs_->deduped_chunk_reads->Add(saved);
    }
  }
  return targets.size();
}

void GroupSender::SendUnicast(Member& member, std::uint64_t seq,
                              const cras::BufferedChunk& chunk, crbase::Time sent_at,
                              bool retransmit) {
  std::vector<std::int64_t> frag_bytes;
  for (std::int64_t remaining = chunk.size; remaining > 0;) {
    const std::int64_t fragment = std::min(remaining, options_.max_packet_bytes);
    frag_bytes.push_back(fragment);
    remaining -= fragment;
  }
  const int frag_count = static_cast<int>(frag_bytes.size());
  GroupReceiver* receiver = member.receiver;
  for (int i = 0; i < frag_count; ++i) {
    crnet::NpsFragment fragment;
    fragment.seq = seq;
    fragment.frag_index = i;
    fragment.frag_count = frag_count;
    fragment.bytes = frag_bytes[static_cast<std::size_t>(i)];
    fragment.chunk = chunk;
    fragment.sent_at = sent_at;
    fragment.retransmit = retransmit;
    link_->Send(fragment.bytes, [receiver, fragment] { receiver->OnFragment(fragment); });
  }
  if (member.trace != nullptr && !retransmit) {
    // Bridge/unicast chunks come from the member's own CRAS session, which
    // already set the path (cache or disk); only the send is new here.
    member.trace->StampAt(chunk.chunk_index, crobs::FrameStage::kSent, sent_at);
  }
}

void GroupSender::RefreshMember(Member& member) {
  if (member.dead) {
    return;
  }
  if (!server_->HasSession(member.session)) {
    member.dead = true;
    return;
  }
  if (member.unicast) {
    return;
  }
  const crmcast::GroupManager* mgr = server_->mcast_groups();
  if (mgr != nullptr && mgr->GroupOf(member.session) == kNoGroup) {
    // The server demoted this member behind our back (bridge cache miss,
    // seek, shed settle). Pick up the unicast walk from its play point.
    member.unicast = true;
    std::int64_t at = index_->FindByTime(server_->LogicalNow(member.session));
    if (at < 0) {
      at = 0;
    }
    member.unicast_cursor = std::max(member.unicast_cursor, at);
    member.missing.clear();
  }
}

void GroupSender::RetransmitUnicast(Member& member, const LossReportEntry& entry) {
  if (entry.seq >= index_->count()) {
    return;
  }
  const crmedia::Chunk& chunk = index_->at(static_cast<std::size_t>(entry.seq));
  if (server_->LogicalNow(member.session) >
      crnet::ChunkDeadline(chunk) + options_.playout_slack) {
    ++stats_.retransmits_abandoned;
    return;
  }
  // Re-fetch from the member's own session buffer — bridge chunks are
  // cache-served there and stay resident within the jitter allowance.
  std::optional<cras::BufferedChunk> buffered =
      server_->Get(member.session, chunk.timestamp);
  if (!buffered.has_value()) {
    auto it = store_.find(entry.seq);
    if (it == store_.end()) {
      ++stats_.retransmits_abandoned;
      return;
    }
    buffered = it->second.chunk;
  }
  SendUnicast(member, entry.seq, *buffered, kernel_->Now(), /*retransmit=*/true);
  ++stats_.fragments_retransmitted;
}

void GroupSender::OnLossReport(const LossReport& report) {
  ++stats_.reports_received;
  Member* member = FindMember(report.member);
  if (member == nullptr || member->dead) {
    return;
  }
  RefreshMember(*member);
  if (member->dead) {
    return;
  }
  for (const LossReportEntry& entry : report.entries) {
    if (skipped_.count(entry.seq) != 0) {
      continue;  // never sent: the server-side skip is already accounted
    }
    if (member->unicast || entry.seq < static_cast<std::uint64_t>(member->merge_chunk)) {
      RetransmitUnicast(*member, entry);
    } else {
      member->missing[entry.seq] = entry.missing;
      ArmRepair();
    }
  }
}

void GroupSender::ArmRepair() {
  if (!started_ || repair_timer_ != crsim::kInvalidEventId || repair_closed_) {
    return;  // before Start, losses wait for the first pass
  }
  // Passes stay on a repair_interval grid from the last one, so reports
  // from many receivers aggregate into one pass rather than each opening
  // its own.
  crbase::Time at = last_repair_ + options_.repair_interval;
  if (at < kernel_->Now()) {
    at += (kernel_->Now() - at + options_.repair_interval - 1) / options_.repair_interval *
          options_.repair_interval;
  }
  repair_timer_ = kernel_->engine().ScheduleAt(at, [this] {
        repair_timer_ = crsim::kInvalidEventId;
        last_repair_ = kernel_->Now();
        RepairTick();
      });
}

void GroupSender::PruneStore() {
  // Nothing whose playout deadline every remaining member has passed
  // (ShipMulticast bounds the store to the repair window).
  crbase::Time min_logical = 0;
  bool any = false;
  for (const Member& member : members_) {
    if (member.dead || member.unicast) {
      continue;
    }
    const crbase::Time logical = server_->LogicalNow(member.session);
    min_logical = any ? std::min(min_logical, logical) : logical;
    any = true;
  }
  if (!any) {
    return;
  }
  while (!store_.empty() &&
         store_.begin()->second.deadline + options_.playout_slack < min_logical) {
    store_.erase(store_.begin());
  }
}

void GroupSender::RepairTick() {
  // Expand each member's reported multicast losses into concrete
  // (seq, frag) needs; a loss that already left the repair window demotes
  // the member to unicast if its own clock says the chunk were still
  // repairable — it fell behind the group, not behind its deadline.
  PruneStore();
  struct Need {
    std::uint64_t seq = 0;
    int frag_index = 0;
    std::vector<std::size_t> needers;  // indices into members_
  };
  std::map<std::pair<std::uint64_t, int>, std::vector<std::size_t>> needs;
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    Member& member = members_[mi];
    if (member.dead || member.unicast) {
      member.missing.clear();
      continue;
    }
    for (const auto& [seq, frags] : member.missing) {
      auto it = store_.find(seq);
      if (it == store_.end()) {
        if (seq < index_->count()) {
          const crmedia::Chunk& chunk = index_->at(static_cast<std::size_t>(seq));
          if (server_->LogicalNow(member.session) <=
              crnet::ChunkDeadline(chunk) + options_.playout_slack) {
            if (server_->DemoteGroupMember(member.session, "behind_window")) {
              member.unicast = true;
              member.unicast_cursor =
                  std::max(member.unicast_cursor, static_cast<std::int64_t>(seq));
              ++stats_.members_demoted;
            } else {
              member.dead = !server_->HasSession(member.session);
            }
            break;  // member left the multicast path; drop its needs
          }
        }
        continue;  // past deadline everywhere: nothing to repair
      }
      const StoredChunk& stored = it->second;
      const int frag_count = static_cast<int>(stored.frag_bytes.size());
      if (frags.empty()) {
        for (int i = 0; i < frag_count; ++i) {
          needs[{seq, i}].push_back(mi);
        }
      } else {
        for (int frag : frags) {
          if (frag >= 0 && frag < frag_count) {
            needs[{seq, frag}].push_back(mi);
          }
        }
      }
    }
    member.missing.clear();
  }
  if (needs.empty()) {
    return;
  }
  // A member that flipped to unicast mid-expansion may have stale needs
  // recorded; filter them out.
  std::vector<Need> need_list;
  for (auto& [key, needers] : needs) {
    Need need;
    need.seq = key.first;
    need.frag_index = key.second;
    for (std::size_t mi : needers) {
      if (!members_[mi].dead && !members_[mi].unicast) {
        need.needers.push_back(mi);
      }
    }
    if (!need.needers.empty()) {
      need_list.push_back(std::move(need));
    }
  }

  // Greedy window packing: a fragment joins the open window unless some
  // receiver would then be missing two window members (its own need plus
  // this one) — each receiver must hold all-but-one to decode.
  std::vector<GroupReceiver*> targets;
  for (Member& member : members_) {
    if (!member.dead && !member.unicast) {
      targets.push_back(member.receiver);
    }
  }
  if (targets.empty()) {
    return;
  }
  std::vector<const Need*> window;
  std::set<std::size_t> window_needers;
  auto flush = [&] {
    if (window.empty()) {
      return;
    }
    RepairPacket packet;
    std::vector<std::int64_t> sizes;
    for (const Need* need : window) {
      const StoredChunk& stored = store_.at(need->seq);
      RepairRef ref;
      ref.seq = need->seq;
      ref.frag_index = need->frag_index;
      ref.frag_count = static_cast<int>(stored.frag_bytes.size());
      ref.bytes = stored.frag_bytes[static_cast<std::size_t>(need->frag_index)];
      ref.chunk = stored.chunk;
      ref.sent_at = stored.sent_at;
      sizes.push_back(ref.bytes);
      packet.window.push_back(std::move(ref));
    }
    packet.bytes = XorParityBytes(sizes) + options_.repair_packet_overhead;
    std::vector<std::function<void()>> delivers;
    delivers.reserve(targets.size());
    for (GroupReceiver* receiver : targets) {
      delivers.push_back([receiver, packet] { receiver->OnRepair(packet); });
    }
    link_->Multicast(packet.bytes, std::move(delivers));
    ++stats_.repair_packets;
    stats_.repair_bytes += packet.bytes;
    if (obs_ != nullptr) {
      obs_->repair_packets->Add();
      obs_->repair_bytes->Add(packet.bytes);
      obs_->hub->flight().Record(crobs::FlightEventKind::kRepairSent, group_,
                                 static_cast<std::int64_t>(packet.window.size()),
                                 packet.bytes, "");
    }
    window.clear();
    window_needers.clear();
  };
  for (const Need& need : need_list) {
    bool conflict = window.size() >= options_.max_window_entries;
    if (!conflict) {
      for (std::size_t mi : need.needers) {
        if (window_needers.count(mi) != 0) {
          conflict = true;
          break;
        }
      }
    }
    if (conflict) {
      flush();
    }
    window.push_back(&need);
    window_needers.insert(need.needers.begin(), need.needers.end());
  }
  flush();
}

crsim::Task GroupSender::SenderThread(crrt::ThreadContext& ctx) {
  const GroupManager* mgr = server_->mcast_groups();
  CRAS_CHECK(mgr != nullptr);
  const std::uint64_t count = index_->count();
  // Multicast everything from the feed's shared buffer, each chunk at its
  // exact ship time on the feed clock.
  while (mgr->Alive(group_) && cursor_ < count) {
    const SessionId feed = mgr->FeedOf(group_);
    crnet::PacedChunk paced;
    co_await crnet::PaceChunk(*server_, feed, index_->at(static_cast<std::size_t>(cursor_)),
                              options_.lookahead, &paced);
    if (paced.outcome == crnet::PaceOutcome::kGone) {
      break;  // the feed closed: the group dissolved with it
    }
    if (paced.outcome == crnet::PaceOutcome::kSkip) {
      skipped_.insert(cursor_);
      ++stats_.chunks_skipped;
      if (crobs::SessionTrace* feed_trace = server_->FrameTrace(feed)) {
        feed_trace->Miss(static_cast<std::int64_t>(cursor_), crobs::FrameStage::kSent);
      }
      // Members never see this chunk on the feed; their own deadline
      // sweeps resolve the per-member misses.
      ++cursor_;
      server_->mcast_groups()->NoteShipCursor(group_, static_cast<std::int64_t>(cursor_));
      continue;
    }
    co_await ctx.Compute(options_.cpu_per_chunk);
    ShipMulticast(cursor_, *paced.chunk, ctx.Now());
    if (crobs::SessionTrace* feed_trace = server_->FrameTrace(feed)) {
      // The feed session's own frame ends its life at the fan-out: it is
      // "delivered" to the group, not played out locally.
      feed_trace->SetPath(paced.chunk->chunk_index, crobs::FramePath::kMcastFeed);
      feed_trace->ResolveDelivered(paced.chunk->chunk_index);
    }
    ++cursor_;
    server_->mcast_groups()->NoteShipCursor(group_, static_cast<std::int64_t>(cursor_));
  }
  // A member's reveal of a tail loss happens on its own playout clock,
  // which trails the feed by its join offset — a fixed post-ship linger
  // cannot cover a late joiner. Each member walk ends once its clock is
  // past the final chunk's deadline; wait them all out, then drain so
  // in-flight reports can still be repaired.
  for (;;) {
    while (live_walks_ > 0) {
      co_await walks_done_.Wait(crbase::kNever);
    }
    co_await ctx.Sleep(options_.lookahead + options_.drain);
    if (live_walks_ == 0) {
      break;  // no member joined during the drain
    }
  }
  repair_closed_ = true;
  kernel_->engine().Cancel(repair_timer_);
  repair_timer_ = crsim::kInvalidEventId;
}

crsim::Task GroupSender::MemberWalk(crrt::ThreadContext& ctx, std::size_t mi) {
  const auto count = static_cast<std::int64_t>(index_->count());
  const crbase::Time last_deadline =
      count > 0 ? crnet::ChunkDeadline(index_->at(static_cast<std::size_t>(count - 1))) : 0;
  // Index access throughout: AddMember may grow members_ across suspension
  // points.
  for (;;) {
    RefreshMember(members_[mi]);
    const Member& member = members_[mi];
    if (member.dead) {
      break;
    }
    const bool unicast = member.unicast;
    const std::int64_t limit = unicast ? count : member.merge_chunk;
    const std::int64_t cur = unicast ? member.unicast_cursor : member.patch_cursor;
    const SessionId session = member.session;
    if (cur >= limit) {
      // Nothing (more) to ship on this member's own session. It rides the
      // feed until its clock passes the final chunk's deadline — unless the
      // server demotes or closes it first, which signals the session.
      const crbase::Time done_at =
          server_->RealTimeOf(session, last_deadline + options_.playout_slack + 1);
      if (done_at <= ctx.Now()) {
        break;
      }
      co_await server_->WaitSession(session, done_at);
      continue;
    }
    crnet::PacedChunk paced;
    co_await crnet::PaceChunk(*server_, session, index_->at(static_cast<std::size_t>(cur)),
                              options_.lookahead, &paced);
    RefreshMember(members_[mi]);
    if (members_[mi].dead || members_[mi].unicast != unicast) {
      continue;  // closed or demoted while we waited: re-plan
    }
    if (paced.outcome == crnet::PaceOutcome::kSkip) {
      ++stats_.chunks_skipped;
      if (members_[mi].trace != nullptr) {
        members_[mi].trace->Miss(cur, crobs::FrameStage::kSent);
      }
      (unicast ? members_[mi].unicast_cursor : members_[mi].patch_cursor) = cur + 1;
      continue;
    }
    co_await ctx.Compute(options_.cpu_per_chunk);
    Member& fresh = members_[mi];
    SendUnicast(fresh, static_cast<std::uint64_t>(cur), *paced.chunk, ctx.Now(),
                /*retransmit=*/false);
    (unicast ? fresh.unicast_cursor : fresh.patch_cursor) = cur + 1;
    if (unicast) {
      ++stats_.unicast_chunks;
    } else {
      ++stats_.patch_chunks;
    }
  }
  --live_walks_;
  walks_done_.Notify();
}

void GroupSender::AttachObs(crobs::Hub* hub, const std::string& name) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"group", name}};
  obs->chunks_multicast = metrics.GetCounter("mcast.tx_chunks", labels);
  obs->repair_packets = metrics.GetCounter("mcast.tx_repair_packets", labels);
  obs->repair_bytes = metrics.GetCounter("mcast.tx_repair_bytes", labels);
  obs->deduped_chunk_reads = metrics.GetCounter("mcast.deduped_chunk_reads", labels);
  obs_ = std::move(obs);
}

}  // namespace crmcast
