#include "src/net/nps.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/base/logging.h"

namespace crnet {

// ---------------------------------------------------------------------------
// Paced walk
// ---------------------------------------------------------------------------

crsim::Task PaceChunk(cras::CrasServer& server, cras::SessionId session,
                      const crmedia::Chunk& chunk, crbase::Duration lookahead,
                      PacedChunk* out) {
  const crbase::Time ship_at = chunk.timestamp - lookahead;
  for (;;) {
    if (!server.HasSession(session)) {
      out->outcome = PaceOutcome::kGone;
      co_return;
    }
    // Ship each chunk `lookahead` before its logical due time. The clock may
    // still be negative during the stream's initial delay, or stopped.
    if (server.LogicalNow(session) < ship_at) {
      co_await server.WaitSession(session, server.RealTimeOf(session, ship_at));
      continue;
    }
    // Data normally precedes the clock by a full interval, so this succeeds
    // at once; a chunk that never shows up by its playout deadline is
    // skipped (the receiver's buffer would discard it anyway).
    out->chunk = server.Get(session, chunk.timestamp);
    if (out->chunk.has_value()) {
      out->outcome = PaceOutcome::kShip;
      co_return;
    }
    const crbase::Time deadline = ChunkDeadline(chunk);
    if (server.LogicalNow(session) > deadline) {
      out->outcome = PaceOutcome::kSkip;
      co_return;
    }
    co_await server.WaitSession(session, server.RealTimeOf(session, deadline + 1));
  }
}

// ---------------------------------------------------------------------------
// NpsReceiver
// ---------------------------------------------------------------------------

NpsReceiver::NpsReceiver(crrt::Kernel& kernel, const Options& options)
    : kernel_(&kernel),
      options_(options),
      buffer_(options.buffer_bytes, options.jitter_allowance),
      clock_(kernel.engine()) {
  CRAS_CHECK(options_.nak_delay > 0);
  CRAS_CHECK(options_.nak_backoff_cap >= options_.nak_delay);
}

NpsReceiver::NpsReceiver(crrt::Kernel& kernel) : NpsReceiver(kernel, Options{}) {}

NpsReceiver::~NpsReceiver() {
  for (auto& [seq, entry] : pending_) {
    if (entry.timer_armed) {
      kernel_->engine().Cancel(entry.timer);
    }
  }
  kernel_->engine().Cancel(tail_timer_);
}

void NpsReceiver::ConnectReverse(Link& reverse, NpsSender& sender) {
  reverse_ = &reverse;
  sender_ = &sender;
  sender.EnableRetransmit();
}

void NpsReceiver::set_frame_trace(crobs::SessionTrace* trace) {
  ftrace_ = trace;
  // The local playout buffer resolves frames that complete reassembly but
  // age out unconsumed.
  buffer_.SetFrameTrace(trace, crobs::FrameStage::kCompleted);
}

void NpsReceiver::OnFragment(const NpsFragment& fragment) {
  ++stats_.fragments_received;
  if (fragment.retransmit) {
    ++stats_.retransmitted_fragments;
  }
  if (done_.count(fragment.seq) != 0) {
    ++stats_.duplicate_fragments;  // late retransmit of a finished chunk
    return;
  }
  // A jump past the expected next sequence number reveals wholly lost
  // chunks: open a placeholder (metadata unknown) for each skipped one so
  // its NAK timer starts running.
  if (fragment.seq >= expected_next_) {
    for (std::uint64_t seq = expected_next_; seq < fragment.seq; ++seq) {
      EnsureEntry(seq);
    }
    expected_next_ = fragment.seq + 1;
  }
  Reassembly& entry = EnsureEntry(fragment.seq);
  if (entry.frag_count == 0) {
    // First fragment to arrive for this sequence number: adopt the chunk
    // metadata every fragment carries.
    CRAS_CHECK(fragment.frag_count > 0);
    entry.chunk = fragment.chunk;
    entry.frag_count = fragment.frag_count;
    entry.have.assign(static_cast<std::size_t>(fragment.frag_count), false);
    entry.sent_at = fragment.sent_at;
  }
  CRAS_CHECK(fragment.frag_index >= 0 && fragment.frag_index < entry.frag_count);
  if (fragment.frag_index < entry.max_frag_seen) {
    ++stats_.out_of_order_fragments;
  }
  entry.max_frag_seen = std::max(entry.max_frag_seen, fragment.frag_index);
  if (entry.have[static_cast<std::size_t>(fragment.frag_index)]) {
    ++stats_.duplicate_fragments;
    return;
  }
  entry.have[static_cast<std::size_t>(fragment.frag_index)] = true;
  ++entry.received;
  if (!fragment.retransmit) {
    entry.last_fresh_at = kernel_->Now();
  }
  if (static_cast<std::int64_t>(fragment.seq) > last_meta_seq_) {
    last_meta_seq_ = static_cast<std::int64_t>(fragment.seq);
    last_meta_chunk_ = fragment.chunk.chunk_index;
  }
  if (entry.received == entry.frag_count) {
    Complete(fragment.seq, entry);
  }
  MaybeArmTail();
}

crbase::Duration NpsReceiver::NakWindow() const {
  crbase::Duration last_nak = options_.nak_delay;
  crbase::Duration backoff = options_.nak_delay;
  for (int k = 1; k < options_.max_naks; ++k) {
    backoff = std::min(backoff * 2, options_.nak_backoff_cap);
    last_nak += backoff;
  }
  if (reverse_ == nullptr) {
    return last_nak;
  }
  const LinkImpairments& path = reverse_->impairments();
  return last_nak + reverse_->options().propagation_delay + path.jitter + path.reorder_delay;
}

crbase::Time NpsReceiver::TailSweepAt() const {
  return index_->at(index_->count() - 1).timestamp - options_.jitter_allowance;
}

void NpsReceiver::MaybeArmTail() {
  if (tail_timer_ != crsim::kInvalidEventId || tail_swept_ || index_ == nullptr ||
      index_->empty() || reverse_ == nullptr || !clock_.running()) {
    return;
  }
  tail_timer_ = kernel_->engine().ScheduleAt(clock_.RealTimeOf(TailSweepAt()),
                                             [this] { OnTailTimer(); });
}

void NpsReceiver::OnTailTimer() {
  tail_timer_ = crsim::kInvalidEventId;
  if (clock_.Now() < TailSweepAt()) {
    // The clock was stopped, seeked or re-rated since the timer was armed:
    // re-target it (or, stopped, wait for the next arrival to re-arm).
    MaybeArmTail();
    return;
  }
  tail_swept_ = true;
  // Sequence numbers follow chunk order, so the chunks after the last one
  // seen are the sequence numbers after it. A chunk the sender skipped
  // consumed no sequence number; its placeholder is NAKed in vain and
  // abandoned on the placeholder TTL, and it maps to no frame.
  const auto final_chunk = static_cast<std::int64_t>(index_->count()) - 1;
  for (std::int64_t k = 1; k <= final_chunk - last_meta_chunk_; ++k) {
    const auto seq = static_cast<std::uint64_t>(last_meta_seq_ + k);
    if (done_.count(seq) == 0) {
      EnsureEntry(seq);
    }
    expected_next_ = std::max(expected_next_, seq + 1);
  }
}

NpsReceiver::Reassembly& NpsReceiver::EnsureEntry(std::uint64_t seq) {
  auto [it, inserted] = pending_.try_emplace(seq);
  Reassembly& entry = it->second;
  if (inserted) {
    entry.created_at = kernel_->Now();
    entry.backoff = options_.nak_delay;
    ArmTimer(seq, options_.nak_delay);
  }
  return entry;
}

void NpsReceiver::ArmTimer(std::uint64_t seq, crbase::Duration delay) {
  Reassembly& entry = pending_.at(seq);
  entry.timer = kernel_->engine().ScheduleAfter(delay, [this, seq] { OnTimer(seq); });
  entry.timer_armed = true;
}

void NpsReceiver::OnTimer(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return;
  }
  Reassembly& entry = it->second;
  entry.timer_armed = false;
  const bool has_metadata = entry.frag_count > 0;
  bool give_up = false;
  if (reverse_ == nullptr || sender_ == nullptr) {
    // No repair path: the reordering grace has passed, the chunk will
    // never complete.
    give_up = true;
  } else if (entry.naks >= options_.max_naks) {
    give_up = true;
  } else if (has_metadata && clock_.Now() > ChunkDeadline(entry.chunk)) {
    // Playout has moved past this chunk; repaired data would be discarded
    // on arrival.
    give_up = true;
  } else if (!has_metadata &&
             kernel_->Now() - entry.created_at > options_.placeholder_ttl) {
    give_up = true;
  }
  if (give_up) {
    Abandon(seq, entry);
    return;
  }
  NpsNak nak;
  nak.seq = seq;
  nak.playout = clock_.Now();
  if (has_metadata) {
    for (int i = 0; i < entry.frag_count; ++i) {
      if (!entry.have[static_cast<std::size_t>(i)]) {
        nak.missing.push_back(i);
      }
    }
  }
  ++entry.naks;
  ++stats_.naks_sent;
  if (obs_ != nullptr) {
    obs_->naks_sent->Add();
  }
  NpsSender* sender = sender_;
  reverse_->Send(options_.nak_bytes, [sender, nak] { sender->OnNak(nak); });
  entry.backoff = std::min(entry.backoff * 2, options_.nak_backoff_cap);
  ArmTimer(seq, entry.backoff);
}

void NpsReceiver::Complete(std::uint64_t seq, Reassembly& entry) {
  if (entry.timer_armed) {
    kernel_->engine().Cancel(entry.timer);
  }
  const crbase::Time now = kernel_->Now();
  cras::BufferedChunk local = entry.chunk;
  local.filled_at = now;
  if (ftrace_ != nullptr) {
    // Wire ends at the last fresh fragment; everything after that is
    // repair. A chunk none of whose fresh fragments survived has zero wire
    // time — the wire delivered nothing — so its entire sent-to-completed
    // latency is repair: anchor kArrived at the original send time (carried
    // in every fragment, equal to the sender's kSent stamp).
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
    obs_->reassembly_ms->Record(crobs::ToMillis(now - entry.sent_at));
  }
  done_.insert(seq);
  pending_.erase(seq);
}

void NpsReceiver::Abandon(std::uint64_t seq, Reassembly& entry) {
  if (entry.timer_armed) {
    kernel_->engine().Cancel(entry.timer);
  }
  ++stats_.chunks_abandoned;
  if (obs_ != nullptr) {
    obs_->chunks_abandoned->Add();
    obs_->hub->flight().Record(crobs::FlightEventKind::kNakGiveUp,
                               static_cast<std::int64_t>(seq), entry.naks, 0, "receiver");
  }
  if (ftrace_ != nullptr) {
    // Frame identity: a fragment-carrying entry knows its chunk index; a
    // wholly-lost placeholder maps its sequence number through the sender's
    // durable send log (present whenever a reverse link is connected).
    const std::int64_t chunk_index =
        entry.frag_count > 0 ? entry.chunk.chunk_index
                             : (sender_ != nullptr ? sender_->ChunkIndexOf(seq) : -1);
    if (chunk_index >= 0) {
      if (entry.last_fresh_at >= 0) {
        ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.last_fresh_at);
      } else if (entry.frag_count > 0) {
        // Only retransmits arrived: zero wire time, the wait was all repair.
        ftrace_->StampAt(chunk_index, crobs::FrameStage::kArrived, entry.sent_at);
      }
      ftrace_->Miss(chunk_index, entry.received > 0 ? crobs::FrameStage::kCompleted
                                                    : crobs::FrameStage::kArrived);
    }
  }
  done_.insert(seq);
  pending_.erase(seq);
}

std::optional<cras::BufferedChunk> NpsReceiver::Get(crbase::Time t) {
  buffer_.DiscardObsolete(clock_.Now());
  std::optional<cras::BufferedChunk> chunk = buffer_.Get(t);
  if (chunk.has_value() && ftrace_ != nullptr) {
    ftrace_->Deliver(chunk->chunk_index);
  }
  return chunk;
}

void NpsReceiver::AttachObs(crobs::Hub* hub, const std::string& name) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"stream", name}};
  obs->chunks_received = metrics.GetCounter("nps.rx_chunks", labels);
  obs->naks_sent = metrics.GetCounter("nps.rx_naks_sent", labels);
  obs->chunks_abandoned = metrics.GetCounter("nps.rx_chunks_abandoned", labels);
  obs->reassembly_ms =
      metrics.GetHistogram("nps.reassembly_ms", labels, crobs::LatencyBucketsMs());
  obs_ = std::move(obs);
}

// ---------------------------------------------------------------------------
// NpsSender
// ---------------------------------------------------------------------------

NpsSender::NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                     NpsReceiver& receiver, const Options& options)
    : kernel_(&kernel), server_(&server), link_(&link), receiver_(&receiver), options_(options) {}

NpsSender::NpsSender(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                     NpsReceiver& receiver)
    : NpsSender(kernel, server, link, receiver, Options{}) {}

crsim::Task NpsSender::Start(cras::SessionId session, const crmedia::ChunkIndex* index) {
  session_ = session;
  // Frame identity rides the session: cache the server's trace ring once and
  // hand it to the receiver so both ends stamp the same records.
  ftrace_ = server_->FrameTrace(session);
  receiver_->set_frame_trace(ftrace_);
  receiver_->set_index(index);
  return kernel_->Spawn("nps-sender", options_.priority,
                        [this, session, index](crrt::ThreadContext& ctx) {
                          return SenderThread(ctx, session, index);
                        });
}

std::int64_t NpsSender::ChunkIndexOf(std::uint64_t seq) const {
  return seq < sent_chunk_index_.size()
             ? sent_chunk_index_[static_cast<std::size_t>(seq)]
             : -1;
}

void NpsSender::SendFragment(const NpsFragment& fragment) {
  NpsReceiver* receiver = receiver_;
  link_->Send(fragment.bytes, [receiver, fragment] { receiver->OnFragment(fragment); });
}

void NpsSender::OnNak(const NpsNak& nak) {
  ++stats_.naks_received;
  if (obs_ != nullptr) {
    obs_->naks_received->Add();
  }
  receiver_playout_ = nak.playout;
  auto it = store_.find(nak.seq);
  if (it == store_.end()) {
    ++stats_.naks_unknown;  // never sent, or pruned past the receiver's reach
    PruneStore();
    return;
  }
  const StoredChunk& stored = it->second;
  // Deadline-aware give-up: once the receiver's playout has passed the
  // chunk's deadline, a retransmission could only arrive to be discarded —
  // drop it here.
  if (nak.playout > stored.deadline) {
    ++stats_.retransmits_abandoned;
    if (obs_ != nullptr) {
      obs_->retransmits_abandoned->Add();
      obs_->hub->flight().Record(crobs::FlightEventKind::kNakGiveUp,
                                 static_cast<std::int64_t>(nak.seq), 0, 0, "sender");
    }
    store_.erase(it);
    PruneStore();
    return;
  }
  const int frag_count = static_cast<int>(stored.frag_bytes.size());
  auto resend = [&](int index) {
    NpsFragment fragment;
    fragment.seq = nak.seq;
    fragment.frag_index = index;
    fragment.frag_count = frag_count;
    fragment.bytes = stored.frag_bytes[static_cast<std::size_t>(index)];
    fragment.chunk = stored.chunk;
    fragment.sent_at = stored.sent_at;
    fragment.retransmit = true;
    SendFragment(fragment);
    ++stats_.fragments_retransmitted;
    if (obs_ != nullptr) {
      obs_->fragments_retransmitted->Add();
    }
  };
  if (nak.missing.empty()) {
    for (int i = 0; i < frag_count; ++i) {
      resend(i);
    }
  } else {
    for (int index : nak.missing) {
      if (index >= 0 && index < frag_count) {
        resend(index);
      }
    }
  }
  PruneStore();
}

void NpsSender::PruneStore() {
  // A chunk's first sign at the receiver is, at the latest, the arrival of
  // the chunk sent after it; the forward path is budgeted within the
  // lookahead (that is what the lookahead hides). Stall-proof: a late
  // successor extends the retention.
  const crbase::Time reach_closed =
      kernel_->Now() - options_.lookahead - receiver_->NakWindow();
  while (!store_.empty()) {
    const auto first = store_.begin();
    const auto next = std::next(first);
    const bool played = first->second.deadline < receiver_playout_;
    const bool out_of_reach = next != store_.end() && next->second.sent_at < reach_closed;
    if (!played && !out_of_reach) {
      break;
    }
    store_.erase(first);
  }
}

crsim::Task NpsSender::SenderThread(crrt::ThreadContext& ctx, cras::SessionId session,
                                    const crmedia::ChunkIndex* index) {
  for (std::size_t cursor = 0; cursor < index->count(); ++cursor) {
    PacedChunk paced;
    co_await PaceChunk(*server_, session, index->at(cursor), options_.lookahead, &paced);
    while (paced.outcome == PaceOutcome::kGone) {
      // Closed under us. A reaped session may be resumed under its id
      // (Reconnect), which signals this wait; otherwise the thread stays
      // parked, costing nothing, until the server is torn down.
      co_await server_->WaitSession(session, crbase::kNever);
      co_await PaceChunk(*server_, session, index->at(cursor), options_.lookahead, &paced);
    }
    if (retransmit_enabled_) {
      PruneStore();
    }
    if (paced.outcome == PaceOutcome::kSkip) {
      ++stats_.chunks_skipped;
      if (ftrace_ != nullptr) {
        // Never reached the wire: the last stage it provably missed is the
        // send itself.
        ftrace_->Miss(static_cast<std::int64_t>(cursor), crobs::FrameStage::kSent);
      }
      continue;
    }
    const std::optional<cras::BufferedChunk>& buffered = paced.chunk;
    co_await ctx.Compute(options_.cpu_per_chunk);

    // Fragment onto the wire. Each fragment carries the chunk's sequence
    // number, its own index, and the full metadata, so the receiver
    // reassembles explicitly — loss and reordering are the receiver's to
    // detect, not ours to signal.
    const crbase::Time sent_at = ctx.Now();
    const std::uint64_t seq = next_seq_++;
    sent_chunk_index_.push_back(buffered->chunk_index);
    std::vector<std::int64_t> frag_bytes;
    for (std::int64_t remaining = buffered->size; remaining > 0;) {
      const std::int64_t fragment = std::min(remaining, options_.max_packet_bytes);
      frag_bytes.push_back(fragment);
      remaining -= fragment;
    }
    const int frag_count = static_cast<int>(frag_bytes.size());
    if (retransmit_enabled_) {
      StoredChunk stored;
      stored.chunk = *buffered;
      stored.sent_at = sent_at;
      stored.frag_bytes = frag_bytes;
      stored.deadline = ChunkDeadline(*buffered);
      store_.emplace(seq, std::move(stored));
    }
    for (int i = 0; i < frag_count; ++i) {
      NpsFragment fragment;
      fragment.seq = seq;
      fragment.frag_index = i;
      fragment.frag_count = frag_count;
      fragment.bytes = frag_bytes[static_cast<std::size_t>(i)];
      fragment.chunk = *buffered;
      fragment.sent_at = sent_at;
      SendFragment(fragment);
      ++stats_.packets_sent;
      stats_.bytes_sent += fragment.bytes;
    }
    ++stats_.chunks_sent;
    if (ftrace_ != nullptr) {
      ftrace_->StampAt(buffered->chunk_index, crobs::FrameStage::kSent, sent_at);
    }
  }
}

void NpsSender::AttachObs(crobs::Hub* hub, const std::string& name) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"stream", name}};
  obs->naks_received = metrics.GetCounter("nps.tx_naks_received", labels);
  obs->fragments_retransmitted = metrics.GetCounter("nps.tx_retransmits", labels);
  obs->retransmits_abandoned = metrics.GetCounter("nps.tx_retransmits_abandoned", labels);
  obs_ = std::move(obs);
}

// ---------------------------------------------------------------------------
// LeaseClient
// ---------------------------------------------------------------------------

LeaseClient::LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                         cras::SessionId session, const Options& options)
    : kernel_(&kernel), server_(&server), link_(&link), session_(session), options_(options) {
  CRAS_CHECK(options_.period > 0);
}

LeaseClient::LeaseClient(crrt::Kernel& kernel, cras::CrasServer& server, Link& link,
                         cras::SessionId session)
    : LeaseClient(kernel, server, link, session, Options{}) {}

crsim::Task LeaseClient::Start() {
  return kernel_->Spawn("lease-client", options_.priority,
                        [this](crrt::ThreadContext& ctx) { return HeartbeatThread(ctx); });
}

crsim::Task LeaseClient::HeartbeatThread(crrt::ThreadContext& ctx) {
  while (!stopped_) {
    // The heartbeat rides the (possibly impaired) link: a lost packet is a
    // missed renewal, exactly as a real lossy network would miss one.
    cras::CrasServer* server = server_;
    const cras::SessionId id = session_;
    link_->Send(options_.heartbeat_bytes, [server, id] { server->RenewLease(id); });
    ++heartbeats_sent_;
    co_await ctx.Sleep(options_.period);
  }
}

}  // namespace crnet
