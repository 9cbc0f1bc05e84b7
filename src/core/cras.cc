#include "src/core/cras.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/ledger.h"

namespace cras {

namespace {

// Scales a duration by the session's rate factor.
crbase::Duration ScaleDuration(crbase::Duration d, double factor) {
  return static_cast<crbase::Duration>(static_cast<double>(d) * factor);
}

}  // namespace

CrasServer::CrasServer(crrt::Kernel& kernel, crdisk::DiskDriver& driver, crufs::Ufs& fs)
    : CrasServer(kernel, driver, fs, Options{}) {}

CrasServer::CrasServer(crrt::Kernel& kernel, crdisk::DiskDriver& driver, crufs::Ufs& fs,
                       const Options& options)
    : kernel_(&kernel),
      owned_volume_(std::make_unique<crvol::StripedVolume>(driver)),
      volume_(owned_volume_.get()),
      fs_(&fs),
      options_(options),
      admission_(options.disk_params, options.interval, options.max_read_bytes),
      volume_admission_(options.disk_params, volume_->disks(), options.interval,
                        options.max_read_bytes, volume_->stripe_unit_bytes()),
      control_port_(kernel.engine()),
      io_done_port_(kernel.engine()),
      deadline_port_(kernel.engine()),
      signal_port_(kernel.engine()),
      fault_port_(kernel.engine()) {
  // The server wires its code and static state (~250 KB in the paper);
  // buffers are wired as sessions open.
  kernel_->WireMemory("cras-server", 250 * crbase::kKiB);
  volume_admission_.set_parity(volume_->parity());
  volume_->SetMemberStateListener([this](int disk, crvol::MemberState state) {
    fault_port_.Send(MemberChange{disk, state});
  });
  if (options_.cache.enabled) {
    cache_ = std::make_unique<crcache::StreamCache>(options_.cache);
    // The cache's pools are wired server memory like everything else.
    kernel_->WireMemory("cras-cache",
                        options_.cache.interval_pool_bytes + options_.cache.prefix_pool_bytes);
  }
  if (options_.mcast.enabled) {
    group_mgr_ = std::make_unique<crmcast::GroupManager>(options_.mcast);
  }
  AttachObs(options_.obs);
}

CrasServer::CrasServer(crrt::Kernel& kernel, crvol::Volume& volume, crufs::Ufs& fs)
    : CrasServer(kernel, volume, fs, Options{}) {}

CrasServer::CrasServer(crrt::Kernel& kernel, crvol::Volume& volume, crufs::Ufs& fs,
                       const Options& options)
    : kernel_(&kernel),
      volume_(&volume),
      fs_(&fs),
      options_(options),
      admission_(options.disk_params, options.interval, options.max_read_bytes),
      volume_admission_(options.disk_params, volume.disks(), options.interval,
                        options.max_read_bytes, volume.stripe_unit_bytes()),
      control_port_(kernel.engine()),
      io_done_port_(kernel.engine()),
      deadline_port_(kernel.engine()),
      signal_port_(kernel.engine()),
      fault_port_(kernel.engine()) {
  kernel_->WireMemory("cras-server", 250 * crbase::kKiB);
  volume_admission_.set_parity(volume_->parity());
  volume_->SetMemberStateListener([this](int disk, crvol::MemberState state) {
    fault_port_.Send(MemberChange{disk, state});
  });
  if (options_.cache.enabled) {
    cache_ = std::make_unique<crcache::StreamCache>(options_.cache);
    kernel_->WireMemory("cras-cache",
                        options_.cache.interval_pool_bytes + options_.cache.prefix_pool_bytes);
  }
  if (options_.mcast.enabled) {
    group_mgr_ = std::make_unique<crmcast::GroupManager>(options_.mcast);
  }
  AttachObs(options_.obs);
}

void CrasServer::AttachObs(crobs::Hub* hub) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  // Instrument the layers below: member disks/drivers, the admission model,
  // and the stream cache record through the same hub.
  volume_->AttachObs(hub, "disk");
  volume_admission_.AttachObs(hub);
  if (cache_ != nullptr) {
    cache_->AttachObs(hub);
  }
  if (group_mgr_ != nullptr) {
    group_mgr_->AttachObs(hub);
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  if (hub->frames().enabled()) {
    obs->frames = &hub->frames();
  }
  crobs::Tracer& trace = hub->trace();
  obs->track = trace.InternTrack("cras");
  obs->n_interval = trace.InternName("interval");
  obs->cat_batch = trace.InternName("batch");
  obs->n_prefetch = trace.InternName("prefetch");
  obs->n_slack = trace.InternName("deadline_slack_ms");
  obs->n_miss = trace.InternName("deadline_miss");
  obs->n_member = trace.InternName("member_change");
  obs->n_shed = trace.InternName("stream_shed");
  obs->n_reap = trace.InternName("session_reap");
  crobs::Registry& metrics = hub->metrics();
  obs->sessions_opened = metrics.GetCounter("cras.sessions_opened");
  obs->sessions_rejected = metrics.GetCounter("cras.sessions_rejected");
  obs->deadline_misses = metrics.GetCounter("cras.deadline_misses");
  obs->bytes_read = metrics.GetCounter("cras.bytes_read");
  obs->bytes_written = metrics.GetCounter("cras.bytes_written");
  obs->read_requests = metrics.GetCounter("cras.read_requests");
  obs->write_requests = metrics.GetCounter("cras.write_requests");
  obs->streams_shed = metrics.GetCounter("cras.streams_shed");
  obs->sessions_reaped = metrics.GetCounter("cras.sessions_reaped");
  obs->sessions_resumed = metrics.GetCounter("cras.sessions_resumed");
  obs->bytes_from_cache = metrics.GetCounter("cras.bytes_from_cache");
  obs->streams_kept = metrics.GetGauge("cras.streams_kept");
  obs->lease_age_ms = metrics.GetHistogram("cras.lease_age_ms", {}, crobs::LatencyBucketsMs());
  obs->deadline_slack_ms =
      metrics.GetHistogram("cras.deadline_slack_ms", {}, crobs::LatencyBucketsMs());
  obs->degraded_slack_ms =
      metrics.GetHistogram("cras.degraded_slack_ms", {}, crobs::LatencyBucketsMs());
  obs->ledger = std::make_unique<crobs::BudgetLedger>(&metrics);
  hub->SetLedger(obs->ledger.get());
  obs_ = std::move(obs);
}

CrasServer::~CrasServer() {
  // The volume may outlive this server; its listener must not.
  volume_->SetMemberStateListener(nullptr);
  // Likewise the hub: detach the dying ledger before dumps can touch it.
  if (obs_ != nullptr && obs_->hub->ledger() == obs_->ledger.get()) {
    obs_->hub->SetLedger(nullptr);
  }
  // Control messages still queued hold their senders' parked chains;
  // draining them lets each message's ParkedHandle reclaim its client. The
  // thread Tasks (declared after the ports) have already been destroyed.
  ControlMsg msg;
  while (control_port_.TryReceive(&msg)) {
  }
}

void CrasServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  threads_.push_back(kernel_->Spawn("cras-request-manager", options_.priority,
                                    [this](crrt::ThreadContext& ctx) {
                                      return RequestManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-request-scheduler", options_.priority + 2,
                                    [this](crrt::ThreadContext& ctx) {
                                      return RequestSchedulerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-io-done-manager", options_.priority + 3,
                                    [this](crrt::ThreadContext& ctx) {
                                      return IoDoneManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-deadline-manager", options_.priority + 4,
                                    [this](crrt::ThreadContext& ctx) {
                                      return DeadlineManagerThread(ctx);
                                    }));
  threads_.push_back(kernel_->Spawn("cras-signal-handler", options_.priority + 1,
                                    [this](crrt::ThreadContext& ctx) {
                                      return SignalHandlerThread(ctx);
                                    }));
  // Above every sibling: when a member dies, re-admission must beat the
  // scheduler to the next interval boundary so no infeasible I/O is issued.
  threads_.push_back(kernel_->Spawn("cras-degradation-controller", options_.priority + 5,
                                    [this](crrt::ThreadContext& ctx) {
                                      return DegradationControllerThread(ctx);
                                    }));
  if (options_.lease_period > 0) {
    threads_.push_back(kernel_->Spawn("cras-lease-reaper", options_.priority,
                                      [this](crrt::ThreadContext& ctx) {
                                        return LeaseReaperThread(ctx);
                                      }));
  }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

crsim::Task CrasServer::RequestManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    ControlMsg msg = co_await control_port_.Receive();
    if (msg.kind == ControlMsg::kShutdown) {
      break;
    }
    co_await ctx.Compute(options_.cpu_per_control_op);
    crbase::Result<SessionId> result = kInvalidSession;
    switch (msg.kind) {
      case ControlMsg::kOpen:
        result = HandleOpen(std::move(msg.params));
        break;
      case ControlMsg::kClose: {
        crbase::Status st = HandleClose(msg.id);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        if (cache_fallback_pending_) {
          // The close orphaned a cached follower: settle it now — re-admit
          // on the bandwidth the close just freed (plus the fallback
          // reserve), or shed.
          ShedUntilAdmissible();
        }
        break;
      }
      case ControlMsg::kStart: {
        crbase::Status st = HandleStart(msg.id, msg.initial_delay);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        break;
      }
      case ControlMsg::kStop: {
        crbase::Status st = HandleStop(msg.id);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        break;
      }
      case ControlMsg::kSeek: {
        crbase::Status st = HandleSeek(msg.id, msg.seek_to);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        break;
      }
      case ControlMsg::kSetRate: {
        crbase::Status st = HandleSetRate(msg.id, msg.params.rate_factor);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        break;
      }
      case ControlMsg::kReconnect: {
        crbase::Status st = HandleReconnect(msg.id);
        result = st.ok() ? crbase::Result<SessionId>(msg.id) : crbase::Result<SessionId>(st);
        break;
      }
      case ControlMsg::kShutdown:
        break;
    }
    if (msg.done) {
      msg.Complete(std::move(result));
    }
  }
}

crsim::Task CrasServer::RequestSchedulerThread(crrt::ThreadContext& ctx) {
  crrt::PeriodicTimer timer(kernel_->engine(), options_.interval, &deadline_port_);
  while (!shutdown_) {
    const crrt::PeriodTick tick = co_await timer.NextPeriod();
    if (shutdown_) {
      break;
    }
    if (obs_ != nullptr) {
      obs_->hub->trace().Begin(obs_->track, obs_->n_interval);
    }
    co_await ctx.Compute(options_.cpu_per_interval);

    // Phase 1: publish everything retrieved during the previous interval
    // into the time-driven shared buffers.
    const std::int64_t published = PublishCompletedBatches();
    if (published > 0) {
      co_await ctx.Compute(options_.cpu_per_publish * published);
    }

    // Phase 2: issue all reads (and staged writes) the next interval needs.
    const std::size_t slot = interval_records_.size();
    IntervalRecord record;
    record.index = tick.index;
    record.scheduler_lateness = tick.lateness;
    // The binding member disk's estimate; on a one-disk volume exactly the
    // paper's single-disk figure. With the cache on, cache-served streams
    // are charged the fallback reserve instead of per-stream disk time.
    const crvol::VolumeAdmissionModel::Estimate estimate =
        UseCachedAdmission() ? volume_admission_.EvaluateCached(CurrentCachedDemands())
                             : volume_admission_.Evaluate(CurrentDemands());
    record.estimated_io = estimate.WorstIoTime();
    interval_records_.push_back(record);

    if (obs_ != nullptr) {
      crobs::BudgetLedger& ledger = *obs_->ledger;
      // Slot-2's I/O deadline was the previous boundary; its completions are
      // all attributed by now, so its audit row is final.
      if (slot >= 2) {
        ledger.CloseInterval(static_cast<std::int64_t>(slot) - 2);
      }
      ledger.BeginInterval(static_cast<std::int64_t>(slot), kernel_->Now());
      for (int d = 0; d < static_cast<int>(estimate.per_disk.size()); ++d) {
        const crvol::VolumeAdmissionModel::DiskEstimate& disk =
            estimate.per_disk[static_cast<std::size_t>(d)];
        if (disk.requests <= 0) {
          continue;
        }
        crobs::BudgetTerms predicted;
        predicted.command_ms = crobs::ToMillis(disk.terms.command);
        predicted.seek_ms = crobs::ToMillis(disk.terms.seek);
        predicted.rotation_ms = crobs::ToMillis(disk.terms.rotation);
        predicted.transfer_ms = crobs::ToMillis(disk.transfer);
        predicted.other_ms = crobs::ToMillis(disk.terms.other);
        ledger.SetPrediction(static_cast<std::int64_t>(slot), d, predicted, disk.requests);
      }
    }

    const crbase::Time deadline = timer.BoundaryOf(tick.index + 1);
    const std::int64_t requests = IssueIntervalIo(slot, deadline);
    if (requests > 0) {
      co_await ctx.Compute(options_.cpu_per_request * requests);
    }
    if (obs_ != nullptr) {
      obs_->hub->trace().End(obs_->track, obs_->n_interval);
    }
  }
}

crsim::Task CrasServer::IoDoneManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    IoDoneMsg msg = co_await io_done_port_.Receive();
    if (msg.batch_id == 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(options_.cpu_per_completion);
    auto it = inflight_.find(msg.batch_id);
    if (it == inflight_.end()) {
      continue;  // batch of a session closed mid-flight
    }
    Batch& batch = it->second;
    CRAS_CHECK(batch.outstanding > 0);
    --batch.outstanding;
    // The disk does not announce when it starts servicing, but the
    // completion carries the full phase breakdown, so service start is the
    // completion instant minus its terms. The earliest one over the batch
    // splits the frame trace's disk-queue / disk-service attribution.
    const crbase::Time service_start = kernel_->Now() - msg.completion.service_time();
    if (batch.first_service_start < 0 || service_start < batch.first_service_start) {
      batch.first_service_start = service_start;
    }
    if (batch.interval_slot < interval_records_.size()) {
      interval_records_[batch.interval_slot].actual_io += msg.completion.service_time();
    }
    if (obs_ != nullptr && msg.disk >= 0) {
      // Fold the request's measured phase breakdown into its interval's
      // audit row. No measured "other" term: the simulated array carries no
      // non-real-time traffic, so B_other/D is pure slack.
      crobs::BudgetTerms actual;
      actual.command_ms = crobs::ToMillis(msg.completion.command_time);
      actual.seek_ms = crobs::ToMillis(msg.completion.seek_time);
      actual.rotation_ms = crobs::ToMillis(msg.completion.rotation_time);
      actual.transfer_ms = crobs::ToMillis(msg.completion.transfer_time);
      obs_->ledger->AddActual(static_cast<std::int64_t>(batch.interval_slot), msg.disk,
                              actual);
    }
    if (batch.kind == SessionKind::kRead) {
      stats_.bytes_read += msg.completion.bytes();
      if (obs_ != nullptr) {
        obs_->bytes_read->Add(msg.completion.bytes());
      }
    } else {
      stats_.bytes_written += msg.completion.bytes();
      if (obs_ != nullptr) {
        obs_->bytes_written->Add(msg.completion.bytes());
      }
    }
    if (batch.outstanding == 0) {
      if (obs_ != nullptr) {
        // Slack to the interval boundary: positive = landed early, negative
        // = this batch is about to signal a deadline miss.
        const double slack_ms = crobs::ToMillis(batch.deadline - kernel_->Now());
        obs_->deadline_slack_ms->Record(slack_ms);
        if (volume_->degraded()) {
          obs_->degraded_slack_ms->Record(slack_ms);
        }
        crobs::Tracer& trace = obs_->hub->trace();
        if (trace.enabled()) {
          trace.AsyncEnd(obs_->track, obs_->cat_batch, obs_->n_prefetch, batch.id);
          trace.CounterSample(obs_->track, obs_->n_slack, slack_ms);
        }
      }
      if (batch.kind == SessionKind::kRead) {
        if (Session* session = FindSession(batch.session);
            session != nullptr && session->ftrace != nullptr) {
          const crbase::Time start = batch.first_service_start >= 0
                                         ? batch.first_service_start
                                         : kernel_->Now();
          for (std::int64_t chunk = batch.first_chunk; chunk < batch.last_chunk;
               ++chunk) {
            session->ftrace->StampAt(chunk, crobs::FrameStage::kDiskStart, start);
            session->ftrace->Stamp(chunk, crobs::FrameStage::kDiskDone);
          }
        }
      }
      if (kernel_->Now() > batch.deadline) {
        if (batch.interval_slot < interval_records_.size()) {
          interval_records_[batch.interval_slot].completed_by_deadline = false;
        }
        if (obs_ != nullptr) {
          obs_->hub->flight().Record(crobs::FlightEventKind::kDeadlineMiss, batch.session,
                                     static_cast<std::int64_t>(batch.interval_slot),
                                     crobs::ToMillis(kernel_->Now() - batch.deadline));
        }
        // The interval's I/O did not land by its boundary: this is the
        // deadline the deadline-manager thread watches over.
        deadline_port_.Send(crrt::DeadlineMiss{
            static_cast<std::int64_t>(batch.interval_slot), batch.deadline,
            kernel_->Now() - batch.deadline});
      }
      completed_batches_.push_back(batch.id);
    }
  }
}

crsim::Task CrasServer::DeadlineManagerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    crrt::DeadlineMiss miss = co_await deadline_port_.Receive();
    if (miss.period_index < 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(options_.cpu_per_completion);
    // The paper's recovery action: notify a warning and continue.
    ++stats_.deadline_misses;
    if (obs_ != nullptr) {
      obs_->deadline_misses->Add();
      obs_->hub->trace().Instant(obs_->track, obs_->n_miss, crobs::ToMillis(miss.overrun));
    }
    CRAS_LOG(kWarning) << "CRAS deadline miss: interval " << miss.period_index << " overran by "
                       << crbase::FormatDuration(miss.overrun);
  }
}

crsim::Task CrasServer::SignalHandlerThread(crrt::ThreadContext&) {
  (void)co_await signal_port_.Receive();
  shutdown_ = true;
  // Wake every blocked sibling with its sentinel.
  control_port_.Send(ControlMsg{ControlMsg::kShutdown, kInvalidSession, OpenParams{}, 0, 0,
                                nullptr, {}});
  io_done_port_.Send(IoDoneMsg{0, -1, {}});
  deadline_port_.Send(crrt::DeadlineMiss{-1, 0, 0});
  fault_port_.Send(MemberChange{-1, crvol::MemberState::kHealthy});
}

crsim::Task CrasServer::DegradationControllerThread(crrt::ThreadContext& ctx) {
  for (;;) {
    MemberChange change = co_await fault_port_.Receive();
    if (change.disk < 0) {
      break;  // shutdown sentinel
    }
    co_await ctx.Compute(options_.cpu_per_control_op);
    ApplyMemberChange(change);
  }
}

crsim::Task CrasServer::LeaseReaperThread(crrt::ThreadContext& ctx) {
  // A quarter-period tick bounds reap latency at grace + 1/4 periods after
  // the last renewal (1.75 periods at the default grace of 1.5) — inside
  // the "within two lease periods" contract with room to spare.
  const crbase::Duration tick = std::max<crbase::Duration>(options_.lease_period / 4, 1);
  while (!shutdown_) {
    co_await ctx.Sleep(tick);
    if (shutdown_) {
      break;
    }
    co_await ctx.Compute(options_.cpu_per_control_op);
    ReapExpired();
  }
}

void CrasServer::SignalShutdown() { signal_port_.Send(1); }

// ---------------------------------------------------------------------------
// Request-manager operations
// ---------------------------------------------------------------------------

crbase::Result<SessionId> CrasServer::HandleOpen(OpenParams params, bool internal_feed) {
  const auto reject = [this](crbase::Status st) {
    ++stats_.sessions_rejected;
    if (obs_ != nullptr) {
      obs_->sessions_rejected->Add();
    }
    return st;
  };
  if (params.index.empty()) {
    return reject(crbase::InvalidArgumentError("empty chunk index"));
  }
  // The logical clock keeps rates in millionths; anything that rounds to
  // zero there is no positive rate.
  if (params.rate_factor * LogicalClock::kRateUnit < 0.5) {
    return reject(crbase::InvalidArgumentError("rate factor must be positive"));
  }
  const crufs::Inode& inode = fs_->inode(params.inode);
  if (inode.size_bytes < params.index.total_bytes()) {
    return reject(crbase::InvalidArgumentError("chunk index extends past the file"));
  }

  StreamDemand demand;
  demand.rate_bytes_per_sec =
      (params.declared_rate > 0 ? params.declared_rate
                                : params.index.WorstRate(options_.interval)) *
      params.rate_factor;
  demand.chunk_bytes = params.index.max_chunk_bytes();

  // Delivery-group placement: a grouped read joins (or founds) the title's
  // group before its own admission, so it can be charged as a memory-only
  // member. Founding a group opens the server-owned feed session first —
  // the group's one disk stream, admitted at rate * (1 + repair_overhead)
  // so the XOR repair channel rides an audited reservation.
  crmcast::JoinPlan group_plan;
  bool founded_group = false;
  if (group_mgr_ != nullptr && !internal_feed && params.grouped &&
      params.kind == SessionKind::kRead && params.rate_factor == 1.0) {
    if (cache_ != nullptr) {
      cache_->NoteOpen(params.inode, params.index, kernel_->Now());
    }
    const std::int64_t prefix_end =
        cache_ != nullptr ? cache_->prefix_end_chunk(params.inode) : 0;
    group_plan = group_mgr_->PlanJoin(params.inode, prefix_end);
    if (!group_plan.joined) {
      OpenParams feed_params;
      feed_params.inode = params.inode;
      feed_params.index = params.index;
      feed_params.declared_rate =
          demand.rate_bytes_per_sec * (1.0 + options_.mcast.repair_overhead);
      feed_params.kind = SessionKind::kRead;
      crbase::Result<SessionId> feed =
          HandleOpen(std::move(feed_params), /*internal_feed=*/true);
      if (feed.ok()) {
        group_plan.joined = true;
        group_plan.feed = *feed;
        group_plan.group = group_mgr_->CreateGroup(params.inode, *feed);
        group_plan.merge_chunk = 0;
        founded_group = true;
        if (Session* f = FindSession(*feed)) {
          f->feed = true;
        }
      }
      // On feed rejection the open proceeds as a plain unicast session.
    }
  }
  const bool grouped = group_plan.joined;
  // Founding failed half-open state is unwound on member rejection below.
  const auto unwind_group = [&] {
    if (grouped) {
      // The member never registered; drop the placeholder and close the
      // feed we just opened if it is now the group's only occupant.
      if (founded_group) {
        group_mgr_->DissolveByFeed(group_plan.feed);
        (void)HandleClose(group_plan.feed);
      }
    }
  };

  // Plan cache service first: a stream trailing a predecessor inside a
  // pinned prefix is admitted at memory cost (never dearer than disk cost,
  // so no second admission attempt is needed on rejection). Group members
  // skip interval pairing — the multicast feed, not a predecessor's
  // deposits, covers them past the merge point.
  crcache::OpenDecision cache_plan;
  if (cache_ != nullptr && params.kind == SessionKind::kRead && !grouped) {
    cache_->NoteOpen(params.inode, params.index, kernel_->Now());
    cache_plan = cache_->PlanOpen(params.inode, 0);
  }

  // The admission test (§2.3), run per member disk: every disk's interval
  // deadline and the memory budget must hold.
  if (UseCachedAdmission()) {
    std::vector<crvol::CachedStreamDemand> demands = CurrentCachedDemands();
    demands.push_back(
        {demand, grouped || cache_plan.serve == crcache::ServeClass::kCached});
    if (!volume_admission_.AdmissibleCached(demands, options_.memory_budget_bytes)) {
      unwind_group();
      return reject(crbase::ResourceExhaustedError("admission test failed"));
    }
  } else {
    std::vector<StreamDemand> demands = CurrentDemands();
    demands.push_back(demand);
    if (!volume_admission_.Admissible(demands, options_.memory_budget_bytes)) {
      return reject(crbase::ResourceExhaustedError("admission test failed"));
    }
  }

  Session session;
  session.id = next_session_id_++;
  session.kind = params.kind;
  session.inode = params.inode;
  session.index = std::move(params.index);
  session.demand = demand;
  session.rate_factor = params.rate_factor;
  session.cache_served = cache_plan.serve == crcache::ServeClass::kCached;
  session.group_served = grouped;
  session.group_limit_chunk = grouped ? group_plan.merge_chunk : -1;
  const std::int64_t buffer_bytes = volume_admission_.BufferBytes(demand);
  session.buffer =
      std::make_unique<TimeDrivenBuffer>(buffer_bytes, options_.jitter_allowance);
  session.clock = std::make_unique<LogicalClock>(kernel_->engine());
  session.clock->SetRate(params.rate_factor);

  session.lease_renewed_at = kernel_->Now();
  buffer_bytes_reserved_ += buffer_bytes;
  kernel_->WireMemory("cras-buffer", buffer_bytes);
  ++stats_.sessions_opened;
  if (obs_ != nullptr) {
    obs_->sessions_opened->Add();
    session.buffer->AttachObs(obs_->hub, "s" + std::to_string(session.id));
    if (obs_->frames != nullptr && session.kind == SessionKind::kRead) {
      session.ftrace =
          obs_->frames->Register(session.id, "s" + std::to_string(session.id));
      // The buffer resolves frames it has to discard unconsumed, so a frame
      // that aged out of the ring still gets a missed decomposition.
      session.buffer->SetFrameTrace(session.ftrace);
    }
  }
  const SessionId id = session.id;
  const crufs::InodeNumber title = session.inode;
  const SessionKind kind = session.kind;
  sessions_.emplace(id, std::move(session));
  if (cache_ != nullptr && kind == SessionKind::kRead) {
    // Every read stream registers — a disk-served stream is the chain head
    // future followers attach to.
    cache_->Register(id, title, 0, cache_plan, kernel_->Now());
  }
  if (grouped) {
    group_mgr_->AddMember(group_plan.group, id, group_plan.merge_chunk);
  }
  return id;
}

crbase::Status CrasServer::HandleClose(SessionId id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return crbase::NotFoundError("no such session");
  }
  SessionId feed_to_close = kInvalidSession;
  if (group_mgr_ != nullptr) {
    if (it->second.feed) {
      // A dying feed dissolves its group: every member falls back to
      // unicast disk service at its current position (never a silent
      // miss) and is settled — re-admitted on the freed feed bandwidth or
      // shed — by the next owner of the control flow.
      for (const crmcast::SessionId member : group_mgr_->DissolveByFeed(id)) {
        if (Session* m = FindSession(member); m != nullptr && m->group_served) {
          ResumeUnicast(*m);
          cache_fallback_pending_ = true;
        }
      }
    } else {
      feed_to_close = group_mgr_->RemoveMember(id, "close");
    }
  }
  const std::int64_t buffer_bytes = it->second.buffer->capacity_bytes();
  buffer_bytes_reserved_ -= buffer_bytes;
  kernel_->UnwireMemory("cras-buffer", buffer_bytes);
  if (cache_ != nullptr) {
    // Orphaned followers fall back to disk service. Settling them (re-admit
    // or shed) is the caller's job — HandleClose runs inside shed loops and
    // must not recurse.
    for (const crcache::StreamId orphan : cache_->Unregister(id, kernel_->Now())) {
      if (Session* o = FindSession(orphan); o != nullptr) {
        o->cache_served = false;
        cache_fallback_pending_ = true;
      }
    }
  }
  // In-flight batches for this session are dropped when they complete.
  for (auto& [batch_id, batch] : inflight_) {
    if (batch.session == id) {
      batch.session = kInvalidSession;
    }
  }
  sessions_.erase(it);
  NotifySession(id);
  if (feed_to_close != kInvalidSession) {
    // The last member left: the group dissolved with it, so the
    // server-owned feed has nobody to serve. One level of recursion only —
    // a feed close never returns another feed.
    (void)HandleClose(feed_to_close);
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleStart(SessionId id, crbase::Duration initial_delay) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  NotifySession(id);
  if (initial_delay < 0) {
    return crbase::InvalidArgumentError("negative initial delay");
  }
  session->started = true;
  session->clock->Start(initial_delay);
  if (session->group_served && group_mgr_ != nullptr) {
    // The first member to start also starts the group's feed: member
    // clocks trail the feed clock by their arrival offset, which is
    // exactly the lag the prefix bridge covers.
    const crmcast::GroupId group = group_mgr_->GroupOf(id);
    const crmcast::SessionId feed = group_mgr_->FeedOf(group);
    if (Session* f = FindSession(feed); f != nullptr && !f->started) {
      f->started = true;
      f->clock->Start(initial_delay);
      NotifySession(feed);
    }
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleStop(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  NotifySession(id);
  session->started = false;
  session->clock->Stop();
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleSeek(SessionId id, crbase::Time logical) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  NotifySession(id);
  if (session->kind != SessionKind::kRead) {
    return crbase::FailedPreconditionError("seek on a write session");
  }
  std::int64_t chunk = session->index.FindByTime(logical);
  if (chunk < 0) {
    chunk = 0;
  }
  session->clock->SeekTo(logical);
  session->buffer->Clear();
  session->next_chunk = chunk;
  session->prefetch_pos = session->index.at(static_cast<std::size_t>(chunk)).timestamp;
  bool resettle = false;
  SessionId feed_to_close = kInvalidSession;
  if (session->group_served && group_mgr_ != nullptr) {
    // A seek breaks position compatibility with the group: the member
    // leaves and is disk-charged at its new play point.
    feed_to_close = group_mgr_->RemoveMember(id, "seek");
    session->group_served = false;
    session->group_limit_chunk = -1;
    resettle = true;
  }
  if (cache_ != nullptr) {
    // A seek invalidates any pair this stream is part of (its play point
    // jumped); simplest sound policy: drop to disk service at the new
    // position. The seeker stays admitted — its disk share was either
    // already charged or covered by the fallback reserve — but orphans may
    // overload the array, so re-settle.
    if (DetachFromCache(id)) {
      resettle = true;
    }
  }
  if (feed_to_close != kInvalidSession) {
    (void)HandleClose(feed_to_close);
  }
  if (resettle) {
    ShedUntilAdmissible();
  }
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleSetRate(SessionId id, double rate_factor) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  NotifySession(id);
  if (rate_factor * LogicalClock::kRateUnit < 0.5) {
    return crbase::InvalidArgumentError("rate factor must be positive");
  }
  if (session->kind != SessionKind::kRead) {
    return crbase::FailedPreconditionError("rate change on a write session");
  }
  if (session->group_served && group_mgr_ != nullptr) {
    // A non-unit rate cannot ride the group's shared feed; the member
    // leaves before re-admission at the new rate.
    const SessionId feed_to_close = group_mgr_->RemoveMember(id, "set_rate");
    session->group_served = false;
    session->group_limit_chunk = -1;
    if (feed_to_close != kInvalidSession) {
      (void)HandleClose(feed_to_close);
    }
    ShedUntilAdmissible();
    session = FindSession(id);
    if (session == nullptr) {
      return crbase::ResourceExhaustedError("session shed settling its group demotion");
    }
  }
  if (cache_ != nullptr) {
    // A rate change breaks pair pacing (predecessor and follower no longer
    // advance in lockstep); drop this stream — and any follower — to disk
    // service before re-admitting at the new rate.
    if (DetachFromCache(id)) {
      ShedUntilAdmissible();
      session = FindSession(id);
      if (session == nullptr) {
        return crbase::ResourceExhaustedError("session shed settling its cache fallback");
      }
    }
  }
  // Re-run admission with this session's demand scaled to the new factor.
  StreamDemand new_demand = session->demand;
  new_demand.rate_bytes_per_sec =
      new_demand.rate_bytes_per_sec / session->rate_factor * rate_factor;
  if (UseCachedAdmission()) {
    std::vector<crvol::CachedStreamDemand> demands;
    demands.reserve(sessions_.size());
    for (const auto& [other_id, other] : sessions_) {
      demands.push_back({other_id == id ? new_demand : other.demand,
                         other.cache_served || other.group_served});
    }
    if (!volume_admission_.AdmissibleCached(demands, options_.memory_budget_bytes)) {
      return crbase::ResourceExhaustedError("admission test failed at the new rate");
    }
  } else {
    std::vector<StreamDemand> demands;
    demands.reserve(sessions_.size());
    for (const auto& [other_id, other] : sessions_) {
      demands.push_back(other_id == id ? new_demand : other.demand);
    }
    if (!volume_admission_.Admissible(demands, options_.memory_budget_bytes)) {
      return crbase::ResourceExhaustedError("admission test failed at the new rate");
    }
  }
  // Re-reserve the buffer at the new B_i. Resident data stays valid (the
  // buffer object is preserved; only the accounting and cap change through
  // a new buffer would lose data, so we keep the larger of the two caps in
  // the object and track the reservation delta).
  const std::int64_t new_buffer_bytes = volume_admission_.BufferBytes(new_demand);
  const std::int64_t old_buffer_bytes = session->buffer->capacity_bytes();
  if (new_buffer_bytes > old_buffer_bytes) {
    kernel_->WireMemory("cras-buffer", new_buffer_bytes - old_buffer_bytes);
    buffer_bytes_reserved_ += new_buffer_bytes - old_buffer_bytes;
    auto grown = std::make_unique<TimeDrivenBuffer>(new_buffer_bytes,
                                                    options_.jitter_allowance);
    // Carry resident chunks across.
    const crbase::Time logical_now = session->clock->Now();
    for (crbase::Time t = logical_now - options_.jitter_allowance;; ) {
      std::optional<BufferedChunk> chunk = session->buffer->Get(t);
      if (!chunk.has_value()) {
        break;
      }
      grown->Put(*chunk, logical_now);
      t = chunk->timestamp + chunk->duration;
    }
    if (obs_ != nullptr) {
      grown->AttachObs(obs_->hub, "s" + std::to_string(id));
    }
    grown->SetFrameTrace(session->ftrace);
    session->buffer = std::move(grown);
  }
  session->demand = new_demand;
  session->rate_factor = rate_factor;
  session->clock->SetRate(rate_factor);
  return crbase::OkStatus();
}

crbase::Status CrasServer::HandleReconnect(SessionId id) {
  // Still live: the client outran the reaper — renew and carry on.
  if (Session* session = FindSession(id); session != nullptr) {
    session->lease_renewed_at = kernel_->Now();
    return crbase::OkStatus();
  }
  auto it = reaped_.find(id);
  if (it == reaped_.end()) {
    return crbase::NotFoundError("no such session (never opened, or resume state evicted)");
  }
  ReapedSession& old = it->second;

  // Resume position, needed up front: the cache plans service at the chunk
  // the stream will actually resume from.
  std::int64_t resume_chunk = 0;
  if (old.kind == SessionKind::kRead) {
    resume_chunk = old.index.FindByTime(old.logical_pos);
    if (resume_chunk < 0) {
      resume_chunk = 0;
    }
  }
  crcache::OpenDecision cache_plan;
  if (cache_ != nullptr && old.kind == SessionKind::kRead) {
    cache_->NoteOpen(old.inode, old.index, kernel_->Now());
    cache_plan = cache_->PlanOpen(old.inode, resume_chunk);
  }

  // Re-run the admission test: the array may have degraded (or filled up)
  // since the session was reaped, and a resumed stream gets no special
  // claim over the ones admitted meanwhile.
  if (UseCachedAdmission()) {
    std::vector<crvol::CachedStreamDemand> demands = CurrentCachedDemands();
    demands.push_back({old.demand, cache_plan.serve == crcache::ServeClass::kCached});
    if (!volume_admission_.AdmissibleCached(demands, options_.memory_budget_bytes)) {
      return crbase::ResourceExhaustedError("admission test failed on resume");
    }
  } else {
    std::vector<StreamDemand> demands = CurrentDemands();
    demands.push_back(old.demand);
    if (!volume_admission_.Admissible(demands, options_.memory_budget_bytes)) {
      return crbase::ResourceExhaustedError("admission test failed on resume");
    }
  }

  Session session;
  session.id = id;
  session.kind = old.kind;
  session.inode = old.inode;
  session.index = std::move(old.index);
  session.demand = old.demand;
  session.rate_factor = old.rate_factor;
  const std::int64_t buffer_bytes = volume_admission_.BufferBytes(session.demand);
  session.buffer = std::make_unique<TimeDrivenBuffer>(buffer_bytes, options_.jitter_allowance);
  session.clock = std::make_unique<LogicalClock>(kernel_->engine());
  session.clock->SetRate(session.rate_factor);
  session.clock->SeekTo(old.logical_pos);
  if (old.kind == SessionKind::kRead) {
    session.next_chunk = resume_chunk;
    session.prefetch_pos =
        session.index.at(static_cast<std::size_t>(resume_chunk)).timestamp;
    session.cache_served = cache_plan.serve == crcache::ServeClass::kCached;
  }
  if (old.started) {
    // Resume playing from where the reaper froze it, after the same
    // pipeline-fill latency a fresh start needs.
    session.started = true;
    session.clock->Start(SuggestedInitialDelay());
  }
  session.lease_renewed_at = kernel_->Now();
  buffer_bytes_reserved_ += buffer_bytes;
  kernel_->WireMemory("cras-buffer", buffer_bytes);
  ++stats_.sessions_resumed;
  if (obs_ != nullptr) {
    obs_->sessions_resumed->Add();
    session.buffer->AttachObs(obs_->hub, "s" + std::to_string(id));
    if (obs_->frames != nullptr && session.kind == SessionKind::kRead) {
      session.ftrace = obs_->frames->Register(id, "s" + std::to_string(id));
      session.buffer->SetFrameTrace(session.ftrace);
    }
  }
  const SessionKind resumed_kind = old.kind;
  const crufs::InodeNumber resumed_title = old.inode;
  reaped_.erase(it);
  sessions_.emplace(id, std::move(session));
  NotifySession(id);
  if (cache_ != nullptr && resumed_kind == SessionKind::kRead) {
    cache_->Register(id, resumed_title, resume_chunk, cache_plan, kernel_->Now());
  }
  CRAS_LOG(kInfo) << "CRAS session " << id << " reconnected and resumed";
  return crbase::OkStatus();
}

// ---------------------------------------------------------------------------
// Multicast demotion
// ---------------------------------------------------------------------------

void CrasServer::ResumeUnicast(Session& session) {
  NotifySession(session.id);
  session.group_served = false;
  session.group_limit_chunk = -1;
  const std::int64_t count = static_cast<std::int64_t>(session.index.count());
  std::int64_t chunk = session.index.FindByTime(session.clock->Now());
  if (chunk < 0) {
    chunk = 0;
  }
  // Never re-fetch behind either the clock or the bridge patch already
  // scheduled; the multicast-delivered middle is the receiver's to keep.
  session.next_chunk = std::min(std::max(session.next_chunk, chunk), count);
  if (session.next_chunk < count) {
    session.prefetch_pos =
        session.index.at(static_cast<std::size_t>(session.next_chunk)).timestamp;
  } else {
    const crmedia::Chunk& tail = session.index.at(static_cast<std::size_t>(count - 1));
    session.prefetch_pos = tail.timestamp + tail.duration;
  }
}

bool CrasServer::DemoteGroupMember(SessionId id, const std::string& reason) {
  Session* session = FindSession(id);
  if (session == nullptr || !session->group_served || group_mgr_ == nullptr) {
    return false;
  }
  const SessionId feed_to_close = group_mgr_->RemoveMember(id, reason);
  ResumeUnicast(*session);
  if (feed_to_close != kInvalidSession) {
    // The demoted member was the group's last: nobody left to feed.
    (void)HandleClose(feed_to_close);
  }
  // Re-settle: the member is disk-charged from here on (the fallback
  // reserve covered the flip); the freed feed bandwidth may re-admit it,
  // or the settle sheds the costliest streams.
  ShedUntilAdmissible();
  return HasSession(id);
}

void CrasServer::RenewLease(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return;  // heartbeat racing the reaper (or a stale client)
  }
  const crbase::Time now = kernel_->Now();
  if (obs_ != nullptr) {
    obs_->lease_age_ms->Record(crobs::ToMillis(now - session->lease_renewed_at));
  }
  session->lease_renewed_at = now;
  ++stats_.lease_renewals;
}

void CrasServer::ReapExpired() {
  const crbase::Time now = kernel_->Now();
  const auto deadline = static_cast<crbase::Duration>(
      options_.lease_grace * static_cast<double>(options_.lease_period));
  std::vector<SessionId> expired;
  for (const auto& [id, session] : sessions_) {
    if (session.feed) {
      continue;  // server-owned: no client lease to lapse
    }
    if (now - session.lease_renewed_at > deadline) {
      expired.push_back(id);
    }
  }
  for (SessionId id : expired) {
    Session& session = sessions_.at(id);
    ReapedSession record;
    record.kind = session.kind;
    record.inode = session.inode;
    record.index = std::move(session.index);
    record.demand = session.demand;
    record.rate_factor = session.rate_factor;
    record.logical_pos = session.clock->Now();
    record.started = session.started;
    record.reaped_at = now;
    const crbase::Duration lease_age = now - session.lease_renewed_at;
    CRAS_LOG(kWarning) << "CRAS reaping session " << id << " (lease lapsed "
                       << crbase::FormatDuration(lease_age) << " ago)";
    CRAS_CHECK(HandleClose(id).ok());
    reaped_ids_.insert(id);
    reaped_.emplace(id, std::move(record));
    while (reaped_.size() > options_.reaped_history) {
      // Evict the oldest resume state (smallest id is the oldest session).
      reaped_.erase(reaped_.begin());
    }
    ++stats_.sessions_reaped;
    if (obs_ != nullptr) {
      obs_->sessions_reaped->Add();
      obs_->hub->flight().Record(crobs::FlightEventKind::kLeaseReap, id, 0,
                                 crobs::ToMillis(lease_age));
      obs_->hub->trace().Instant(obs_->track, obs_->n_reap, static_cast<double>(id));
    }
  }
  if (cache_fallback_pending_) {
    // A reaped predecessor orphaned a cached follower: re-admit it on the
    // freed bandwidth, or shed.
    ShedUntilAdmissible();
  }
}

// ---------------------------------------------------------------------------
// Degradation controller
// ---------------------------------------------------------------------------

void CrasServer::ApplyMemberChange(const MemberChange& change) {
  ++stats_.member_changes;
  CRAS_LOG(kWarning) << "CRAS member disk " << change.disk << " is now "
                     << crvol::MemberStateName(change.state);
  switch (change.state) {
    case crvol::MemberState::kFailed:
      volume_admission_.SetMemberFailed(change.disk, true);
      break;
    case crvol::MemberState::kSlow: {
      // Re-derive the member's worst-case parameters from its actual
      // derating; only the media rate degrades, the mechanics don't.
      DiskParams derated = options_.disk_params;
      derated.transfer_rate /= volume_->device(change.disk).throughput_derating();
      volume_admission_.SetMemberParams(change.disk, derated);
      break;
    }
    case crvol::MemberState::kHealthy:
      volume_admission_.SetMemberFailed(change.disk, false);
      volume_admission_.SetMemberParams(change.disk, options_.disk_params);
      break;
  }
  if (obs_ != nullptr) {
    obs_->hub->flight().Record(crobs::FlightEventKind::kMemberChange, change.disk, 0, 0,
                               crvol::MemberStateName(change.state));
    obs_->hub->trace().Instant(obs_->track, obs_->n_member,
                               static_cast<double>(change.disk));
  }
  ShedUntilAdmissible();
}

void CrasServer::ShedUntilAdmissible() {
  const std::int64_t shed_before = stats_.streams_shed;
  // Sheds one victim per round, re-evaluating between rounds: with the
  // cache on, closing a victim can change other streams' serving classes
  // (an orphaned follower falls back to disk), so a precomputed victim list
  // would test stale demand sets. Victim order within a round:
  //   1. disk-charged streams feeding no cached follower — closing one
  //      frees a full disk share and breaks nothing;
  //   2. disk-charged chain heads — the follower falls back, so the net
  //      relief is smaller and a fallback cascades;
  //   3. cache-served and group-member streams — nearly free to serve,
  //      shed late;
  //   4. delivery-group feeds — each carries a whole group (shedding one
  //      demotes every member to disk service), shed last.
  // Within a class: highest-rate first (the degraded array loses the fewest
  // streams), ties toward younger sessions. Cache off: every stream is
  // class 1's complement — plain highest-rate-first, the classic order.
  for (;;) {
    if (sessions_.empty()) {
      break;
    }
    const bool admissible =
        UseCachedAdmission()
            ? volume_admission_.AdmissibleCached(CurrentCachedDemands(),
                                                 options_.memory_budget_bytes)
            : volume_admission_.Admissible(CurrentDemands(), options_.memory_budget_bytes);
    if (admissible) {
      break;
    }
    Session* victim = nullptr;
    int victim_class = 0;
    for (auto& [id, session] : sessions_) {
      int cls = 0;
      if (session.feed) {
        cls = 3;
      } else if (session.cache_served || session.group_served) {
        cls = 2;
      } else if (cache_ != nullptr && cache_->HasFollower(id)) {
        cls = 1;
      }
      bool better = victim == nullptr;
      if (!better && cls != victim_class) {
        better = cls < victim_class;
      } else if (!better) {
        if (session.demand.rate_bytes_per_sec != victim->demand.rate_bytes_per_sec) {
          better = session.demand.rate_bytes_per_sec > victim->demand.rate_bytes_per_sec;
        } else {
          better = session.id > victim->id;
        }
      }
      if (better) {
        victim = &session;
        victim_class = cls;
      }
    }
    const SessionId id = victim->id;
    shed_ids_.insert(id);
    ++stats_.streams_shed;
    CRAS_LOG(kWarning) << "CRAS shedding session " << id << " (degraded array)";
    if (obs_ != nullptr) {
      obs_->streams_shed->Add();
      obs_->hub->flight().Record(crobs::FlightEventKind::kStreamShed, id);
      obs_->hub->trace().Instant(obs_->track, obs_->n_shed, static_cast<double>(id));
    }
    CRAS_CHECK(HandleClose(id).ok());
  }
  cache_fallback_pending_ = false;
  if (obs_ != nullptr) {
    obs_->streams_kept->Set(static_cast<double>(sessions_.size()));
    // The admission settle is complete: whatever disturbance brought us
    // here (member change, cache fallback, group demote), the surviving set
    // passes the current model again. The auditor measures recovery latency
    // as fault -> this event.
    obs_->hub->flight().Record(crobs::FlightEventKind::kResettled,
                               static_cast<std::int64_t>(sessions_.size()),
                               stats_.streams_shed - shed_before);
  }
}

// ---------------------------------------------------------------------------
// Scheduler phases
// ---------------------------------------------------------------------------

std::int64_t CrasServer::PublishCompletedBatches() {
  std::int64_t published = 0;
  while (!completed_batches_.empty()) {
    const std::uint64_t batch_id = completed_batches_.front();
    completed_batches_.pop_front();
    auto it = inflight_.find(batch_id);
    if (it == inflight_.end()) {
      continue;
    }
    Batch batch = it->second;
    inflight_.erase(it);
    Session* session = FindSession(batch.session);
    if (session == nullptr) {
      continue;  // closed while the I/O was in flight
    }
    const crbase::Time now = kernel_->Now();
    if (now > batch.deadline) {
      session->stats.max_publish_lag =
          std::max(session->stats.max_publish_lag, now - batch.deadline);
    }
    if (batch.kind == SessionKind::kWrite) {
      session->stats.chunks_written += batch.last_chunk - batch.first_chunk;
      session->stats.bytes_written += batch.bytes;
      continue;
    }
    const crbase::Time logical_now = session->clock->Now();
    for (std::int64_t c = batch.first_chunk; c < batch.last_chunk; ++c) {
      const crmedia::Chunk& chunk = session->index.at(static_cast<std::size_t>(c));
      BufferedChunk buffered;
      buffered.chunk_index = c;
      buffered.timestamp = chunk.timestamp;
      buffered.duration = chunk.duration;
      buffered.size = chunk.size;
      buffered.filled_at = now;
      if (session->ftrace != nullptr) {
        session->ftrace->Stamp(c, crobs::FrameStage::kPublished);
      }
      session->buffer->Put(buffered, logical_now);
      ++session->stats.chunks_published;
      session->stats.bytes_published += chunk.size;
      ++published;
    }
    NotifySession(batch.session);
  }
  return published;
}

std::int64_t CrasServer::IssueIntervalIo(std::size_t interval_slot, crbase::Time deadline) {
  struct Planned {
    std::uint64_t batch_id;
    crvol::Volume::Segment segment;
    crdisk::DiskRequest request;
    std::int64_t cylinder;
  };
  std::vector<Planned> planned;
  std::vector<SessionId> feeds_to_close;

  auto plan_range = [&](Session& session, std::int64_t first, std::int64_t last,
                        SessionKind kind) {
    if (first >= last) {
      return;
    }
    const crmedia::Chunk& head = session.index.at(static_cast<std::size_t>(first));
    const crmedia::Chunk& tail = session.index.at(static_cast<std::size_t>(last - 1));
    const std::int64_t offset = head.offset;
    const std::int64_t length = tail.offset + tail.size - offset;
    auto extents = fs_->GetExtents(session.inode, offset, length, options_.max_read_bytes);
    CRAS_CHECK(extents.ok()) << extents.status().ToString();

    Batch batch;
    batch.id = next_batch_id_++;
    batch.session = session.id;
    batch.first_chunk = first;
    batch.last_chunk = last;
    batch.kind = kind;
    batch.interval_slot = interval_slot;
    batch.deadline = deadline;
    batch.planned_at = kernel_->Now();
    const crdisk::IoKind io_kind =
        kind == SessionKind::kRead ? crdisk::IoKind::kRead : crdisk::IoKind::kWrite;
    for (const crufs::Extent& extent : *extents) {
      batch.bytes += extent.bytes();
      // Fan the logical extent out to the member disks owning its stripe
      // units (a one-disk volume maps it to a single identical request). A
      // degraded parity volume substitutes reconstruction reads on the
      // survivors for the failed member's pieces; a write adds the row's
      // parity-update pieces.
      for (const crvol::Volume::Segment& segment :
           volume_->MapRange(extent.lba, extent.sectors, io_kind)) {
        crdisk::DiskRequest request;
        request.kind = io_kind;
        request.lba = segment.lba;
        request.sectors = segment.sectors;
        request.realtime = true;
        const std::uint64_t batch_id = batch.id;
        const int disk = segment.disk;
        request.on_complete = [this, batch_id, disk](const crdisk::DiskCompletion& completion) {
          io_done_port_.Send(IoDoneMsg{batch_id, disk, completion});
        };
        ++batch.outstanding;
        planned.push_back(
            Planned{batch.id, segment, std::move(request),
                    volume_->device(segment.disk).geometry().CylinderOf(segment.lba)});
      }
    }
    if (batch.outstanding == 0) {
      return;  // zero-length range
    }
    interval_records_[interval_slot].bytes += batch.bytes;
    if (obs_ != nullptr) {
      obs_->hub->trace().AsyncBegin(obs_->track, obs_->cat_batch, obs_->n_prefetch, batch.id);
    }
    if (kind == SessionKind::kRead && session.ftrace != nullptr) {
      for (std::int64_t c = first; c < last; ++c) {
        session.ftrace->Stamp(c, crobs::FrameStage::kScheduled);
        session.ftrace->SetPath(c, crobs::FramePath::kDisk);
      }
    }
    inflight_.emplace(batch.id, batch);
  };

  for (auto& [id, session] : sessions_) {
    if (!session.started) {
      continue;
    }
    if (session.kind == SessionKind::kRead) {
      const crbase::Duration advance = ScaleDuration(options_.interval, session.rate_factor);
      // "CRAS schedules pre-fetches according to the logical rate": stay at
      // most two interval-windows ahead of the logical clock — exactly the
      // double-buffered depth B_i was sized for. A client that allowed a
      // longer initial delay (clock still deeply negative) simply causes
      // prefetching to idle until the pipeline is needed, instead of
      // overrunning its own buffer. After a rate increase the pipeline may
      // lag the accelerated clock; issue up to a few windows in one
      // interval to re-prime it (bounded burst so one session cannot
      // monopolize an interval).
      const std::int64_t count = static_cast<std::int64_t>(session.index.count());
      for (int window = 0; window < 4; ++window) {
        // A delivery-group member schedules only its bridge patch
        // [0, merge): everything past the merge point arrives through the
        // group's multicast feed, never through this session's own I/O.
        const std::int64_t limit =
            session.group_served && session.group_limit_chunk >= 0
                ? std::min(count, session.group_limit_chunk)
                : count;
        if (session.group_served && session.next_chunk >= limit) {
          break;  // patch complete; the multicast feed carries the rest
        }
        if (session.prefetch_pos > session.clock->Now() + 2 * advance) {
          break;
        }
        const crbase::Time window_end = session.prefetch_pos + advance;
        std::int64_t first = session.next_chunk;
        std::int64_t last = first;
        while (last < limit &&
               session.index.at(static_cast<std::size_t>(last)).timestamp < window_end) {
          ++last;
        }
        if (cache_ != nullptr && first < last) {
          // The leading run servable from the cache (pinned prefix or the
          // predecessor's deposited blocks) becomes a zero-I/O batch,
          // published at the next boundary exactly like a disk batch; only
          // the remainder touches the disks.
          const crcache::ServeResult run = cache_->ServableRun(id, first, last);
          if (run.demoted) {
            session.cache_served = false;
            cache_fallback_pending_ = true;
          }
          if (run.chunks > 0) {
            Batch batch;
            batch.id = next_batch_id_++;
            batch.session = id;
            batch.first_chunk = first;
            batch.last_chunk = first + run.chunks;
            batch.kind = SessionKind::kRead;
            batch.interval_slot = interval_slot;
            batch.deadline = deadline;
            batch.planned_at = kernel_->Now();
            for (std::int64_t c = first; c < first + run.chunks; ++c) {
              batch.bytes += session.index.at(static_cast<std::size_t>(c)).size;
              if (session.ftrace != nullptr) {
                session.ftrace->Stamp(c, crobs::FrameStage::kScheduled);
                session.ftrace->SetPath(c, crobs::FramePath::kCache);
              }
            }
            stats_.bytes_from_cache += batch.bytes;
            if (obs_ != nullptr) {
              obs_->bytes_from_cache->Add(batch.bytes);
            }
            inflight_.emplace(batch.id, batch);
            completed_batches_.push_back(batch.id);
            first += run.chunks;
          }
        }
        if (session.group_served && first < last) {
          // The pinned prefix no longer covers this member's bridge patch
          // (unpinned under pressure, or never reached this far): the
          // remainder is disk I/O a memory-only member must not issue
          // silently. Demote to unicast — this window's tail rides the
          // fallback reserve, and the settle below re-admits the stream
          // disk-charged or sheds it. Mirrors the cache's demote-to-disk.
          const SessionId feed_orphan = group_mgr_->RemoveMember(id, "patch_miss");
          if (feed_orphan != kInvalidSession) {
            feeds_to_close.push_back(feed_orphan);
          }
          session.group_served = false;
          session.group_limit_chunk = -1;
          cache_fallback_pending_ = true;
        }
        plan_range(session, first, last, SessionKind::kRead);
        if (cache_ != nullptr && last > session.next_chunk) {
          // Deposit at issue time: these blocks are what a follower's next
          // window reads from the interval pool.
          cache_->NoteScheduled(id, last);
        }
        session.next_chunk = last;
        session.prefetch_pos = window_end;
      }
    } else {
      // Write session: stage up to one interval's admitted bytes from the
      // produced-chunk queue, in maximal consecutive runs.
      std::int64_t budget = admission_.BytesPerInterval(session.demand);
      while (!session.write_queue.empty() && budget > 0) {
        const std::int64_t first = session.write_queue.front();
        std::int64_t last = first;
        std::int64_t run_bytes = 0;
        while (!session.write_queue.empty() && session.write_queue.front() == last &&
               run_bytes <= budget) {
          run_bytes += session.index.at(static_cast<std::size_t>(last)).size;
          session.write_queue.pop_front();
          ++last;
        }
        plan_range(session, first, last, SessionKind::kWrite);
        budget -= run_bytes;
      }
    }
  }

  for (const SessionId feed : feeds_to_close) {
    // A patch-miss demote emptied its group mid-planning; the feed closes
    // here, outside the session iteration (HandleClose mutates the map).
    (void)HandleClose(feed);
  }
  if (cache_fallback_pending_) {
    // A stream was demoted mid-planning (its window outran its feed). Its
    // own tail rides the fallback reserve, but the set may no longer be
    // admissible with it disk-charged: settle before submitting, and drop
    // the work planned for any session the settling shed (its batches were
    // orphaned by HandleClose).
    ShedUntilAdmissible();
    std::erase_if(planned, [this](const Planned& p) {
      auto it = inflight_.find(p.batch_id);
      if (it == inflight_.end()) {
        return true;  // batch erased when an earlier row of it was dropped
      }
      if (it->second.session == kInvalidSession) {
        inflight_.erase(it);
        return true;
      }
      return false;
    });
  }

  // The paper: "making all the read requests to disks in cylinder order to
  // minimize the seek time" — here per member disk, since each disk's RT
  // queue sweeps its own surface independently.
  if (options_.sort_requests_by_cylinder) {
    std::sort(planned.begin(), planned.end(), [](const Planned& a, const Planned& b) {
      return a.segment.disk != b.segment.disk ? a.segment.disk < b.segment.disk
                                              : a.cylinder < b.cylinder;
    });
  }
  for (Planned& p : planned) {
    if (p.request.kind == crdisk::IoKind::kRead) {
      ++stats_.read_requests;
      if (obs_ != nullptr) {
        obs_->read_requests->Add();
      }
    } else {
      ++stats_.write_requests;
      if (obs_ != nullptr) {
        obs_->write_requests->Add();
      }
    }
    volume_->NotePiece(p.segment);
    volume_->driver(p.segment.disk).Submit(std::move(p.request));
  }
  const std::int64_t issued = static_cast<std::int64_t>(planned.size());
  interval_records_[interval_slot].requests += issued;
  return issued;
}

// ---------------------------------------------------------------------------
// Data path and introspection
// ---------------------------------------------------------------------------

std::optional<BufferedChunk> CrasServer::Get(SessionId id, crbase::Time logical) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return std::nullopt;
  }
  // The time-driven sweep: data behind the logical clock ages out on every
  // buffer touch, with no server round trip.
  session->buffer->DiscardObsolete(session->clock->Now());
  return session->buffer->Get(logical);
}

crobs::SessionTrace* CrasServer::FrameTrace(SessionId id) const {
  const Session* session = FindSession(id);
  return session == nullptr ? nullptr : session->ftrace;
}

crbase::Time CrasServer::RealTimeOf(SessionId id, crbase::Time logical) const {
  const Session* session = FindSession(id);
  return session == nullptr ? crbase::kNever : session->clock->RealTimeOf(logical);
}

void CrasServer::NotifySession(SessionId id) {
  auto it = session_waits_.find(id);
  if (it == session_waits_.end()) {
    return;
  }
  it->second.Notify();
  if (!HasSession(id)) {
    // Closed: nobody re-parks before the wakeups run, so drop the list; a
    // thread waiting for a Reconnect re-creates it.
    session_waits_.erase(it);
  }
}

crbase::Time CrasServer::LogicalNow(SessionId id) const {
  const Session* session = FindSession(id);
  if (session == nullptr) {
    return 0;
  }
  return session->clock->Now();
}

crbase::Status CrasServer::PutChunk(SessionId id, std::int64_t chunk) {
  Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  if (session->kind != SessionKind::kWrite) {
    return crbase::FailedPreconditionError("PutChunk on a read session");
  }
  if (chunk < 0 || chunk >= static_cast<std::int64_t>(session->index.count())) {
    return crbase::OutOfRangeError("chunk index out of range");
  }
  session->write_queue.push_back(chunk);
  return crbase::OkStatus();
}

crbase::Result<SessionStats> CrasServer::GetSessionStats(SessionId id) const {
  const Session* session = FindSession(id);
  if (session == nullptr) {
    return crbase::NotFoundError("no such session");
  }
  return session->stats;
}

const TimeDrivenBufferStats* CrasServer::GetBufferStats(SessionId id) const {
  const Session* session = FindSession(id);
  if (session == nullptr) {
    return nullptr;
  }
  return &session->buffer->stats();
}

CrasServer::Session* CrasServer::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const CrasServer::Session* CrasServer::FindSession(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

std::vector<StreamDemand> CrasServer::CurrentDemands() const {
  std::vector<StreamDemand> demands;
  demands.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    demands.push_back(session.demand);
  }
  return demands;
}

std::vector<crvol::CachedStreamDemand> CrasServer::CurrentCachedDemands() const {
  std::vector<crvol::CachedStreamDemand> demands;
  demands.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) {
    // Group members are memory-only like cache-served streams: the group's
    // disk time is charged once, through its feed session.
    demands.push_back({session.demand, session.cache_served || session.group_served});
  }
  return demands;
}

bool CrasServer::DetachFromCache(SessionId id) {
  Session* session = FindSession(id);
  if (session == nullptr || session->kind != SessionKind::kRead) {
    return false;
  }
  bool changed = session->cache_served;
  for (const crcache::StreamId orphan : cache_->Unregister(id, kernel_->Now())) {
    if (Session* o = FindSession(orphan); o != nullptr) {
      o->cache_served = false;
      changed = true;
    }
  }
  session->cache_served = false;
  // Re-register as a disk-served chain member at the current scheduling
  // position, so future opens can still attach behind this stream.
  cache_->Register(id, session->inode, session->next_chunk, crcache::OpenDecision{},
                   kernel_->Now());
  return changed;
}

}  // namespace cras
