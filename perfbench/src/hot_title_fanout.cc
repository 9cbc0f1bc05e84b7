// hot_title_fanout: 8 disks and one shared 1 Gb/s forward link. A hundred
// viewers join one hot title as a multicast delivery group (late joiners
// bridged from the pinned prefix), and sixteen unicast NPS viewers with NAK
// repair enabled watch distinct cold titles. The disk reads each title about
// once; the work is in the network, multicast and client/sender loops.

#include <deque>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workload_util.h"
#include "src/base/logging.h"
#include "src/core/testbed.h"
#include "src/mcast/group_manager.h"
#include "src/mcast/group_transport.h"
#include "src/net/link.h"
#include "src/net/nps.h"

namespace perfbench {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

constexpr int kDisks = 8;
constexpr int kGroupViewers = 100;
constexpr int kUnicastViewers = 16;
constexpr crbase::Duration kTitleLength = Seconds(40);
constexpr crbase::Duration kGroupGap = Milliseconds(100);
constexpr crbase::Duration kUnicastGap = Milliseconds(600);
constexpr crbase::Duration kArrivalJitter = Milliseconds(50);
// Playout trails the session clock so chunks published at an interval
// boundary have crossed the wire by their due time.
constexpr crbase::Duration kPlayoutSlack = Milliseconds(200);
constexpr crbase::Duration kRunLength =
    kGroupGap * kGroupViewers + kArrivalJitter + Seconds(3) + kTitleLength;

// A networked viewer's endpoints; exactly one receiver kind is populated.
struct NetViewer {
  std::unique_ptr<crnet::Link> reverse;  // per-viewer report/NAK path, clean
  std::unique_ptr<crnet::NpsReceiver> nps_receiver;
  std::unique_ptr<crnet::NpsSender> nps_sender;
  std::unique_ptr<crmcast::GroupReceiver> group_receiver;
};

// Everything a networked viewer's coroutine shares with the round.
struct NetShared {
  ClientEnv env;
  crnet::Link* forward = nullptr;
  crmcast::GroupSender* group_sender = nullptr;
  bool group_sender_started = false;
  std::deque<crsim::Task>* tasks = nullptr;
};

crsim::Task SpawnNetViewer(NetShared* shared, const crmedia::ChunkIndex* index,
                           crufs::InodeNumber inode, crbase::Time arrive_at, bool grouped,
                           NetViewer* viewer, ViewerRecord* record) {
  record->frames_due = FramesDue(*index, index->total_duration());
  record->played.assign(static_cast<std::size_t>(record->frames_due), false);
  viewer->reverse = std::make_unique<crnet::Link>(shared->env.kernel->engine());
  return shared->env.kernel->Spawn(
      grouped ? "group-viewer" : "nps-viewer", crrt::kPriorityClient,
      [shared, index, inode, arrive_at, grouped, viewer,
       record](crrt::ThreadContext& ctx) -> crsim::Task {
        const ClientEnv& env = shared->env;
        cras::CrasServer& server = *env.server;
        co_await ctx.Sleep(arrive_at - ctx.Now());
        record->arrived = true;
        const crbase::Time open_at = ctx.Now();
        const cras::StreamDemand demand = DemandOf(*index, server.options().interval);
        NoteAdmissionDecision(env, demand);
        cras::OpenParams params;
        params.inode = inode;
        params.index = *index;
        params.grouped = grouped;
        auto opened = co_await server.Open(std::move(params));
        record->open_ms = Ms(ctx.Now() - open_at);
        if (!opened.ok()) {
          if (opened.status().code() != crbase::StatusCode::kResourceExhausted) {
            ++record->control_errors;
          }
          co_return;
        }
        record->admitted = true;
        const cras::SessionId id = *opened;
        NoteOpened(env, id, demand);
        const crbase::Duration delay = server.SuggestedInitialDelay();
        const crbase::Duration playout = delay + kPlayoutSlack;
        if (grouped) {
          viewer->group_receiver = std::make_unique<crmcast::GroupReceiver>(*env.kernel, index);
          shared->group_sender->AddMember(id, *viewer->group_receiver);
          viewer->group_receiver->ConnectReverse(*viewer->reverse, *shared->group_sender, id);
          shared->tasks->push_back(viewer->group_receiver->Start());
          if (!(co_await server.StartStream(id, delay)).ok()) {
            ++record->control_errors;
          }
          if (!shared->group_sender_started) {
            const crmcast::GroupId group = server.mcast_groups()->GroupOf(id);
            CRAS_CHECK(group != crmcast::kNoGroup) << "a grouped open joined no group";
            shared->tasks->push_back(shared->group_sender->Start(group, index));
            shared->group_sender_started = true;
          }
          crmcast::GroupReceiver* receiver = viewer->group_receiver.get();
          receiver->clock().Start(playout);
          // The viewer runs on its own host: it charges the server's CPU
          // nothing, and the receiver stamps the frame trace itself.
          co_await PlayFrames(ctx, env, id, *index, ctx.Now() + playout, open_at, 0, nullptr,
                              record, [receiver](crbase::Time t) { return receiver->Get(t); });
          receiver->Stop();
        } else {
          viewer->nps_receiver = std::make_unique<crnet::NpsReceiver>(*env.kernel);
          viewer->nps_sender = std::make_unique<crnet::NpsSender>(
              *env.kernel, server, *shared->forward, *viewer->nps_receiver);
          viewer->nps_sender->EnableRetransmit();
          viewer->nps_receiver->ConnectReverse(*viewer->reverse, *viewer->nps_sender);
          if (!(co_await server.StartStream(id, delay)).ok()) {
            ++record->control_errors;
          }
          shared->tasks->push_back(viewer->nps_sender->Start(id, index));
          crnet::NpsReceiver* receiver = viewer->nps_receiver.get();
          receiver->clock().Start(playout);
          co_await PlayFrames(ctx, env, id, *index, ctx.Now() + playout, open_at, 0, nullptr,
                              record, [receiver](crbase::Time t) { return receiver->Get(t); });
        }
        if (!record->shed) {
          if (!(co_await server.StopStream(id)).ok()) {
            ++record->control_errors;
          }
          if (!(co_await server.Close(id)).ok()) {
            ++record->control_errors;
          }
        }
        NoteClosed(env, id);
      });
}

}  // namespace

RoundResult RunHotTitleFanout(const RoundConfig& config, SpanRecorder& spans) {
  const SpanNames names(spans);
  RoundResult result;
  Outputs& out = result.out;
  out.workload = "hot_title_fanout";

  // Inputs, all drawn from the seed: title 0 is the hot one. The titles'
  // contents are generated as part of writing the media, in set-up.
  out.hot_title = 0;
  crbase::Rng arrival_rng(MixSeed(config.seed, 2));
  std::vector<crbase::Time> group_arrivals;
  for (int i = 0; i < kGroupViewers; ++i) {
    group_arrivals.push_back(kGroupGap * i + Jitter(arrival_rng, kArrivalJitter));
  }
  std::vector<crbase::Time> unicast_arrivals;
  for (int i = 0; i < kUnicastViewers; ++i) {
    unicast_arrivals.push_back(Milliseconds(300) + kUnicastGap * i +
                               Jitter(arrival_rng, kArrivalJitter));
  }

  cras::VolumeTestbedOptions options;
  options.volume.disks = kDisks;
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  options.cras.mcast.enabled = true;
  options.cras.cache.enabled = true;
  options.cras.cache.pin_min_score = 0.5;  // the hot title pins its prefix
  options.cras.cache.prefix_length = Seconds(20);
  ConfigureObs(config, &options.obs);

  const double setup_start = CpuSeconds();
  std::unique_ptr<cras::VolumeTestbed> bed;
  std::vector<crufs::InodeNumber> title_inodes;
  crmedia::MediaFile cat_file;
  {
    ScopedSpan setup(spans, names.setup);
    {
      ScopedSpan rig(spans, names.setup_rig);
      bed = std::make_unique<cras::VolumeTestbed>(options);
      bed->StartServers();
    }
    const double media_start = CpuSeconds();
    ScopedSpan media(spans, names.setup_media);
    crbase::Rng title_rng(MixSeed(config.seed, 1));
    for (int i = 0; i < 1 + kUnicastViewers; ++i) {
      out.titles.push_back(VbrTitle(kTitleLength, title_rng));
      title_inodes.push_back(WriteTitle(bed->fs, "title" + std::to_string(i), out.titles.back()));
    }
    cat_file = WriteCatFile(bed->fs, "catfood");
    result.times.media_write_s = (CpuSeconds() - media_start);
  }
  result.times.setup_s = (CpuSeconds() - setup_start);
  out.wired_bytes_start = bed->kernel.wired_bytes();

  // A lossless link: under Gilbert–Elliott burst loss the NAK and XOR
  // repair paths leave a seed-dependent handful of frames unrecovered (see
  // README.md, "Known faults"), and a workload must not fail on some seeds
  // only. Repair traffic is therefore not exercised here.
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 125.0e6;  // 1 Gb/s shared segment
  crnet::Link forward(bed->engine(), forward_options);
  crmcast::GroupSender group_sender(bed->kernel, bed->cras_server, forward);

  const int viewers = kGroupViewers + kUnicastViewers;
  out.viewers.resize(static_cast<std::size_t>(viewers));
  std::vector<NetViewer> endpoints(static_cast<std::size_t>(viewers));
  std::deque<crsim::Task> tasks;
  NetShared shared;
  shared.env = MakeClientEnv(bed->kernel, bed->cras_server, spans, names, config, &out);
  shared.forward = &forward;
  shared.group_sender = &group_sender;
  shared.tasks = &tasks;

  for (int i = 0; i < viewers; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const bool grouped = i < kGroupViewers;
    const int title = grouped ? out.hot_title : 1 + (i - kGroupViewers);
    out.viewers[slot].title = title;
    tasks.push_back(SpawnNetViewer(
        &shared, &out.titles[static_cast<std::size_t>(title)],
        title_inodes[static_cast<std::size_t>(title)],
        grouped ? group_arrivals[slot] : unicast_arrivals[slot - kGroupViewers], grouped,
        &endpoints[slot], &out.viewers[slot]));
  }
  tasks.push_back(SpawnBackgroundReader(bed->kernel, bed->unix_server, cat_file.inode,
                                        cat_file.index.total_bytes(), kRunLength,
                                        &out.background_bytes, &out.background_errors));

  RunTimed(bed->engine(), kRunLength, spans, names, &result.times);
  out.sim_seconds = crbase::ToSeconds(kRunLength);

  {
    ScopedSpan collect(spans, names.collect);
    for (const crmedia::ChunkIndex& title : out.titles) {
      out.worst_rate = std::max(out.worst_rate, title.WorstRate(options.cras.interval));
      out.disk_bytes_bound += title.total_bytes();
    }
    out.has_link = true;
    out.link_bytes_sent = forward.stats().bytes_sent;
    out.mcast_chunks_sent = group_sender.stats().chunks_multicast;
    CollectServerSide(bed->kernel, bed->cras_server, bed->unix_server, bed->hub.Snapshot(), &out);
    CollectObs(bed->hub, config, &result);

    std::int64_t group_frames = 0, decode_failed = 0, naks = 0, retransmits = 0, abandoned = 0;
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const NetViewer& e = endpoints[i];
      if (e.group_receiver != nullptr) {
        group_frames += out.viewers[i].frames_played;
        decode_failed += e.group_receiver->stats().repair_decode_failed;
      }
      if (e.nps_receiver != nullptr) {
        naks += e.nps_receiver->stats().naks_sent;
        abandoned += e.nps_receiver->stats().chunks_abandoned;
      }
      if (e.nps_sender != nullptr) {
        retransmits += e.nps_sender->stats().fragments_retransmitted;
      }
    }
    std::map<std::string, double>& m = out.layer;
    m["mcast.repair_packets_per_frame"] =
        group_frames > 0 ? static_cast<double>(group_sender.stats().repair_packets) /
                               static_cast<double>(group_frames)
                         : 0.0;
    m["mcast.repair_decode_failed"] = static_cast<double>(decode_failed);
    m["mcast.deduped_chunk_reads"] = static_cast<double>(group_sender.stats().deduped_chunk_reads);
    m["link.wire_drops"] = static_cast<double>(forward.stats().wire_drops);
    m["link.tx_queue_drops"] = static_cast<double>(forward.stats().tx_queue_drops);
    m["nps.naks_sent"] = static_cast<double>(naks);
    m["nps.retransmits"] = static_cast<double>(retransmits);
    m["nps.chunks_abandoned"] = static_cast<double>(abandoned);
  }
  return result;
}

}  // namespace perfbench
