// Multicast fan-out: server cost of serving one hot title to N viewers,
// per-client unicast with NAK repair vs one grouped delivery with coded
// (XOR parity) repair.
//
// For each fan-out in {1, 4, 16, 64} viewers the bench streams one 30 s
// MPEG1 movie over a shared 1 Gb/s link twice per loss model (1% i.i.d.
// and a Gilbert–Elliott burst chain of the same average loss):
//
//   unicast  — every viewer gets its own CRAS session and NpsSender; the
//              server reads every interval N times from disk and each loss
//              is NAK-repaired per client.
//   grouped  — viewers open with OpenParams::grouped; the server batches
//              them into one delivery group whose single feed session does
//              the disk I/O, the GroupSender multicasts each chunk once
//              (late joiners bridged from the pinned prefix cache), and
//              losses are repaired with multicast XOR parity packets.
//
// Expected shape: unicast server bytes and disk reads grow linearly with N
// while grouped stays near-flat, so the per-delivered-frame cost collapses
// as the group widens. The headline acceptance checks are asserted: at
// 16+ viewers grouped spends strictly fewer server bytes AND disk reads
// per delivered frame than unicast, misses zero frames, and leaves the
// BudgetLedger clean.
//
// Besides the table, the bench writes BENCH_mcast_fanout.json (current
// directory, or the path given with --out <file>).

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/testbed.h"
#include "src/obs/frame_trace.h"
#include "src/obs/ledger.h"
#include "src/mcast/group_manager.h"
#include "src/mcast/group_transport.h"
#include "src/net/link.h"
#include "src/net/nps.h"

namespace {

using crbase::Milliseconds;
using crbase::Seconds;

constexpr crbase::Duration kMovieLength = Seconds(30);
constexpr crbase::Duration kOpenStagger = Milliseconds(50);
constexpr int kDisks = 8;  // admits the full 64-viewer unicast load

struct FanoutPoint {
  int viewers = 0;
  std::string loss_model;  // "iid" or "burst"
  bool grouped = false;
  std::int64_t frames_total = 0;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
  std::int64_t server_bytes_sent = 0;  // shared forward link, repairs included
  std::int64_t disk_reads = 0;         // CRAS read requests actually issued
  std::int64_t repair_packets = 0;     // parity packets / NAK retransmits
  std::int64_t ledger_overruns = 0;
  std::int64_t engine_events = 0;      // simulation cost of the point
  double bytes_per_frame = 0.0;
  double reads_per_frame = 0.0;
  double repairs_per_frame = 0.0;
  // Fleet frame-trace totals across every viewer (and the grouped feed),
  // conservation-checked: stage buckets sum exactly to end-to-end time.
  crobs::StageAttribution attribution;
};

cras::VolumeTestbedOptions RigOptions(bool grouped) {
  cras::VolumeTestbedOptions options;
  options.volume.disks = kDisks;
  options.obs.frames.enabled = true;
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  if (grouped) {
    options.cras.mcast.enabled = true;
    options.cras.cache.enabled = true;
    options.cras.cache.pin_min_score = 0.5;  // the hot title pins its prefix
    options.cras.cache.prefix_length = Seconds(20);
  }
  return options;
}

void ApplyLoss(crnet::Link& link, bool burst) {
  if (burst) {
    // Gilbert–Elliott with the same ~1% average loss as the i.i.d. point:
    // stationary bad-state share 0.005/(0.005+0.3) ≈ 1.6%, loss 0.5 in bad.
    link.SetBurstLoss(/*p_enter_bad=*/0.005, /*p_exit_bad=*/0.3, /*loss_bad=*/0.5);
  }
}

// One viewer endpoint; exactly one of the receiver pairs is populated.
struct Viewer {
  cras::SessionId session = cras::kInvalidSession;
  std::unique_ptr<crnet::Link> reverse;  // per-viewer NAK/report path, clean
  std::unique_ptr<crnet::NpsReceiver> nps_receiver;
  std::unique_ptr<crnet::NpsSender> nps_sender;
  std::unique_ptr<crmcast::GroupReceiver> group_receiver;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
  std::vector<std::int64_t> missed_seqs;
};

// Plays the whole movie on `clock`, counting a frame missed when it is not
// resident at its logical timestamp. Each check sleeps to the exact real
// time the clock reaches the frame (the clock's inverse).
template <typename GetFn>
crsim::Task Player(crrt::ThreadContext& ctx, cras::LogicalClock& clock,
                   const crmedia::MediaFile& movie, crbase::Duration delay, Viewer* viewer,
                   GetFn get) {
  // Playout trails the session clock by a little slack so interval-boundary
  // chunks published exactly at their timestamp cross the wire in time.
  const crbase::Duration playout = delay + Milliseconds(200);
  clock.Start(playout);
  co_await ctx.Sleep(playout);
  std::int64_t seq = 0;
  for (const crmedia::Chunk& chunk : movie.index.chunks()) {
    const crbase::Time due = clock.RealTimeOf(chunk.timestamp);
    CRAS_CHECK(due != crbase::kNever) << "the playout clock never stops here";
    co_await ctx.Sleep(due - ctx.Now());
    if (get(chunk.timestamp)) {
      ++viewer->frames_ok;
    } else {
      ++viewer->frames_missed;
      viewer->missed_seqs.push_back(seq);
    }
    ++seq;
  }
}

FanoutPoint RunPoint(int viewers, bool burst, bool grouped) {
  cras::VolumeTestbed bed(RigOptions(grouped));
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "hot", kMovieLength);
  CRAS_CHECK(movie.ok()) << movie.status().ToString();

  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 125.0e6;  // 1 Gb/s shared segment
  if (!burst) {
    forward_options.impairments.loss_probability = 0.01;
  }
  crnet::Link forward(bed.engine(), forward_options);
  ApplyLoss(forward, burst);

  crmcast::GroupSender group_sender(bed.kernel, bed.cras_server, forward);
  std::vector<Viewer> fleet(static_cast<std::size_t>(viewers));
  std::vector<crsim::Task> tasks;
  tasks.reserve(fleet.size() * 3);

  for (int i = 0; i < viewers; ++i) {
    Viewer* viewer = &fleet[static_cast<std::size_t>(i)];
    viewer->reverse = std::make_unique<crnet::Link>(bed.engine());
    const crbase::Duration open_at = kOpenStagger * i;
    tasks.push_back(bed.kernel.Spawn(
        "viewer", crrt::kPriorityClient,
        [&, open_at, viewer](crrt::ThreadContext& ctx) -> crsim::Task {
          co_await ctx.Sleep(open_at);
          cras::OpenParams params;
          params.inode = movie->inode;
          params.index = movie->index;
          params.grouped = grouped;
          auto opened = co_await bed.cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok()) << opened.status().ToString();
          viewer->session = *opened;
          const crbase::Duration delay = bed.cras_server.SuggestedInitialDelay();
          if (grouped) {
            viewer->group_receiver =
                std::make_unique<crmcast::GroupReceiver>(bed.kernel, &movie->index);
            group_sender.AddMember(viewer->session, *viewer->group_receiver);
            viewer->group_receiver->ConnectReverse(*viewer->reverse, group_sender,
                                                   viewer->session);
            tasks.push_back(viewer->group_receiver->Start());
            (void)co_await bed.cras_server.StartStream(viewer->session, delay);
            co_await Player(ctx, viewer->group_receiver->clock(), *movie, delay, viewer,
                            [&](crbase::Time t) {
                              return viewer->group_receiver->Get(t).has_value();
                            });
            viewer->group_receiver->Stop();
          } else {
            viewer->nps_receiver = std::make_unique<crnet::NpsReceiver>(bed.kernel);
            viewer->nps_sender = std::make_unique<crnet::NpsSender>(
                bed.kernel, bed.cras_server, forward, *viewer->nps_receiver);
            viewer->nps_receiver->ConnectReverse(*viewer->reverse, *viewer->nps_sender);
            (void)co_await bed.cras_server.StartStream(viewer->session, delay);
            tasks.push_back(viewer->nps_sender->Start(viewer->session, &movie->index));
            co_await Player(ctx, viewer->nps_receiver->clock(), *movie, delay, viewer,
                            [&](crbase::Time t) {
                              return viewer->nps_receiver->Get(t).has_value();
                            });
          }
        }));
  }

  if (grouped) {
    // Let the first open land and found the group, then start its feed.
    bed.engine().RunFor(Milliseconds(20));
    crmcast::GroupManager* mgr = bed.cras_server.mcast_groups();
    CRAS_CHECK(mgr != nullptr);
    CRAS_CHECK(fleet[0].session != cras::kInvalidSession);
    const crmcast::GroupId group = mgr->GroupOf(fleet[0].session);
    CRAS_CHECK(group != crmcast::kNoGroup);
    tasks.push_back(group_sender.Start(group, &movie->index));
  }
  bed.engine().RunFor(kMovieLength + kOpenStagger * viewers + Seconds(15));

  FanoutPoint point;
  point.viewers = viewers;
  point.loss_model = burst ? "burst" : "iid";
  point.grouped = grouped;
  point.frames_total = static_cast<std::int64_t>(movie->index.count()) * viewers;
  for (std::size_t vi = 0; vi < fleet.size(); ++vi) {
    const Viewer& viewer = fleet[vi];
    point.frames_ok += viewer.frames_ok;
    point.frames_missed += viewer.frames_missed;
    // Per-miss diagnostics for the grouped path only: grouped misses are a
    // CHECK failure, so name the viewer/seq; unicast misses are the baseline.
    for (std::int64_t seq : grouped ? viewer.missed_seqs : std::vector<std::int64_t>{}) {
      std::fprintf(stderr, "MISS %s/%s viewer=%zu seq=%lld", point.loss_model.c_str(),
                   point.grouped ? "grouped" : "unicast", vi, (long long)seq);
      if (grouped && viewer.group_receiver != nullptr) {
        const crmcast::GroupReceiverStats& rs = viewer.group_receiver->stats();
        std::fprintf(stderr,
                     " [rx chunks=%lld abandoned=%lld decodes=%lld failed=%lld rtx=%lld]"
                     " [tx demoted=%lld rtx_abandoned=%lld skipped=%lld]",
                     (long long)rs.chunks_received, (long long)rs.chunks_abandoned,
                     (long long)rs.repair_decodes, (long long)rs.repair_decode_failed,
                     (long long)rs.retransmitted_fragments,
                     (long long)group_sender.stats().members_demoted,
                     (long long)group_sender.stats().retransmits_abandoned,
                     (long long)group_sender.stats().chunks_skipped);
      }
      std::fprintf(stderr, "\n");
    }
  }
  CRAS_CHECK(point.frames_ok + point.frames_missed == point.frames_total)
      << "a player did not finish; lengthen the drain";
  point.server_bytes_sent = forward.stats().bytes_sent;
  point.disk_reads = bed.cras_server.stats().read_requests;
  if (grouped) {
    point.repair_packets = group_sender.stats().repair_packets;
  } else {
    for (const Viewer& viewer : fleet) {
      point.repair_packets += viewer.nps_sender->stats().fragments_retransmitted;
    }
  }
  if (bed.hub.ledger() != nullptr) {
    point.ledger_overruns = bed.hub.ledger()->overruns();
  }
  point.engine_events = static_cast<std::int64_t>(bed.engine().events_fired());
  point.attribution = bed.hub.frames().Totals();
  CRAS_CHECK(point.attribution.conservation_violations == 0)
      << point.attribution.conservation_violations << " non-monotone frame(s) at "
      << point.loss_model << "/" << (grouped ? "grouped" : "unicast") << "/"
      << viewers << " viewers";
  CRAS_CHECK(point.attribution.unattributed_ns == 0)
      << point.attribution.unattributed_ns << " ns unattributed at "
      << point.loss_model << "/" << (grouped ? "grouped" : "unicast") << "/"
      << viewers << " viewers";
  const double delivered = static_cast<double>(point.frames_ok);
  if (delivered > 0) {
    point.bytes_per_frame = static_cast<double>(point.server_bytes_sent) / delivered;
    point.reads_per_frame = static_cast<double>(point.disk_reads) / delivered;
    point.repairs_per_frame = static_cast<double>(point.repair_packets) / delivered;
  }
  return point;
}

void WriteJson(const std::string& path, const std::vector<FanoutPoint>& points) {
  std::ofstream out(path);
  CRAS_CHECK(out.good()) << "cannot write " << path;
  out << "{\n"
      << "  \"bench\": \"mcast_fanout\",\n"
      << "  \"stream\": \"MPEG1 1.5 Mb/s, one hot title\",\n"
      << "  \"link\": \"1 Gb/s shared, 1% avg loss (iid and Gilbert-Elliott)\",\n"
      << "  \"disks\": " << kDisks << ",\n"
      << "  \"movie_seconds\": " << kMovieLength / Seconds(1) << ",\n"
      << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FanoutPoint& p = points[i];
    out << "    {\"viewers\": " << p.viewers << ", \"loss_model\": \"" << p.loss_model
        << "\", \"grouped\": " << (p.grouped ? "true" : "false")
        << ", \"frames_total\": " << p.frames_total << ", \"frames_ok\": " << p.frames_ok
        << ", \"frames_missed\": " << p.frames_missed
        << ", \"server_bytes_sent\": " << p.server_bytes_sent
        << ", \"disk_reads\": " << p.disk_reads
        << ", \"repair_packets\": " << p.repair_packets
        << ", \"bytes_per_frame\": " << p.bytes_per_frame
        << ", \"reads_per_frame\": " << p.reads_per_frame
        << ", \"repairs_per_frame\": " << p.repairs_per_frame
        << ", \"ledger_overruns\": " << p.ledger_overruns
        << ", \"engine_events\": " << p.engine_events
        << ",\n     \"frames_resolved\": " << p.attribution.frames_resolved()
        << ", \"unattributed_ns\": " << p.attribution.unattributed_ns
        << ", \"bucket_mean_ms\": {";
    for (int b = 0; b < crobs::kStageBucketCount; ++b) {
      const auto bucket = static_cast<crobs::StageBucket>(b);
      out << (b > 0 ? ", " : "") << "\"" << crobs::StageBucketName(bucket)
          << "\": " << p.attribution.MeanBucketMs(bucket);
    }
    out << "}}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = crbench::BenchInit(argc, argv);
  std::string json_path = "BENCH_mcast_fanout.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") {
      json_path = argv[i + 1];
    }
  }

  crstats::PrintBanner("Multicast fan-out: grouped coded repair vs per-client unicast");
  crstats::Table table({"viewers", "loss", "mode", "frames", "missed", "srv_MB",
                        "disk_reads", "repairs", "B/frame", "reads/frame", "overruns",
                        "events"});
  table.SetCsv(csv);

  const int fanouts[] = {1, 4, 16, 64};
  std::vector<FanoutPoint> points;
  for (bool burst : {false, true}) {
    for (int viewers : fanouts) {
      for (bool grouped : {false, true}) {
        FanoutPoint p = RunPoint(viewers, burst, grouped);
        table.Cell(static_cast<std::int64_t>(p.viewers))
            .Cell(p.loss_model)
            .Cell(p.grouped ? "grouped" : "unicast")
            .Cell(p.frames_total)
            .Cell(p.frames_missed)
            .Cell(static_cast<double>(p.server_bytes_sent) / (1024.0 * 1024.0))
            .Cell(p.disk_reads)
            .Cell(p.repair_packets)
            .Cell(p.bytes_per_frame)
            .Cell(p.reads_per_frame, 3)
            .Cell(p.ledger_overruns)
            .Cell(p.engine_events);
        table.EndRow();
        points.push_back(p);
      }
    }
  }
  table.Print();

  // Where each configuration's latency lives: grouped members anchor at the
  // multicast send (no per-viewer disk work), so their rows concentrate in
  // wire/repair/playout; unicast rows carry the full disk-to-playout path.
  crstats::PrintBanner("Per-stage latency attribution (mean ms per resolved frame)");
  crstats::Table attr({"viewers", "loss", "mode", "resolved", "disk_q", "disk_svc",
                       "buf_wait", "wire", "repair_ms", "playout", "e2e"});
  attr.SetCsv(csv);
  for (const FanoutPoint& p : points) {
    const crobs::StageAttribution& a = p.attribution;
    attr.Cell(static_cast<std::int64_t>(p.viewers))
        .Cell(p.loss_model)
        .Cell(p.grouped ? "grouped" : "unicast")
        .Cell(a.frames_resolved())
        .Cell(a.MeanBucketMs(crobs::StageBucket::kDiskQueue), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kDiskService), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kBufferWait), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kWire), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kRepair), 2)
        .Cell(a.MeanBucketMs(crobs::StageBucket::kPlayoutSlack), 2)
        .Cell(a.MeanEndToEndMs(), 2);
    attr.EndRow();
  }
  attr.Print();

  // Headline criteria: at 16+ viewers, under both loss models, grouped
  // delivery beats unicast on server bytes AND disk reads per delivered
  // frame, misses nothing, and the ledger stays clean.
  auto find = [&](int viewers, const std::string& loss, bool grouped) -> const FanoutPoint* {
    for (const FanoutPoint& p : points) {
      if (p.viewers == viewers && p.loss_model == loss && p.grouped == grouped) {
        return &p;
      }
    }
    return nullptr;
  };
  for (const std::string loss : {"iid", "burst"}) {
    for (int viewers : {16, 64}) {
      const FanoutPoint* unicast = find(viewers, loss, false);
      const FanoutPoint* grouped = find(viewers, loss, true);
      CRAS_CHECK(unicast != nullptr && grouped != nullptr);
      CRAS_CHECK(grouped->bytes_per_frame < unicast->bytes_per_frame)
          << loss << "@" << viewers << ": grouped " << grouped->bytes_per_frame
          << " B/frame vs unicast " << unicast->bytes_per_frame;
      CRAS_CHECK(grouped->reads_per_frame < unicast->reads_per_frame)
          << loss << "@" << viewers << ": grouped " << grouped->reads_per_frame
          << " reads/frame vs unicast " << unicast->reads_per_frame;
      CRAS_CHECK(grouped->frames_missed == 0)
          << loss << "@" << viewers << ": grouped missed " << grouped->frames_missed;
      CRAS_CHECK(grouped->ledger_overruns == 0)
          << loss << "@" << viewers << ": " << grouped->ledger_overruns
          << " budget overruns";
    }
  }
  std::printf("\nAt 16 and 64 viewers: grouped < unicast on server bytes and disk reads "
              "per frame, zero grouped misses, clean ledger (checks passed).\n");

  std::int64_t events = 0;
  for (const FanoutPoint& p : points) {
    events += p.engine_events;
  }
  std::printf("Engine events over all points: %lld\n", static_cast<long long>(events));

  WriteJson(json_path, points);
  std::printf("Wrote %s\n", json_path.c_str());
  return 0;
}
