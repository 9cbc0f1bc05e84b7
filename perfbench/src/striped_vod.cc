// striped_vod: an 8-disk striped volume with local clients, no cache and no
// multicast. Viewers of distinct cold titles arrive on a fixed schedule
// until admission refuses one, beside constant-rate recorders and two
// Unix-server `cat` readers. Every byte goes through admission, the interval
// scheduler, volume fan-out and the driver's real-time queue.

#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workload_util.h"
#include "src/core/testbed.h"
#include "src/media/media_file.h"

namespace perfbench {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

constexpr int kDisks = 8;
constexpr int kViewerSlots = 128;  // more than the array admits
constexpr int kRecorders = 4;
constexpr int kReaders = 2;
constexpr crbase::Duration kTitleLength = Seconds(62);
constexpr crbase::Duration kWatch = Seconds(60);
constexpr crbase::Duration kRecordLength = Seconds(60);
constexpr crbase::Duration kFirstArrival = Milliseconds(500);
constexpr crbase::Duration kArrivalGap = Milliseconds(200);
constexpr crbase::Duration kArrivalJitter = Milliseconds(100);
// Last possible arrival, plus start-up, the watch, and the close.
constexpr crbase::Duration kRunLength =
    kFirstArrival + kArrivalGap * kViewerSlots + kArrivalJitter + Seconds(2) + kWatch;

}  // namespace

RoundResult RunStripedVod(const RoundConfig& config, SpanRecorder& spans) {
  const SpanNames names(spans);
  RoundResult result;
  Outputs& out = result.out;
  out.workload = "striped_vod";

  // Inputs, all drawn from the seed. The titles' contents are generated as
  // part of writing the media, in set-up.
  crbase::Rng arrival_rng(MixSeed(config.seed, 2));
  std::vector<crbase::Time> arrivals;
  for (int i = 0; i < kViewerSlots; ++i) {
    arrivals.push_back(kFirstArrival + kArrivalGap * i + Jitter(arrival_rng, kArrivalJitter));
  }

  cras::VolumeTestbedOptions options;
  options.volume.disks = kDisks;
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  ConfigureObs(config, &options.obs);

  const double setup_start = CpuSeconds();
  std::unique_ptr<cras::VolumeTestbed> bed;
  std::vector<crufs::InodeNumber> title_inodes;
  std::vector<crmedia::ChunkIndex> captures;
  std::vector<crufs::InodeNumber> capture_inodes;
  std::vector<crmedia::MediaFile> cat_files;
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
    for (int i = 0; i < kViewerSlots; ++i) {
      out.titles.push_back(VbrTitle(kTitleLength, title_rng));
      title_inodes.push_back(WriteTitle(bed->fs, "title" + std::to_string(i), out.titles.back()));
    }
    for (int i = 0; i < kRecorders; ++i) {
      captures.push_back(VbrTitle(kRecordLength, title_rng));
      capture_inodes.push_back(
          PreallocateCapture(bed->fs, "capture" + std::to_string(i), captures.back()));
    }
    for (int i = 0; i < kReaders; ++i) {
      cat_files.push_back(WriteCatFile(bed->fs, "catfood" + std::to_string(i)));
    }
    result.times.media_write_s = (CpuSeconds() - media_start);
  }
  result.times.setup_s = (CpuSeconds() - setup_start);
  out.wired_bytes_start = bed->kernel.wired_bytes();

  out.viewers.resize(kViewerSlots);
  out.recorders.resize(kRecorders);
  const ClientEnv env = MakeClientEnv(bed->kernel, bed->cras_server, spans, names, config, &out);

  bool refused = false;
  std::vector<crsim::Task> tasks;
  for (int i = 0; i < kRecorders; ++i) {
    tasks.push_back(SpawnRecorder(env, &captures[static_cast<std::size_t>(i)],
                                  capture_inodes[static_cast<std::size_t>(i)],
                                  &out.recorders[static_cast<std::size_t>(i)]));
  }
  for (int i = 0; i < kViewerSlots; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    out.viewers[slot].title = i;
    tasks.push_back(SpawnLocalViewer(env, &out.titles[slot], title_inodes[slot], arrivals[slot],
                                     kWatch, &refused, &out.viewers[slot]));
  }
  for (const crmedia::MediaFile& file : cat_files) {
    tasks.push_back(SpawnBackgroundReader(bed->kernel, bed->unix_server, file.inode,
                                          file.index.total_bytes(), kRunLength,
                                          &out.background_bytes, &out.background_errors));
  }

  RunTimed(bed->engine(), kRunLength, spans, names, &result.times);
  out.sim_seconds = crbase::ToSeconds(kRunLength);

  {
    ScopedSpan collect(spans, names.collect);
    for (const ViewerRecord& v : out.viewers) {
      if (v.admitted) {
        out.worst_rate = std::max(
            out.worst_rate,
            out.titles[static_cast<std::size_t>(v.title)].WorstRate(options.cras.interval));
      }
    }
    for (const crmedia::ChunkIndex& capture : captures) {
      out.worst_rate = std::max(out.worst_rate, capture.WorstRate(options.cras.interval));
    }
    CollectServerSide(bed->kernel, bed->cras_server, bed->unix_server, bed->hub.Snapshot(), &out);
    CollectObs(bed->hub, config, &result);
  }
  return result;
}

}  // namespace perfbench
