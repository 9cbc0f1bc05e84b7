// zipf_churn: the paper's single ST32550N disk with a 96 MiB stream cache.
// Open-loop arrivals pick one of 16 titles by Zipf(1.0), watch for a seeded
// random length and close, so more is offered than the server can carry.
// Interval pairs form and break, followers are demoted and re-settled, and
// admission runs again on every open and close.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/workload_util.h"
#include "src/base/random.h"
#include "src/core/testbed.h"

namespace perfbench {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

constexpr int kTitles = 16;
constexpr double kZipfAlpha = 1.0;
constexpr int kArrivals = 900;
// Stratification block: every run of 100 consecutive arrivals carries the
// full Zipf mix and the full range of watch lengths.
constexpr int kBlock = 100;
constexpr crbase::Duration kArrivalGap = Milliseconds(290);  // ~3.4 opens/s
constexpr crbase::Duration kMinWatch = Seconds(20);
constexpr crbase::Duration kMaxWatch = Seconds(60);
constexpr crbase::Duration kTitleLength = kMaxWatch + Seconds(2);
constexpr std::int64_t kCacheBytes = 96 * crbase::kMiB;

// Title of each of `n` arrivals, title k (0-based) appearing in proportion
// to 1/(k+1)^alpha, rounded by largest remainder so the counts sum to n.
std::vector<int> ZipfShares(int titles, double alpha, int n) {
  std::vector<double> weight(static_cast<std::size_t>(titles));
  double total = 0;
  for (int k = 0; k < titles; ++k) {
    weight[static_cast<std::size_t>(k)] = 1.0 / std::pow(k + 1.0, alpha);
    total += weight[static_cast<std::size_t>(k)];
  }
  std::vector<int> count(static_cast<std::size_t>(titles));
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (int k = 0; k < titles; ++k) {
    const double exact = n * weight[static_cast<std::size_t>(k)] / total;
    count[static_cast<std::size_t>(k)] = static_cast<int>(exact);
    assigned += count[static_cast<std::size_t>(k)];
    remainder.push_back({exact - count[static_cast<std::size_t>(k)], k});
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (int r = 0; assigned < n; ++r, ++assigned) {
    ++count[static_cast<std::size_t>(remainder[static_cast<std::size_t>(r)].second)];
  }
  std::vector<int> picks;
  for (int k = 0; k < titles; ++k) {
    picks.insert(picks.end(), static_cast<std::size_t>(count[static_cast<std::size_t>(k)]), k);
  }
  return picks;
}

// Fisher–Yates with the workload's generator.
template <typename T>
void Shuffle(crbase::Rng& rng, std::vector<T>* v) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBelow(i)]);
  }
}

}  // namespace

RoundResult RunZipfChurn(const RoundConfig& config, SpanRecorder& spans) {
  const SpanNames names(spans);
  RoundResult result;
  Outputs& out = result.out;
  out.workload = "zipf_churn";

  // Inputs, all drawn from the seed: the titles, then an open-loop arrival
  // trace (one arrival per 290 ms slot, at a uniform offset within it).
  // Title picks and watch lengths are stratified: in every block of 100
  // arrivals each title gets its Zipf(1.0) share, and the watch lengths
  // cover [20 s, 60 s) evenly, both in seeded random order. The seed then
  // moves who arrives when, not how much load is offered, so the figures of
  // two seeds differ by the server's response to order and timing. The titles'
  // contents are generated as part of writing the media, in set-up.
  crbase::Rng arrival_rng(MixSeed(config.seed, 2));
  std::vector<crbase::Time> arrivals;
  for (int i = 0; i < kArrivals; ++i) {
    arrivals.push_back(kArrivalGap * i + Jitter(arrival_rng, kArrivalGap));
  }
  crbase::Rng pick_rng(MixSeed(config.seed, 3));
  crbase::Rng watch_rng(MixSeed(config.seed, 4));
  std::vector<int> picks;
  std::vector<crbase::Duration> watches;
  const crbase::Duration watch_span = kMaxWatch - kMinWatch;
  for (int block = 0; block < kArrivals / kBlock; ++block) {
    std::vector<int> block_picks = ZipfShares(kTitles, kZipfAlpha, kBlock);
    Shuffle(pick_rng, &block_picks);
    picks.insert(picks.end(), block_picks.begin(), block_picks.end());
    std::vector<crbase::Duration> block_watches;
    for (int i = 0; i < kBlock; ++i) {
      block_watches.push_back(kMinWatch + watch_span * i / kBlock +
                              Jitter(watch_rng, watch_span / kBlock));
    }
    Shuffle(watch_rng, &block_watches);
    watches.insert(watches.end(), block_watches.begin(), block_watches.end());
  }
  // The last arrival, plus start-up, the longest watch, and the close.
  const crbase::Duration run_length = arrivals.back() + Seconds(3) + kMaxWatch;

  cras::TestbedOptions options;
  // Generous wired budget: the cache, not stream buffers, binds.
  options.cras.memory_budget_bytes = 256 * crbase::kMiB;
  options.cras.cache.enabled = true;
  options.cras.cache.prefix_length = Seconds(12);
  options.cras.cache.prefix_pool_bytes = kCacheBytes * 3 / 8;
  options.cras.cache.interval_pool_bytes = kCacheBytes * 5 / 8;
  ConfigureObs(config, &options.obs);

  const double setup_start = CpuSeconds();
  std::unique_ptr<cras::Testbed> bed;
  std::vector<crufs::InodeNumber> title_inodes;
  crmedia::MediaFile cat_file;
  {
    ScopedSpan setup(spans, names.setup);
    {
      ScopedSpan rig(spans, names.setup_rig);
      bed = std::make_unique<cras::Testbed>(options);
      bed->StartServers();
    }
    const double media_start = CpuSeconds();
    ScopedSpan media(spans, names.setup_media);
    crbase::Rng title_rng(MixSeed(config.seed, 1));
    for (int i = 0; i < kTitles; ++i) {
      out.titles.push_back(VbrTitle(kTitleLength, title_rng));
      title_inodes.push_back(WriteTitle(bed->fs, "title" + std::to_string(i), out.titles.back()));
    }
    cat_file = WriteCatFile(bed->fs, "catfood");
    result.times.media_write_s = (CpuSeconds() - media_start);
  }
  result.times.setup_s = (CpuSeconds() - setup_start);
  out.wired_bytes_start = bed->kernel.wired_bytes();

  out.viewers.resize(kArrivals);
  const ClientEnv env = MakeClientEnv(bed->kernel, bed->cras_server, spans, names, config, &out);

  std::vector<crsim::Task> tasks;
  for (int i = 0; i < kArrivals; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const auto title = static_cast<std::size_t>(picks[slot]);
    out.viewers[slot].title = picks[slot];
    tasks.push_back(SpawnLocalViewer(env, &out.titles[title], title_inodes[title], arrivals[slot],
                                     watches[slot], nullptr, &out.viewers[slot]));
  }
  tasks.push_back(SpawnBackgroundReader(bed->kernel, bed->unix_server, cat_file.inode,
                                        cat_file.index.total_bytes(), run_length,
                                        &out.background_bytes, &out.background_errors));

  RunTimed(bed->engine(), run_length, spans, names, &result.times);
  out.sim_seconds = crbase::ToSeconds(run_length);

  {
    ScopedSpan collect(spans, names.collect);
    for (const crmedia::ChunkIndex& title : out.titles) {
      out.worst_rate = std::max(out.worst_rate, title.WorstRate(options.cras.interval));
    }
    CollectServerSide(bed->kernel, bed->cras_server, bed->unix_server, bed->hub.Snapshot(), &out);
    CollectObs(bed->hub, config, &result);
  }
  return result;
}

}  // namespace perfbench
