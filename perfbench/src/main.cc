// Entry point of the CRAS benchmark.
//
//   cras_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>]
//   cras_perfbench --selftest [--seed <n>]
//
// Repeats whole rounds of one workload at one seed until --seconds of wall
// time are spent, then prints the behaviour digest and, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and reports the per-layer metrics, including the
// tracing overhead. --selftest feeds every check a deliberately corrupted
// result and fails unless each check notices.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/base/logging.h"
#include "src/volume/volume_admission.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  RoundResult (*run)(const RoundConfig&, SpanRecorder&);
};

constexpr Workload kWorkloads[] = {
    {"striped_vod", RunStripedVod},
    {"hot_title_fanout", RunHotTitleFanout},
    {"zipf_churn", RunZipfChurn},
};

// Per-layer metrics, in report order, with their units.
struct MetricDef {
  const char* name;
  const char* unit;
};
constexpr MetricDef kLayerMetrics[] = {
    {"sim.events_per_sim_s", "1/s"},
    {"sim.host_ns_per_event", "ns"},
    {"rtmach.cpu_busy_pct", "%"},
    {"disk.busy_pct", "%"},
    {"disk.service_ms_p50", "ms"},
    {"driver.rt_queue_ms_p99", "ms"},
    {"driver.nr_queue_ms_p50", "ms"},
    {"volume.member_skew", "ratio"},
    {"ledger.overruns", "count"},
    {"ledger.command_util_pct_max", "%"},
    {"ledger.seek_util_pct_mean", "%"},
    {"admission.host_us_per_decision", "us"},
    {"ufs.media_write_ms", "ms"},
    {"ufs.background_blocks", "count"},
    {"cras.bytes_per_read_request", "B"},
    {"cras.deadline_slack_ms_p1", "ms"},
    {"cras.deadline_misses", "count"},
    {"buffer.discarded", "count"},
    {"control.open_ms_p50", "ms"},
    {"client.get_calls_per_frame", "ratio"},
    {"client.host_ns_per_get", "ns"},
    {"cache.hit_share", "ratio"},
    {"cache.bytes_from_cache_share", "ratio"},
    {"cache.pairs_formed", "count"},
    {"cache.pairs_broken", "count"},
    {"cache.fallbacks", "count"},
    {"mcast.repair_packets_per_frame", "ratio"},
    {"mcast.repair_decode_failed", "count"},
    {"mcast.deduped_chunk_reads", "count"},
    {"link.wire_drops", "count"},
    {"link.tx_queue_drops", "count"},
    {"nps.naks_sent", "count"},
    {"nps.retransmits", "count"},
    {"nps.chunks_abandoned", "count"},
    {"frame.disk_queue_ms", "ms"},
    {"frame.disk_service_ms", "ms"},
    {"frame.buffer_wait_ms", "ms"},
    {"frame.wire_ms", "ms"},
    {"frame.repair_ms", "ms"},
    {"frame.playout_slack_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_dropped_events", "count"},
};

constexpr MetricDef kEndToEndMetrics[] = {
    {"admitted_streams", "count"},     {"ontime_mbps", "MB/s"},
    {"background_mbps", "MB/s"},       {"startup_ms_p50", "ms"},
    {"startup_ms_p90", "ms"},          {"server_bytes_per_frame", "B"},
    {"sim_speed", "sim_s/s"},          {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "cras_perfbench: %s\n"
               "usage: cras_perfbench --workload <striped_vod|hot_title_fanout|zipf_churn>"
               " --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n"
               "       cras_perfbench --selftest [--seed <n>]\n",
               problem.c_str());
  std::exit(2);
}

// Strict unsigned decimal: digits only, no sign, no trailing characters.
bool ParseUnsigned(const std::string& text, std::uint64_t max, std::uint64_t* value) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (max - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 0;
  int trace = -1;
  std::string spans_out;
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace" &&
        flag != "--spans-out") {
      Usage("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) {
      Usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        Usage("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &args.seed)) {
        Usage("malformed seed '" + value + "'");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 3600, &args.seconds) || args.seconds == 0) {
        Usage("--seconds wants a whole number from 1 to 3600, got '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace wants 0 or 1, got '" + value + "'");
      }
      args.trace = value == "1" ? 1 : 0;
    } else {
      args.spans_out = value;
    }
  }
  if (args.selftest) {
    if (args.workload != nullptr || args.seconds != 0 || args.trace >= 0) {
      Usage("--selftest takes only --seed");
    }
    return args;
  }
  if (args.workload == nullptr || !have_seed || args.seconds == 0 || args.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return args;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Host time per admission decision: the round's demand sets replayed
// through a fresh VolumeAdmissionModel, in passes until 50 ms are spent.
double AdmissionHostUsPerDecision(const Outputs& out) {
  if (out.admission.sets.empty()) {
    return 0;
  }
  const crvol::VolumeAdmissionModel model(out.disk_params, out.disks, out.interval,
                                          out.max_read_bytes, out.stripe_unit_bytes);
  std::int64_t decisions = 0;
  std::int64_t admitted = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  do {
    for (const std::vector<cras::StreamDemand>& set : out.admission.sets) {
      admitted += model.Admissible(set, out.memory_budget_bytes) ? 1 : 0;
      ++decisions;
    }
    elapsed = SecondsSince(start);
  } while (elapsed < 0.05);
  std::fprintf(stderr, "admission replay: %" PRId64 " decisions, %" PRId64 " admitted\n",
               decisions, admitted);
  return elapsed * 1e6 / static_cast<double>(decisions);
}

// A fixed CPU load that does not depend on the program under test: a
// discrete-event loop over a binary heap of timestamps with small heap
// allocations and indirect calls, the kinds of work the simulator does. Its
// CPU time, taken after every round, says how fast the host ran just then.
double ReferenceCpuSeconds() {
  struct Event {
    std::uint64_t t;
    std::uint32_t id;
    bool operator>(const Event& o) const { return t > o.t || (t == o.t && id > o.id); }
  };
  using Callback = std::function<std::uint64_t(std::uint64_t)>;
  const double start = CpuSeconds();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  std::map<std::uint32_t, std::unique_ptr<Callback>> live;
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint32_t kLive = 4096;
  constexpr std::uint32_t kSteps = 100000;
  for (std::uint32_t i = 0; i < kLive; ++i) {
    heap.push({next() % 100000, i});
    live[i] = std::make_unique<Callback>([i](std::uint64_t v) { return v * 31 + i; });
  }
  for (std::uint32_t k = 0; k < kSteps; ++k) {
    const Event e = heap.top();
    heap.pop();
    auto it = live.find(e.id);
    acc = (*it->second)(acc ^ e.t);
    live.erase(it);
    const std::uint32_t id = kLive + k;
    live[id] = std::make_unique<Callback>([id](std::uint64_t v) { return v * 17 + id; });
    heap.push({e.t + 1 + next() % 1000, id});
  }
  const double elapsed = CpuSeconds() - start;
  if (acc == 0) {  // uses the result, so the compiler cannot drop the loop
    std::fprintf(stderr, "reference load: zero checksum\n");
  }
  return elapsed;
}

// CPU seconds ReferenceCpuSeconds() takes on the host the README's
// reference figures come from (4 cores, 2.1 GHz). Host times are reported
// scaled to that speed: t * kReferenceS / (reference time measured now).
// On a shared host whose speed drifts by a fifth from minute to minute, the
// scaled times drift far less.
constexpr double kReferenceS = 0.040;

double Scaled(double seconds, double reference_s) {
  return seconds * kReferenceS / reference_s;
}

struct RoundLog {
  RoundResult result;
  std::map<std::string, double> end_to_end;  // simulated end-to-end metrics
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  std::map<std::string, SpanRecorder::NameTotals> spans;
  std::unique_ptr<SpanRecorder> recorder;  // kept for the latest traced round
  double reference_s = 0;  // ReferenceCpuSeconds() right after the round
};

RoundLog RunRound(const Workload& workload, std::uint64_t seed, bool traced) {
  RoundLog log;
  log.recorder = std::make_unique<SpanRecorder>(traced);
  SpanRecorder& spans = *log.recorder;
  RoundConfig config;
  config.seed = seed;
  config.traced = traced;
  log.result = workload.run(config, spans);
  log.end_to_end = SimulatedEndToEnd(log.result.out);
  log.digest = Digest(log.result.out);
  log.failures = Check(log.result.out);
  if (traced) {
    log.spans = spans.Totals();
  }
  log.reference_s = ReferenceCpuSeconds();
  std::fprintf(stderr,
               "round %-16s seed=%" PRIu64 " traced=%d setup_s=%.4f run_s=%.4f ref_s=%.4f events=%" PRIu64
               " digest=%016" PRIx64 " %s\n",
               workload.name, seed, traced ? 1 : 0, log.result.times.setup_s,
               log.result.times.run_s, log.reference_s, log.result.times.events, log.digest,
               log.failures.empty() ? "ok" : "CHECK FAILED");
  for (const std::string& f : log.failures) {
    std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  }
  return log;
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.name, metrics[i].second, metrics[i].first.unit);
  }
  std::printf("}}\n");
}

int RunBenchmark(const Args& args) {
  const Workload& workload = *args.workload;
  const bool per_layer = args.trace == 1;
  const Clock::time_point start = Clock::now();
  std::vector<RoundLog> untraced, traced;
  bool correct = true;
  std::int64_t attempted = 0, failed = 0;
  // Whole rounds until the wall-time budget is spent; the per-layer mode
  // alternates untraced and traced rounds so both see the same host state.
  do {
    std::vector<RoundLog>& into = per_layer && untraced.size() > traced.size() ? traced : untraced;
    into.push_back(RunRound(workload, args.seed, &into == &traced));
    RoundLog& round = into.back();
    correct = correct && round.failures.empty();
    attempted += Attempted(round.result.out);
    failed += Failed(round.result.out);
    // Frame records and demand sets are kept for the first and the latest
    // round only.
    if (into.size() > 2) {
      RoundLog& older = into[into.size() - 2];
      older.result.out.viewers.clear();
      older.result.out.titles.clear();
      older.result.out.admission = {};
      older.recorder.reset();
    }
  } while (SecondsSince(start) < static_cast<double>(args.seconds) ||
           (per_layer && traced.empty()));

  // Simulated outputs must repeat exactly, round after round, and tracing
  // must not change them.
  for (const std::vector<RoundLog>* rounds : {&untraced, &traced}) {
    for (const RoundLog& r : *rounds) {
      if (r.digest != untraced.front().digest) {
        std::fprintf(stderr, "behaviour digest differs between rounds of one seed\n");
        correct = false;
      }
    }
  }
  const RoundLog& first = untraced.front();
  std::printf("workload %s seed %" PRIu64 " rounds %zu+%zu\n", workload.name, args.seed,
              untraced.size(), traced.size());
  std::printf("digest %016" PRIx64 "\n", first.digest);
  std::int64_t opens = 0, admitted = 0;
  for (const ViewerRecord& v : first.result.out.viewers) {
    opens += v.arrived ? 1 : 0;
    admitted += v.admitted ? 1 : 0;
  }
  std::printf("viewer opens %" PRId64 ": admitted %" PRId64 ", refused %" PRId64 "\n", opens,
              admitted, opens - admitted);

  // Host figures: the first round warms caches and the allocator and is
  // left out when there are others; each round's CPU times are scaled by
  // the reference load measured right after it.
  std::vector<double> sim_speed, setup_s, ns_per_event, run_s, media_ms;
  for (std::size_t i = untraced.size() > 1 ? 1 : 0; i < untraced.size(); ++i) {
    const RoundLog& r = untraced[i];
    const RoundTimes& t = r.result.times;
    const double run = Scaled(t.run_s, r.reference_s);
    sim_speed.push_back(r.result.out.sim_seconds / run);
    setup_s.push_back(Scaled(t.setup_s, r.reference_s));
    ns_per_event.push_back(run * 1e9 / static_cast<double>(t.events));
    run_s.push_back(run);
    media_ms.push_back(Scaled(t.media_write_s, r.reference_s) * 1e3);
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!per_layer) {
    const std::map<std::string, double>& sim = first.end_to_end;
    for (const MetricDef& def : kEndToEndMetrics) {
      const std::string name = def.name;
      double value = 0;
      if (name == "sim_speed") {
        value = Median(sim_speed);
      } else if (name == "setup_s") {
        value = Median(setup_s);
      } else if (name == "peak_rss_mib") {
        value = PeakRssMib();
      } else {
        value = sim.at(name);
      }
      metrics.push_back({def, value});
    }
  } else {
    const RoundLog& last = traced.back();
    std::map<std::string, double> layer = last.result.out.layer;
    layer["sim.events_per_sim_s"] = first.result.out.layer.at("sim.events_per_sim_s");
    layer["sim.host_ns_per_event"] = Median(ns_per_event);
    layer["ufs.media_write_ms"] = Median(media_ms);
    layer["admission.host_us_per_decision"] = AdmissionHostUsPerDecision(last.result.out);
    std::vector<double> ns_per_get, traced_run_s;
    std::int64_t dropped = 0;
    for (const RoundLog& r : traced) {
      const auto it = r.spans.find("client.get");
      if (it != r.spans.end() && it->second.calls > 0) {
        ns_per_get.push_back(static_cast<double>(it->second.total_ns) /
                             static_cast<double>(it->second.calls));
      }
      traced_run_s.push_back(Scaled(r.result.times.run_s, r.reference_s));
      dropped = std::max(dropped, r.result.trace_dropped_events);
    }
    layer["client.host_ns_per_get"] = Median(ns_per_get);
    layer["obs.trace_overhead_pct"] = 100.0 * (Median(traced_run_s) / Median(run_s) - 1.0);
    layer["obs.trace_dropped_events"] = static_cast<double>(dropped);
    std::printf("traced digest %016" PRIx64 "\n", last.digest);
    if (!args.spans_out.empty() && !last.recorder->WriteChromeTrace(args.spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
    }
    std::printf("span self time (last traced round):\n");
    for (const auto& [name, t] : last.spans) {
      std::printf("  %-18s calls=%-8" PRId64 " total_ms=%-10.3f self_ms=%.3f\n", name.c_str(),
                  t.calls, static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    }
    for (const MetricDef& def : kLayerMetrics) {
      const auto it = layer.find(def.name);
      // A layer the workload does not exercise reports zero work.
      metrics.push_back({def, it != layer.end() ? it->second : 0.0});
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  return 0;
}

// Feeds each check a corrupted copy of a real round's outputs; every
// corruption must be caught, and the uncorrupted outputs must pass.
int SelfTest(std::uint64_t seed) {
  int problems = 0;
  auto expect = [&problems](bool ok, const std::string& what) {
    std::printf("%-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    problems += ok ? 0 : 1;
  };
  for (const Workload& workload : kWorkloads) {
    SpanRecorder spans(false);
    RoundConfig config;
    config.seed = seed;
    const Outputs clean = workload.run(config, spans).out;
    const std::string name = workload.name;
    expect(Check(clean).empty(), name + ": uncorrupted outputs pass");

    std::size_t victim = 0;
    while (victim < clean.viewers.size() && clean.viewers[victim].frames_played == 0) {
      ++victim;
    }
    if (victim == clean.viewers.size()) {
      expect(false, name + ": a viewer played frames");
      continue;
    }
    const ViewerRecord& good = clean.viewers[victim];
    const std::size_t last_played = static_cast<std::size_t>(
        std::find(good.played.rbegin(), good.played.rend(), true) - good.played.rbegin());
    const std::size_t frame = good.played.size() - 1 - last_played;
    const std::int64_t chunk =
        clean.titles[static_cast<std::size_t>(good.title)].at(frame).size;
    {
      Outputs bad = clean;
      bad.viewers[victim].bytes -= chunk;
      expect(!Check(bad).empty(), name + ": a viewer's bytes one chunk short is caught");
    }
    {
      // The frame vanishes from every count: not played, not missed.
      Outputs bad = clean;
      ViewerRecord& v = bad.viewers[victim];
      --v.frames_played;
      v.played[frame] = false;
      v.bytes -= chunk;
      expect(!Check(bad).empty(),
             name + ": a frame counted neither played nor missed is caught");
    }
    if (clean.has_cache) {
      Outputs bad = clean;
      bad.interval_pool_used_end += 64 * 1024;
      expect(!Check(bad).empty(), name + ": a cache reservation left unreleased is caught");
    }
  }
  std::printf("%s\n", problems == 0 ? "selftest passed" : "selftest FAILED");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (!crbase::SetLogLevelFromEnv()) {
    // Refusals and shed streams are expected; keep per-event logs quiet.
    crbase::SetLogLevel(crbase::LogLevel::kError);
  }
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return args.selftest ? perfbench::SelfTest(args.seed) : perfbench::RunBenchmark(args);
}
