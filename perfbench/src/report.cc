// Correctness checks, operation counts, simulated end-to-end metrics, the
// behaviour digest, and the span recorder.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

// Sum of the index's chunk sizes over the frames marked in `played`,
// computed from the index the benchmark generated, independently of
// anything the server reported.
std::int64_t IndexBytes(const crmedia::ChunkIndex& index, const std::vector<bool>& played) {
  std::int64_t bytes = 0;
  for (std::size_t f = 0; f < played.size(); ++f) {
    bytes += played[f] ? index.at(f).size : 0;
  }
  return bytes;
}

std::string Fmt(const char* format, double a, double b = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

std::int64_t AdmittedStreams(const Outputs& out) {
  std::int64_t n = 0;
  for (const ViewerRecord& v : out.viewers) {
    n += v.admitted ? 1 : 0;
  }
  for (const RecorderRecord& r : out.recorders) {
    n += r.admitted ? 1 : 0;
  }
  return n;
}

std::int64_t FramesPlayed(const Outputs& out) {
  std::int64_t n = 0;
  for (const ViewerRecord& v : out.viewers) {
    n += v.frames_played;
  }
  return n;
}

// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void CheckViewers(const Outputs& out, std::vector<std::string>* failures) {
  std::int64_t admitted = 0;
  for (std::size_t i = 0; i < out.viewers.size(); ++i) {
    const ViewerRecord& v = out.viewers[i];
    const std::string who = "viewer " + std::to_string(i) + ": ";
    if (!v.admitted) {
      if (v.frames_played != 0) {
        failures->push_back(who + "played frames without being admitted");
      }
      continue;
    }
    ++admitted;
    const crmedia::ChunkIndex& index = out.titles[static_cast<std::size_t>(v.title)];
    if (v.frames_played + v.frames_missed + v.frames_unplayed != v.frames_due) {
      failures->push_back(who + Fmt("played + missed + unplayed = %.0f, frames due = %.0f",
                                    static_cast<double>(v.frames_played + v.frames_missed +
                                                        v.frames_unplayed),
                                    static_cast<double>(v.frames_due)));
    }
    if (static_cast<std::int64_t>(v.played.size()) != v.frames_due ||
        std::count(v.played.begin(), v.played.end(), true) != v.frames_played) {
      failures->push_back(who + "played-frame map is not the frames counted played");
      continue;
    }
    const std::int64_t expected = IndexBytes(index, v.played);
    if (v.bytes != expected) {
      failures->push_back(who + Fmt("delivered %.0f bytes, the index says %.0f", static_cast<double>(v.bytes),
                                    static_cast<double>(expected)));
    }
    if (v.size_mismatches != 0) {
      failures->push_back(who + Fmt("%.0f frames differ in size from the index",
                                    static_cast<double>(v.size_mismatches)));
    }
  }
  if (admitted == 0) {
    failures->push_back("no viewer was admitted");
  }
}

void CheckRecorders(const Outputs& out, std::vector<std::string>* failures) {
  for (std::size_t i = 0; i < out.recorders.size(); ++i) {
    const RecorderRecord& r = out.recorders[i];
    const std::string who = "recorder " + std::to_string(i) + ": ";
    if (!r.admitted) {
      failures->push_back(who + "not admitted");
      continue;
    }
    if (r.chunks_put != r.chunks_due || r.chunks_written != r.chunks_put) {
      failures->push_back(who + Fmt("server wrote %.0f chunks of the %.0f put",
                                    static_cast<double>(r.chunks_written),
                                    static_cast<double>(r.chunks_put)));
    }
    // The server counts whole sectors per write batch, so its byte count
    // covers the payload put but need not equal it.
    if (r.bytes_written < r.bytes_put) {
      failures->push_back(who + Fmt("server wrote %.0f bytes, less than the %.0f put",
                                    static_cast<double>(r.bytes_written),
                                    static_cast<double>(r.bytes_put)));
    }
  }
}

void CheckEndState(const Outputs& out, std::vector<std::string>* failures) {
  if (out.background_bytes <= 0 || out.background_errors != 0) {
    failures->push_back(Fmt("background readers got %.0f bytes with %.0f errors",
                            static_cast<double>(out.background_bytes),
                            static_cast<double>(out.background_errors)));
  }
  if (out.open_sessions_end != 0 || out.buffer_bytes_reserved_end != 0) {
    failures->push_back(Fmt("after every close: %.0f sessions open, %.0f buffer bytes reserved",
                            static_cast<double>(out.open_sessions_end),
                            static_cast<double>(out.buffer_bytes_reserved_end)));
  }
  if (out.wired_bytes_end != out.wired_bytes_start) {
    failures->push_back(Fmt("wired memory %.0f bytes after every close, %.0f before any open",
                            static_cast<double>(out.wired_bytes_end),
                            static_cast<double>(out.wired_bytes_start)));
  }
  if (out.has_cache && (out.interval_pool_used_end != 0 || out.pairs_active_end != 0)) {
    failures->push_back(Fmt("after every close: interval pool holds %.0f bytes, %.0f pairs active",
                            static_cast<double>(out.interval_pool_used_end),
                            static_cast<double>(out.pairs_active_end)));
  }
}

void CheckStripedVod(const Outputs& out, std::vector<std::string>* failures) {
  if (out.server.deadline_misses != 0) {
    failures->push_back(Fmt("%.0f interval deadline misses under admitted load",
                            static_cast<double>(out.server.deadline_misses)));
  }
  bool refused = false;
  for (const ViewerRecord& v : out.viewers) {
    refused = refused || (v.arrived && !v.admitted && v.control_errors == 0);
  }
  if (!refused) {
    failures->push_back("admission never refused a viewer: the schedule did not fill the array");
  }
  // Table 4: an admitted set never needs more than the members' transfer rate.
  const double demand = static_cast<double>(AdmittedStreams(out)) * out.worst_rate;
  const double bound = out.disks * out.disk_params.transfer_rate;
  if (demand > bound) {
    failures->push_back(Fmt("admitted worst-case demand %.0f B/s exceeds the transfer bound %.0f B/s",
                            demand, bound));
  }
}

void CheckHotTitleFanout(const Outputs& out, std::vector<std::string>* failures) {
  const crmedia::ChunkIndex& hot = out.titles[static_cast<std::size_t>(out.hot_title)];
  if (out.mcast_chunks_sent > static_cast<std::int64_t>(hot.count())) {
    failures->push_back(Fmt("multicast feed sent %.0f chunks of a %.0f-chunk title",
                            static_cast<double>(out.mcast_chunks_sent),
                            static_cast<double>(hot.count())));
  }
  // Bridging is served from the pinned prefix, so the disk reads the hot
  // title at most once and each cold title at most once.
  if (out.server.bytes_read > out.disk_bytes_bound) {
    failures->push_back(Fmt("disk read %.0f bytes, more than every title once (%.0f)",
                            static_cast<double>(out.server.bytes_read),
                            static_cast<double>(out.disk_bytes_bound)));
  }
  std::vector<std::vector<bool>> unique(out.titles.size());
  for (const ViewerRecord& v : out.viewers) {
    std::vector<bool>& u = unique[static_cast<std::size_t>(v.title)];
    u.resize(std::max(u.size(), v.played.size()), false);
    for (std::size_t f = 0; f < v.played.size(); ++f) {
      u[f] = u[f] || v.played[f];
    }
  }
  std::int64_t unique_bytes = 0;
  for (std::size_t t = 0; t < unique.size(); ++t) {
    unique_bytes += IndexBytes(out.titles[t], unique[t]);
  }
  if (out.link_bytes_sent < unique_bytes) {
    failures->push_back(Fmt("forward link sent %.0f bytes, less than the %.0f unique bytes delivered",
                            static_cast<double>(out.link_bytes_sent),
                            static_cast<double>(unique_bytes)));
  }
  if (out.frames_traced && (out.attribution.unattributed_ns != 0 ||
                            out.attribution.conservation_violations != 0)) {
    failures->push_back(Fmt("frame attribution: %.0f ns unattributed, %.0f non-monotone frames",
                            static_cast<double>(out.attribution.unattributed_ns),
                            static_cast<double>(out.attribution.conservation_violations)));
  }
}

void CheckZipfChurn(const Outputs& out, std::vector<std::string>* failures) {
  std::int64_t delivered = 0;
  for (const ViewerRecord& v : out.viewers) {
    delivered += v.bytes;
  }
  if (out.server.bytes_read + out.server.bytes_from_cache < delivered) {
    failures->push_back(Fmt("cache (%.0f) plus disk bytes do not cover %.0f bytes delivered",
                            static_cast<double>(out.server.bytes_from_cache),
                            static_cast<double>(delivered)));
  }
  if (out.server.deadline_misses != 0 || out.ledger_overruns != 0) {
    failures->push_back(Fmt("%.0f deadline misses, %.0f ledger overruns",
                            static_cast<double>(out.server.deadline_misses),
                            static_cast<double>(out.ledger_overruns)));
  }
}

// FNV-1a, 64-bit.
class Fnv {
 public:
  void Add(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xff;  // field separator
    hash_ *= 0x100000001b3ULL;
  }
  void Add(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    Add(std::string(buf));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::vector<std::string> Check(const Outputs& out) {
  std::vector<std::string> failures;
  CheckViewers(out, &failures);
  CheckRecorders(out, &failures);
  CheckEndState(out, &failures);
  if (out.workload == "striped_vod") {
    CheckStripedVod(out, &failures);
  } else if (out.workload == "hot_title_fanout") {
    CheckHotTitleFanout(out, &failures);
  } else if (out.workload == "zipf_churn") {
    CheckZipfChurn(out, &failures);
  }
  return failures;
}

std::int64_t Attempted(const Outputs& out) {
  std::int64_t n = 0;
  for (const ViewerRecord& v : out.viewers) {
    n += v.admitted ? v.frames_due : 0;
  }
  for (const RecorderRecord& r : out.recorders) {
    n += r.admitted ? r.chunks_due : 0;
  }
  return n;
}

std::int64_t Failed(const Outputs& out) {
  std::int64_t n = 0;
  for (const ViewerRecord& v : out.viewers) {
    n += v.frames_missed + v.frames_unplayed + v.control_errors;
  }
  for (const RecorderRecord& r : out.recorders) {
    n += r.put_errors + r.control_errors;
  }
  return n;
}

std::map<std::string, double> SimulatedEndToEnd(const Outputs& out) {
  std::map<std::string, double> m;
  // A frame is in hand within 100 ms of its due time or counted missed, so
  // every byte in hand is on time.
  std::int64_t ontime = 0;
  std::vector<double> startup;
  for (const ViewerRecord& v : out.viewers) {
    ontime += v.bytes;
    if (v.admitted && v.startup_ms >= 0) {
      startup.push_back(v.startup_ms);
    }
  }
  m["admitted_streams"] = static_cast<double>(AdmittedStreams(out));
  m["ontime_mbps"] = static_cast<double>(ontime) / out.sim_seconds / 1e6;
  m["background_mbps"] = static_cast<double>(out.background_bytes) / out.sim_seconds / 1e6;
  m["startup_ms_p50"] = Percentile(startup, 50);
  m["startup_ms_p90"] = Percentile(startup, 90);
  // Bytes the server moved per delivered frame: forward-link bytes when the
  // viewers are across a network, disk bytes when they are local.
  const double moved = static_cast<double>(out.has_link ? out.link_bytes_sent : out.server.bytes_read);
  const std::int64_t played = FramesPlayed(out);
  m["server_bytes_per_frame"] = played > 0 ? moved / static_cast<double>(played) : 0.0;
  return m;
}

std::uint64_t Digest(const Outputs& out) {
  Fnv h;
  h.Add(out.workload);
  for (const auto& [name, value] : SimulatedEndToEnd(out)) {
    h.Add(name);
    h.Add(value);
  }
  for (const auto& [name, value] : out.layer) {
    if (name.rfind("frame.", 0) == 0) {
      continue;  // frame attribution exists in traced rounds only
    }
    h.Add(name);
    h.Add(value);
  }
  for (const ViewerRecord& v : out.viewers) {
    h.Add(static_cast<double>(v.admitted) + 2.0 * static_cast<double>(v.shed));
    h.Add(static_cast<double>(v.frames_played));
    h.Add(static_cast<double>(v.frames_missed));
    h.Add(static_cast<double>(v.frames_unplayed));
    h.Add(static_cast<double>(v.bytes));
    h.Add(v.startup_ms);
  }
  for (const RecorderRecord& r : out.recorders) {
    h.Add(static_cast<double>(r.chunks_put));
    h.Add(static_cast<double>(r.chunks_written));
    h.Add(static_cast<double>(r.bytes_written));
  }
  const cras::ServerStats& s = out.server;
  for (const std::int64_t v : {s.sessions_opened, s.sessions_rejected, s.deadline_misses,
                               s.bytes_read, s.bytes_written, s.read_requests, s.write_requests,
                               s.streams_shed, s.bytes_from_cache}) {
    h.Add(static_cast<double>(v));
  }
  h.Add(static_cast<double>(out.background_bytes));
  h.Add(static_cast<double>(out.link_bytes_sent));
  return h.value();
}

// ---------------------------------------------------------------------------
// SpanRecorder

std::uint32_t SpanRecorder::Intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::Begin(std::uint32_t name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) {
    open_.pop_back();
  }
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = totals[names_[s.name]];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  if (!f.good()) {
    return false;
  }
  f << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", names_[s.name].c_str(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    f << buf;
  }
  f << "\n]}\n";
  return f.good();
}

}  // namespace perfbench
