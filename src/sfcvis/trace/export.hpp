// Exporters for trace + metrics snapshots.
//
// Two formats, two audiences:
//  * chrome_trace_json — Chrome trace-event JSON ("X" duration events
//    with ph/ts/dur/pid/tid/name), loadable in Perfetto or
//    chrome://tracing for a visual timeline; per-span hardware counter
//    deltas ride along in each event's "args".
//  * run_report_json — the machine-readable run report consumed by
//    tools/sfcreport.py (validate, summarize, diff, gate): per-phase span
//    aggregates with per-thread breakdown and load imbalance, the merged
//    metrics registry, and any bench result tables. This replaces the
//    bespoke per-bench stats printers as the diffable artifact of a run.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sfcvis/trace/metrics.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::trace {

/// A bench result table carried verbatim into the run report (the JSON
/// twin of bench_util::ResultTable, kept dependency-free on purpose).
struct ReportTable {
  std::string name;   ///< machine key, e.g. the CSV basename "abl_empty_skiprate"
  std::string title;  ///< human title as printed by the bench
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  std::vector<std::vector<double>> cells;  ///< [row][col]
};

/// One point of a miss-ratio curve: the modeled LRU miss ratio of a
/// fully-associative cache holding `capacity_bytes` of this granule size.
struct LocalityMissPoint {
  std::uint64_t capacity_bytes = 0;
  double miss_ratio = 0.0;
};

/// One granularity slice (cache lines or pages) of a locality profile —
/// plain data, produced by locality::LocalityProfiler and kept
/// dependency-free here like ReportTable.
struct LocalityGranularity {
  std::uint32_t granule_bytes = 0;
  std::uint64_t accesses = 0;  ///< granule touches (straddles split per granule)
  std::uint64_t distinct = 0;  ///< working set, in granules
  std::uint64_t cold = 0;      ///< first-touch accesses (infinite reuse distance)
  /// bytes-used / bytes-fetched over the whole run; negative when not
  /// tracked at this granularity (emitted as JSON null).
  double utilization = -1.0;
  /// Finite reuse distances, log2-bucketed: bucket 0 counts distance 0,
  /// bucket b >= 1 counts distances in [2^(b-1), 2^b). Trimmed to the
  /// last nonzero bucket; cold accesses are counted separately above.
  std::vector<std::uint64_t> reuse_log2;
  std::vector<LocalityMissPoint> mrc;  ///< ascending capacities
};

/// Locality profile of one traced kernel replay over one layout.
struct LocalityProfile {
  std::string kernel;
  std::string layout;
  std::uint64_t accesses = 0;  ///< raw view accesses fed to the profiler
  std::uint64_t bytes = 0;     ///< bytes those accesses requested
  LocalityGranularity line;
  LocalityGranularity page;
  /// SHARDS-sampled estimate at line granularity (counts pre-scaled by
  /// the sampling rate 2^sample_rate_log2); absent when sampling was off.
  bool sampled_available = false;
  std::uint32_t sample_rate_log2 = 0;
  LocalityGranularity sampled;
};

/// The run report's always-present "locality" section (reported-fallback
/// idiom: absence is a recorded fact, never silence): when no profiler
/// ran, `available` is false and `source` says why.
struct LocalityReport {
  bool available = false;
  std::string source = "no locality profiles published by this run";
  std::vector<LocalityProfile> profiles;
};

/// One finished (or cancelled) kernel job as attributed in the run
/// report's "jobs" section — plain data, produced by exec::JobGraph and
/// kept dependency-free here like ReportTable.
struct JobReportEntry {
  std::uint64_t id = 0;
  std::string kernel;
  std::string state;  ///< "done" or "cancelled"
  std::uint64_t tiles = 0;
  std::uint64_t tiles_run = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t structure_cache_hits = 0;
  std::uint64_t structure_cache_misses = 0;
};

/// The run report's always-present "jobs" section (reported-fallback
/// idiom): when no JobGraph ran, `available` is false and `source` says
/// why.
struct JobsReport {
  bool available = false;
  std::string source = "no KernelJob ran while this session was active";
  std::vector<JobReportEntry> jobs;
};

/// Everything a run report carries beyond the trace and metrics snapshots.
/// A default-constructed member is an unavailable section with its reason.
struct RunReportSections {
  std::vector<ReportTable> tables;
  LocalityReport locality;
  JobsReport jobs;
};

/// Chrome trace-event JSON (Perfetto-loadable). Spans become "X" events;
/// threads are named via "M" metadata events ("worker N" or "thread N").
[[nodiscard]] std::string chrome_trace_json(const TraceSnapshot& snap);

/// The run report: versioned JSON with hw-counter provenance, per-phase
/// aggregates (phase = span name + tag), per-thread values, the metrics
/// registry, and `sections`: result tables, the locality section and the
/// per-job dispatch section.
[[nodiscard]] std::string run_report_json(const TraceSnapshot& snap,
                                          const MetricsSnapshot& metrics,
                                          const RunReportSections& sections = {});

/// Writes `contents` to `path`; false (with intact errno) on failure.
bool write_text_file(const std::string& path, std::string_view contents);

}  // namespace sfcvis::trace
