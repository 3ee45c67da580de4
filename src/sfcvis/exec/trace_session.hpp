// Scoped tracing for one run: enables the span tracer on construction and,
// on finish()/destruction, snapshots it and writes the requested export
// files (Chrome trace-event JSON and/or the machine-readable run report).
// Tables registered through add_table and locality profiles registered
// through add_locality ride along in the run report.
//
// Abnormal exits flush too: the first active session installs an atexit
// hook plus best-effort SIGINT/SIGTERM/SIGHUP handlers that finish() the
// current session, so a run cut short still leaves a loadable trace and
// report on disk instead of nothing.
//
// This is the execution layer's half of what used to live in
// bench/common.hpp; bench::TraceSession derives from it and only adds the
// command-line-option plumbing.
#pragma once

#include <string>

#include "sfcvis/trace/export.hpp"

namespace sfcvis::exec {

class TraceSession {
 public:
  /// Activates when either output path is non-empty or `force_enable` is
  /// set; a no-op session otherwise.
  TraceSession(std::string trace_out, std::string report_out, bool force_enable);
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession();

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Records a table for the run report.
  void add_table(trace::ReportTable table) { sections_.tables.push_back(std::move(table)); }

  /// Records a locality profile (reuse-distance histograms + MRCs) for
  /// the run report's always-present "locality" section.
  void add_locality(trace::LocalityProfile profile);

  /// Records one finished job for the run report's always-present "jobs"
  /// section (exec::JobGraph publishes every completed job here while a
  /// session is active).
  void add_job(trace::JobReportEntry entry);

  /// Stops tracing and writes the export files once (also run by the
  /// destructor; calling early lets a run flush before its exit path).
  void finish();

  /// The active session, if any (set for the lifetime of a tracing run).
  static TraceSession*& current() noexcept;

 private:
  std::string trace_out_;
  std::string report_out_;
  bool active_ = false;
  /// What the run report carries beyond the trace; sections nobody filled
  /// stay unavailable with their default reason.
  trace::RunReportSections sections_;
};

}  // namespace sfcvis::exec
