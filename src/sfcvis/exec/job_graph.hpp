// JobGraph: turns KernelJobs into backend dispatches.
//
// run(job) runs a job as soon as it is handed over, on the calling
// thread: prepare, then its tiles on the context's worker pool (static
// round-robin or the dynamic work queue, per JobDispatch). Jobs run one
// at a time and each is internally parallel, which preserves the
// bit-identity contract of the direct driver calls while letting
// back-to-back jobs share StructureCache entries hoisted into their prep
// stages.
//
// Replay mode: replay(job, max_items) runs one job on a replay context
// (make_replay_context). Its workers are logical: tile t runs on worker
// t % size(), in tile order on the calling thread — the round-robin
// schedule interleaved round by round, as
// threads::StaticRoundRobin::replay_order spells it. Built with a traced
// view factory (core::traced_views), the job a native driver dispatches
// becomes its own deterministic memsim / locality counter run.
//
// Per job the graph records run time, tiles run (cooperative cancellation
// can cut a job short between tiles), and the StructureCache hit/miss
// delta attributed to its prep+run window. Records flow three ways: the
// bounded records() buffer here, aggregate "exec.job*" metrics counters,
// and — when a TraceSession is active — the run report's always-present
// "jobs" section (`sfcreport.py validate` checks it; `--require jobs`
// gates on it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "sfcvis/exec/job.hpp"

namespace sfcvis::exec {

class ExecutionContext;

class JobGraph {
 public:
  /// Bound on kept records; the oldest are dropped past it (the trace
  /// session, if any, has already received them).
  static constexpr std::size_t kMaxRecords = 4096;

  explicit JobGraph(ExecutionContext& ctx) : ctx_(ctx) {}
  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;

  /// Runs `job` now and returns once it finished or was cancelled.
  /// Throws std::invalid_argument when the job has no kernel id or has
  /// tiles > 0 with no tile body.
  JobId run(KernelJob job);

  /// Runs `job` now as the serial replay described in the header comment:
  /// prepare, then tiles [0, min(tiles, max_items)) in order, each
  /// worker's state from make_state. The record counts the capped tiles.
  /// Throws std::logic_error unless this graph's context came from
  /// make_replay_context, and std::invalid_argument as run does.
  JobId replay(KernelJob job, std::size_t max_items = SIZE_MAX);

  /// Copies of the kept records, completion order (thread-safe snapshot).
  [[nodiscard]] std::vector<JobRecord> records() const;

  /// The record of job `id`, if still kept.
  [[nodiscard]] std::optional<JobRecord> find_record(JobId id) const;

  void clear_records();

 private:
  JobId run_one(KernelJob& job);
  void finish_record(JobRecord record);

  ExecutionContext& ctx_;
  mutable std::mutex mutex_;  ///< guards records_
  std::deque<JobRecord> records_;
};

}  // namespace sfcvis::exec
