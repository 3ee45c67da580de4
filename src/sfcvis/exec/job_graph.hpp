// JobGraph: the queue that turns KernelJobs into backend dispatches.
//
// Scheduling model: one FIFO. run_all() / run(id) drain the queue one job
// at a time on the calling thread — each job is internally parallel (its
// tiles go to the context's worker pool), so draining serially
// preserves the bit-identity contract of the direct driver calls this
// replaces while still letting queued jobs share StructureCache entries
// hoisted into their prep stages.
//
// Replay mode: replay(job, max_items) runs one job at once, bypassing the
// queue, on a replay context (make_replay_context). Its workers are
// logical: tile t runs on worker t % size(), in tile order on the calling
// thread — the round-robin schedule interleaved round by round, as
// threads::StaticRoundRobin::replay_order spells it. Built with a traced
// view factory (core::traced_views), the job a native driver dispatches
// becomes its own deterministic memsim / locality counter run.
//
// Per job the graph records queue-wait vs run time, tiles run (cooperative
// cancellation can cut a job short between tiles), and the StructureCache
// hit/miss delta attributed to its prep+run window. Records flow three
// ways: the bounded records() buffer here, aggregate "exec.job*" metrics
// counters, and — when a TraceSession is active — the run report's
// always-present "jobs" section (`sfcreport.py validate` checks it;
// `--require jobs` gates on it).
//
// Double-submit policy (pinned, tests/test_jobs.cpp): a second job
// writing the same output while one is queued is REJECTED at submit
// (std::invalid_argument), not serialized — silently reordering writes
// behind the caller's back is how bit-identity dies.
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

  /// Enqueues a job. Throws std::invalid_argument when the job has no
  /// kernel id, when tiles > 0 with no tile body, or when another queued
  /// job writes the same output (see header comment).
  JobId submit(KernelJob job);

  /// Drains the whole queue in FIFO order. Synchronous: returns with the
  /// queue empty.
  void run_all();

  /// Runs queued jobs in FIFO order until `id` has finished; a no-op when
  /// `id` is not queued (already ran or never submitted).
  void run(JobId id);

  /// Runs `job` now as the serial replay described in the header comment:
  /// prepare, then tiles [0, min(tiles, max_items)) in order, each
  /// worker's state from make_state. The record counts the capped tiles.
  /// Throws std::logic_error unless this graph's context came from
  /// make_replay_context, and std::invalid_argument as submit does.
  JobId replay(KernelJob job, std::size_t max_items = SIZE_MAX);

  [[nodiscard]] std::size_t pending() const;

  /// Copies of the kept records, completion order (thread-safe snapshot).
  [[nodiscard]] std::vector<JobRecord> records() const;

  /// The record of job `id`, if still kept.
  [[nodiscard]] std::optional<JobRecord> find_record(JobId id) const;

  void clear_records();

 private:
  struct Pending {
    KernelJob job;
    JobId id = 0;
    std::uint64_t submit_ns = 0;
  };

  [[nodiscard]] std::optional<Pending> pop_next();
  void run_one(Pending& pending);
  void finish_record(JobRecord record);

  ExecutionContext& ctx_;
  mutable std::mutex mutex_;  ///< guards queue_/records_
  std::deque<Pending> queue_;
  std::deque<JobRecord> records_;
};

}  // namespace sfcvis::exec
