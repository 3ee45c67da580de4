#include "sfcvis/exec/job_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::exec {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Aggregate job metrics (per-job attribution lives in the records and
/// the run report's "jobs" section; these make job activity visible in
/// untraced metrics snapshots too).
struct JobCounters {
  trace::CounterId jobs_run;
  trace::CounterId jobs_cancelled;
  trace::CounterId tiles;
  trace::CounterId run_ns;
};

const JobCounters& job_counters() {
  static const JobCounters counters = [] {
    auto& tracer = trace::Tracer::instance();
    JobCounters c;
    c.jobs_run = tracer.counter_id("exec.jobs_run");
    c.jobs_cancelled = tracer.counter_id("exec.jobs_cancelled");
    c.tiles = tracer.counter_id("exec.job_tiles_run");
    c.run_ns = tracer.counter_id("exec.job_run_ns");
    return c;
  }();
  return counters;
}

/// Process-wide id sequence: a run report aggregates jobs from every
/// context (driver contexts, replay contexts), so per-graph numbering
/// would collide in the report's "jobs" section.
JobId next_job_id() {
  static std::atomic<JobId> g_next_id{1};
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

/// The shape checks run and replay share.
void validate(const KernelJob& job) {
  if (job.kernel == nullptr) {
    throw std::invalid_argument("JobGraph: job has no kernel id");
  }
  if (job.tiles > 0 && !job.tile) {
    throw std::invalid_argument(std::string("JobGraph: job '") + job.kernel +
                                "' has tiles but no tile body");
  }
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kDone:
      return "done";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

JobId JobGraph::run(KernelJob job) {
  validate(job);
  return run_one(job);
}

JobId JobGraph::replay(KernelJob job, std::size_t max_items) {
  if (!ctx_.replaying()) {
    throw std::logic_error(
        "JobGraph::replay: not a replay context (see exec::make_replay_context)");
  }
  validate(job);
  job.tiles = std::min(job.tiles, max_items);
  return run_one(job);
}

JobId JobGraph::run_one(KernelJob& job) {
  JobRecord record;
  record.id = next_job_id();
  record.kernel = job.kernel;
  record.tiles = job.tiles;
  const JobId id = record.id;
  if (job.cancel.cancelled()) {
    record.state = JobState::kCancelled;
    finish_record(std::move(record));
    return id;
  }
  const std::uint64_t start_ns = now_ns();
  std::atomic<std::size_t> tiles_run{0};
  {
    // Per-job span, with the kernel's historical phase span nested inside
    // so reports keep their pre-job-system phase names.
    trace::ScopedSpan job_span("exec.job", job.kernel, id);
    if (job.prepare) {
      job.prepare(ctx_);
    }
    trace::ScopedSpan kernel_span(job.span_name != nullptr ? job.span_name : "exec.job.tiles",
                                  job.span_tag, job.tiles);
    const CancelToken cancel = job.cancel;
    const auto run_tile = [&](void* state, std::size_t t, unsigned tid) {
      if (cancel.cancelled()) {
        return;
      }
      job.tile(state, t, tid);
      tiles_run.fetch_add(1, std::memory_order_relaxed);
    };
    if (job.tiles == 0) {
      // A recorded no-op: neither the tile body nor make_state runs.
    } else if (job.dispatch == JobDispatch::kDynamic) {
      ctx_.parallel_dynamic(job.tiles,
                            [&](std::size_t t, unsigned tid) { run_tile(nullptr, t, tid); });
    } else {
      ctx_.parallel_static_state(
          job.tiles,
          [&](unsigned tid) {
            return job.make_state ? job.make_state(tid) : std::shared_ptr<void>();
          },
          [&](const std::shared_ptr<void>& state, std::size_t t, unsigned tid) {
            run_tile(state.get(), t, tid);
          });
    }
  }
  record.tiles_run = tiles_run.load(std::memory_order_relaxed);
  record.run_ns = now_ns() - start_ns;
  record.state = (job.cancel.cancelled() && record.tiles_run < record.tiles)
                     ? JobState::kCancelled
                     : JobState::kDone;
  finish_record(std::move(record));
  return id;
}

void JobGraph::finish_record(JobRecord record) {
  const JobCounters& c = job_counters();
  auto& tracer = trace::Tracer::instance();
  tracer.add(record.state == JobState::kCancelled ? c.jobs_cancelled : c.jobs_run, 1);
  tracer.add(c.tiles, record.tiles_run);
  tracer.add(c.run_ns, record.run_ns);
  if (TraceSession* session = TraceSession::current()) {
    trace::JobReportEntry entry;
    entry.id = record.id;
    entry.kernel = record.kernel;
    entry.state = to_string(record.state);
    entry.tiles = record.tiles;
    entry.tiles_run = record.tiles_run;
    entry.run_ns = record.run_ns;
    session->add_job(std::move(entry));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
  while (records_.size() > kMaxRecords) {
    records_.pop_front();
  }
}

std::vector<JobRecord> JobGraph::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {records_.begin(), records_.end()};
}

std::optional<JobRecord> JobGraph::find_record(JobId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const JobRecord& r : records_) {
    if (r.id == id) {
      return r;
    }
  }
  return std::nullopt;
}

void JobGraph::clear_records() {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
}

}  // namespace sfcvis::exec
