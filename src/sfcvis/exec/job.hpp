// KernelJob: the schedulable unit of kernel work.
//
// Every kernel driver used to be a bespoke free function that privately
// spelled its own decomposition and parallel_for call — nothing above the
// driver could queue, interleave, or cancel kernel work. A KernelJob
// captures one kernel invocation *after* decomposition: a kernel id, the
// tile count its decomposer produced (pencils, curve chunks, image tiles),
// the tile body as a type-erased closure, and an optional job-prep stage
// where StructureCache lookups are hoisted so two queued jobs over one
// volume share derived structures (macrocell grids).
//
// Jobs are built by the kernel layers (filters/kernels_common.hpp,
// render/raycast.hpp) and executed by exec::JobGraph, which owns the FIFO
// scheduling, cooperative cancellation, the traced replay mode, and the
// per-job trace/metrics attribution.
//
// Lifetime contract: a job's closures reference the kernel operands
// (source/destination volumes, images) by pointer — the operands must
// outlive the job's run. The synchronous driver wrappers trivially
// guarantee this; code that queues jobs for later must keep the operands
// alive until the graph drains.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace sfcvis::exec {

class ExecutionContext;

/// How a job's tiles map onto the backend.
enum class JobDispatch : std::uint8_t {
  kStatic = 0,  ///< round-robin static assignment (pencil/chunk kernels)
  kDynamic,     ///< work-queue dynamic assignment (raycast image tiles)
};

/// Where a job ended up.
enum class JobState : std::uint8_t {
  kDone = 0,
  kCancelled,
};

[[nodiscard]] const char* to_string(JobState state) noexcept;

using JobId = std::uint64_t;

/// Cooperative cancellation handle. Copies share one flag; request_cancel
/// is sticky and safe from any thread. The graph checks it once before a
/// job starts and once per tile — tiles already running complete, so
/// outputs are never torn mid-tile.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() const noexcept { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// One decomposed kernel invocation, ready to submit to JobGraph.
struct KernelJob {
  /// Kernel id, e.g. "bilateral.zsweep". Must be a string literal: the
  /// per-job "exec.job" span stores the pointer as its tag.
  const char* kernel = nullptr;
  JobDispatch dispatch = JobDispatch::kStatic;
  CancelToken cancel;
  /// Identity of the written output (volume storage / image pixels).
  /// JobGraph rejects a second queued job writing the same output.
  const void* output = nullptr;
  std::size_t tiles = 0;  ///< decomposer's tile count; 0 is a valid no-op job

  /// Kernel-level trace span emitted inside the per-job "exec.job" span,
  /// so reports keep the historical phase names ("bilateral.parallel").
  /// Must be string literals (spans store the pointers only).
  const char* span_name = nullptr;
  const char* span_tag = nullptr;

  /// Job-prep stage, run once at dequeue before any tile: StructureCache
  /// lookups belong here so queued jobs over one volume share structures.
  std::function<void(ExecutionContext&)> prepare;
  /// Optional per-worker state factory (the scratch/read-view slot the
  /// static_state dispatch used to own); null for stateless kernels.
  std::function<std::shared_ptr<void>(unsigned tid)> make_state;
  /// Tile body. `state` is the worker's make_state result (null when no
  /// make_state); disjoint writes across tiles are the caller's contract,
  /// exactly as with the parallel_* dispatch this replaces.
  std::function<void(void* state, std::size_t tile, unsigned tid)> tile;
};

/// What the graph recorded about one finished (or cancelled) job.
struct JobRecord {
  JobId id = 0;
  std::string kernel;
  JobState state = JobState::kDone;
  std::size_t tiles = 0;
  std::size_t tiles_run = 0;          ///< < tiles when cancelled mid-run
  std::uint64_t queue_wait_ns = 0;    ///< submit -> dequeue
  std::uint64_t run_ns = 0;           ///< dequeue -> completion (prep + tiles)
  std::uint64_t structure_cache_hits = 0;    ///< attributed to this job's prep+run
  std::uint64_t structure_cache_misses = 0;
};

}  // namespace sfcvis::exec
