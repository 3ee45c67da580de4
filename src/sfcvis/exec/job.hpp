// KernelJob: the unit of kernel work.
//
// A KernelJob captures one kernel invocation *after* decomposition: a
// kernel id, the tile count its decomposer produced (pencils, curve
// chunks, image tiles), the tile body as a type-erased closure, and an
// optional job-prep stage that runs once before any tile (per-worker read
// views, and the macrocell grid of a render whose caller passed none).
//
// Jobs are built by the kernel layers (filters/kernels_common.hpp,
// render/raycast.hpp) and executed by exec::JobGraph, which runs each one
// as soon as it is handed over and owns cooperative cancellation, the
// traced replay mode, and the per-job trace/metrics attribution.
//
// Lifetime contract: a job's closures reference the kernel operands
// (source/destination volumes, images) by pointer — the operands must
// outlive the job's run, which JobGraph::run and JobGraph::replay finish
// before they return.
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

/// One decomposed kernel invocation, ready to hand to JobGraph::run.
struct KernelJob {
  /// Kernel id, e.g. "bilateral.zsweep". Must be a string literal: the
  /// per-job "exec.job" span stores the pointer as its tag.
  const char* kernel = nullptr;
  JobDispatch dispatch = JobDispatch::kStatic;
  CancelToken cancel;
  std::size_t tiles = 0;  ///< decomposer's tile count; 0 is a valid no-op job

  /// Kernel-level trace span emitted inside the per-job "exec.job" span,
  /// so reports keep the historical phase names ("bilateral.parallel").
  /// Must be string literals (spans store the pointers only).
  const char* span_name = nullptr;
  const char* span_tag = nullptr;

  /// Job-prep stage, run once before any tile: per-run state the tiles
  /// share (read views, a render's macrocell grid) is built here.
  std::function<void(ExecutionContext&)> prepare;
  /// Per-worker state factory of a static job (the scratch/read-view slot
  /// every pencil and chunk kernel keeps); ignored by dynamic jobs. A
  /// static job without one gets a null state.
  std::function<std::shared_ptr<void>(unsigned tid)> make_state;
  /// Tile body. `state` is the worker's make_state result (null for a
  /// dynamic job or when no make_state); disjoint writes across tiles are
  /// the caller's contract.
  std::function<void(void* state, std::size_t tile, unsigned tid)> tile;
};

/// What the graph recorded about one finished (or cancelled) job.
struct JobRecord {
  JobId id = 0;
  std::string kernel;
  JobState state = JobState::kDone;
  std::size_t tiles = 0;
  std::size_t tiles_run = 0;          ///< < tiles when cancelled mid-run
  /// Always 0: a job runs as soon as it is handed over. Stays only
  /// because the end-to-end benchmark (bench/e2e/e2e.cpp) reads it and
  /// changes only with the benchmark; delete it together with that read.
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t run_ns = 0;           ///< start -> completion (prep + tiles)
};

}  // namespace sfcvis::exec
