// ExecutionContext: the single dispatch point for how a kernel runs.
//
// Every kernel runs one way: on the paper's pthread worker pool (Sec. III),
// created on first use. The context owns the decisions around it:
//
//   * threads   — worker count and affinity (compact pinning per the
//                 paper's Ivy Bridge setup).
//   * chunking  — the curve-sweep chunk decomposition shared by the
//                 zsweep drivers.
//   * memory    — the brick-cache budget of out-of-core volumes opened
//                 through the context (open_bricked).
//   * caches    — a StructureCache of derived acceleration structures
//                 (macrocell grids), so repeated renders of one volume
//                 stop rebuilding them per call.
//   * tracing   — an optional owned TraceSession when constructed with
//                 trace outputs.
//
// Outputs do not depend on the item-to-thread assignment: every kernel
// runs the same per-item work with disjoint writes, so thread count and
// schedule never change a result (tests/test_properties.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/job_graph.hpp"
#include "sfcvis/exec/structure_cache.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/threads/pool.hpp"
#include "sfcvis/threads/schedulers.hpp"

namespace sfcvis::exec {

/// Which runtime executes parallel regions: only the pthread worker pool.
/// The enum, to_string, ExecOptions::backend and active_backend() remain
/// because the end-to-end bench (bench/e2e) pins and reports the backend
/// by these names.
enum class Backend : std::uint8_t {
  kPool = 0,  ///< persistent pthread worker pool (threads::Pool)
};

[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// Full construction knobs; the common cases use the two-argument
/// ExecutionContext constructors instead.
struct ExecOptions {
  unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
  Backend backend = Backend::kPool;
  threads::Affinity affinity = threads::Affinity::kNone;
  core::MemoryPolicy memory{};  ///< brick-cache budget for open_bricked()
  std::string trace_out;        ///< Chrome trace JSON path ("" = off)
  std::string report_out;       ///< run-report JSON path ("" = off)
  bool trace = false;           ///< enable spans without export files
  /// Ignored: stays only because the end-to-end bench (bench/e2e) clears it.
  std::string layout_registry;
};

class ExecutionContext {
 public:
  /// `num_threads` workers (0 = hardware concurrency), no pinning.
  explicit ExecutionContext(unsigned num_threads);
  ExecutionContext(unsigned num_threads, threads::Affinity affinity);
  explicit ExecutionContext(const ExecOptions& opts) : ExecutionContext(opts, false) {}
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;
  ~ExecutionContext();

  [[nodiscard]] unsigned size() const noexcept { return num_threads_; }
  /// The backend in use (always the pool).
  [[nodiscard]] Backend active_backend() const noexcept { return Backend::kPool; }
  /// Why size() is not what was asked for ("hardware concurrency unknown"
  /// when threads = 0 could not be resolved); empty otherwise.
  [[nodiscard]] const std::string& backend_note() const noexcept { return backend_note_; }
  [[nodiscard]] threads::Affinity affinity() const noexcept { return affinity_; }
  /// True when the pool pinned every worker (false before the pool is
  /// first used).
  [[nodiscard]] bool affinity_applied() const noexcept {
    return pool_ != nullptr && pool_->affinity_applied();
  }
  /// True once the worker pool exists (pool() creates it on first use; a
  /// replay context never does).
  [[nodiscard]] bool has_pool() const noexcept { return pool_ != nullptr; }
  /// True for a make_replay_context() context.
  [[nodiscard]] bool replaying() const noexcept { return replay_; }

  /// The underlying pthread pool, created on first use.
  [[nodiscard]] threads::Pool& pool();

  /// Cache of derived structures (macrocell grids) keyed on volume identity.
  [[nodiscard]] StructureCache& structures() noexcept { return structures_; }

  /// The job runner every kernel driver dispatches through (created on
  /// first use): drivers build an exec::KernelJob and run it here, and
  /// the graph hands its tiles to this context's pool with per-job
  /// trace/metrics attribution (see exec/job_graph.hpp).
  [[nodiscard]] JobGraph& jobs();

  /// The owned trace session, when the context was constructed with trace
  /// options (nullptr otherwise).
  [[nodiscard]] TraceSession* trace_session() noexcept { return trace_session_.get(); }

  // -- Parallel dispatch ----------------------------------------------------
  // fn(item, tid) with tid < size(); items are executed exactly once with
  // disjoint-write semantics expected from callers, so results do not
  // depend on the item-to-thread assignment.

  /// Dynamic work queue (the paper's raycaster worker pool).
  void parallel_dynamic(std::size_t num_items,
                        const std::function<void(std::size_t, unsigned)>& fn);

  /// Static round-robin assignment (the paper's pencil model) with
  /// per-worker state: make(tid) runs once per worker before its first
  /// item, then fn(state, item, tid) for each owned item.
  template <class MakeState, class Fn>
  void parallel_static_state(std::size_t num_items, MakeState&& make, Fn&& fn) {
    if (replay_) {
      using State = std::decay_t<decltype(make(0U))>;
      // One slot per replay worker, lazily constructed before that
      // worker's first item.
      std::vector<std::optional<State>> states(num_threads_);
      for_each_replayed(num_items, [&](std::size_t item, unsigned tid) {
        auto& slot = states[tid];
        if (!slot) {
          slot.emplace(make(tid));
        }
        fn(*slot, item, tid);
      });
      return;
    }
    threads::parallel_for_static_state(pool(), num_items, make, fn);
  }

  // -- Decomposition & memory ----------------------------------------------

  /// Chunk count for a curve sweep over a padded index space: targets
  /// 8 chunks per worker, sized in *logical* voxels, even when much of the
  /// padded curve is holes.
  [[nodiscard]] std::size_t curve_chunks(std::size_t logical_size,
                                         std::size_t padded_capacity) const noexcept;

  /// Opens a packed brick file (core::pack_brick_file / tools/brick_pack)
  /// as an out-of-core volume under this context's memory policy:
  /// ExecOptions::memory.brick_cache_bytes == 0 maps the file, > 0 streams it
  /// through an LRU brick cache of that byte budget. `prefetch_depth`
  /// bricks ahead of each demand miss are loaded asynchronously along the
  /// file's Morton order (0 disables the prefetch thread). Throws
  /// std::runtime_error on a missing/corrupt file; resource shortfalls
  /// degrade into the volume's cache_report() instead.
  [[nodiscard]] core::AnyVolume open_bricked(const std::string& path,
                                             std::uint32_t prefetch_depth = 2);

 private:
  friend ExecutionContext make_replay_context(unsigned threads);
  ExecutionContext(const ExecOptions& opts, bool replay);

  /// A replay context's dispatch: items in order on the calling thread,
  /// item i on logical worker i % size().
  template <class Fn>
  void for_each_replayed(std::size_t num_items, Fn&& fn) const {
    for (std::size_t item = 0; item < num_items; ++item) {
      fn(item, static_cast<unsigned>(item % num_threads_));
    }
  }

  unsigned num_threads_;
  std::string backend_note_;
  threads::Affinity affinity_;
  bool replay_;
  core::MemoryPolicy memory_{};
  std::unique_ptr<threads::Pool> pool_;
  StructureCache structures_;
  std::unique_ptr<JobGraph> jobs_;
  std::unique_ptr<TraceSession> trace_session_;
};

/// The synchronous driver path every kernel entry point keeps: run the
/// job on the context's graph.
inline void run_job(ExecutionContext& ctx, KernelJob job) {
  ctx.jobs().run(std::move(job));
}

/// A context for JobGraph::replay with `threads` logical workers (a
/// SinkProvider's num_threads()). Every parallel region it runs — tiles
/// and prep-stage structure builds alike — goes in item order on the
/// calling thread, item i on worker i % size(), so no pool is ever
/// created; size() and curve_chunks() still describe `threads` workers,
/// so job builders decompose exactly as for a native run.
[[nodiscard]] ExecutionContext make_replay_context(unsigned threads);

/// Publishes a bricked volume's cache-counter deltas since the previous
/// call (per volume) into the trace metrics registry as "bricked.*"
/// counters — cache_hit, cache_miss, evictions, overflow_bricks,
/// prefetch_issued, prefetch_hits — so run reports carry a brick-cache
/// section alongside the kernel counters (tools/sfcreport.py summarizes
/// and validates it). Core stays leaf: the volume only exposes the drained
/// deltas; the registry write happens here in the exec layer. Returns the
/// drained delta report (fallback strings ride along) for direct
/// inspection.
core::BrickCacheReport publish_brick_cache_metrics(const core::BrickedVolume& volume);

}  // namespace sfcvis::exec
