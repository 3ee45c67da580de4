// ExecutionContext: the single dispatch point for how a kernel runs.
//
// Every kernel driver used to take a raw threads::Pool& and carry its own
// copy of backend choice, chunk decomposition, and stats plumbing. The
// context owns those decisions instead:
//
//   * backend   — the paper's pthread worker pool (Sec. III) or the OpenMP
//                 executor (bench/abl_scheduler re-examines the paper's
//                 pthreads-over-OpenMP claim); selectable per context or
//                 process-wide via the SFCVIS_BACKEND environment variable.
//                 Falls back to the pool, with a recorded reason, when the
//                 build has no OpenMP runtime.
//   * threads   — worker count and affinity (compact pinning per the
//                 paper's Ivy Bridge setup).
//   * chunking  — the curve-sweep chunk decomposition shared by the
//                 zsweep drivers.
//   * memory    — the core::MemoryPolicy volumes allocated through the
//                 context get, plus the first-touch hook that faults pages
//                 in on the worker set.
//   * caches    — a StructureCache of derived acceleration structures
//                 (macrocell grids), so repeated renders of one volume
//                 stop rebuilding them per call.
//   * tracing   — an optional owned TraceSession when constructed with
//                 trace outputs.
//
// Outputs are backend-invariant: both backends run the same per-item
// work with disjoint writes, so pool and OpenMP runs are bit-identical
// (tests/test_parity.cpp pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/job_graph.hpp"
#include "sfcvis/exec/layout_registry.hpp"
#include "sfcvis/exec/structure_cache.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/threads/omp_executor.hpp"
#include "sfcvis/threads/pool.hpp"
#include "sfcvis/threads/schedulers.hpp"

namespace sfcvis::exec {

/// Which runtime executes parallel regions.
enum class Backend : std::uint8_t {
  kPool = 0,  ///< persistent pthread worker pool (threads::Pool)
  kOpenMP,    ///< OpenMP parallel-for executor (threads/omp_executor.hpp)
};

[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// Parses "pool" / "openmp" (also "omp"); throws std::invalid_argument.
[[nodiscard]] Backend parse_backend(std::string_view name);

/// Process default: SFCVIS_BACKEND=pool|openmp when set (unknown values
/// are ignored with a warning to stderr, once), else kPool.
[[nodiscard]] Backend default_backend() noexcept;

/// Full construction knobs; the common cases use the two-argument
/// ExecutionContext constructors instead.
struct ExecOptions {
  unsigned threads = 0;  ///< worker count; 0 = hardware concurrency
  Backend backend = default_backend();
  threads::Affinity affinity = threads::Affinity::kNone;
  std::size_t chunks_per_thread = 8;  ///< curve-sweep decomposition factor
  core::MemoryPolicy memory{};        ///< policy for make_volume()
  std::string trace_out;              ///< Chrome trace JSON path ("" = off)
  std::string report_out;             ///< run-report JSON path ("" = off)
  bool trace = false;                 ///< enable spans without export files
  /// Tuned-layout registry JSON path; "" = $SFCVIS_LAYOUT_REGISTRY (and
  /// when that is unset too, resolve_layout always reports a fallback).
  std::string layout_registry = default_layout_registry_path();

  /// $SFCVIS_LAYOUT_REGISTRY when set, else "".
  [[nodiscard]] static std::string default_layout_registry_path();
};

/// resolve_layout()'s answer: which layout a workload should run with,
/// and why. `tuned` distinguishes a registry hit from the canonical
/// fallback; `note` always explains the decision (entry provenance on a
/// hit, the miss/load-failure reason otherwise).
struct ResolvedLayout {
  core::LayoutKind kind = core::LayoutKind::kZOrder;
  std::string interleave;  ///< gmorton pattern when kind == kGMorton
  bool tuned = false;
  std::string note;
};

class ExecutionContext {
 public:
  /// Pool-vs-OpenMP per the process default, no pinning.
  explicit ExecutionContext(unsigned num_threads);
  ExecutionContext(unsigned num_threads, threads::Affinity affinity);
  explicit ExecutionContext(const ExecOptions& opts) : ExecutionContext(opts, false) {}
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;
  ~ExecutionContext();

  [[nodiscard]] unsigned size() const noexcept { return num_threads_; }
  [[nodiscard]] Backend backend() const noexcept { return requested_backend_; }
  /// Backend actually in use after availability fallback.
  [[nodiscard]] Backend active_backend() const noexcept { return active_backend_; }
  /// Why active_backend() differs from backend(); empty when it doesn't.
  [[nodiscard]] const std::string& backend_note() const noexcept { return backend_note_; }
  [[nodiscard]] threads::Affinity affinity() const noexcept { return affinity_; }
  /// True when the pool backend pinned every worker (false before the pool
  /// is first used, and always false under OpenMP).
  [[nodiscard]] bool affinity_applied() const noexcept {
    return pool_ != nullptr && pool_->affinity_applied();
  }
  /// True once the worker pool exists (pool() creates it on first use; a
  /// replay context never does).
  [[nodiscard]] bool has_pool() const noexcept { return pool_ != nullptr; }
  /// True for a make_replay_context() context.
  [[nodiscard]] bool replaying() const noexcept { return replay_; }
  [[nodiscard]] std::size_t chunks_per_thread() const noexcept { return chunks_per_thread_; }
  [[nodiscard]] const core::MemoryPolicy& memory_policy() const noexcept { return memory_; }

  /// The underlying pthread pool, created on first use (also serves as the
  /// fallback when an OpenMP dispatch reports unavailable at runtime).
  [[nodiscard]] threads::Pool& pool();

  /// Cache of derived structures (macrocell grids) keyed on volume identity.
  [[nodiscard]] StructureCache& structures() noexcept { return structures_; }

  /// The job queue every kernel driver dispatches through (created on
  /// first use): drivers build an exec::KernelJob and submit it here, and
  /// the graph schedules curve-ordered tiles onto this context's backend
  /// with per-job trace/metrics attribution (see exec/job_graph.hpp).
  [[nodiscard]] JobGraph& jobs();

  /// The owned trace session, when the context was constructed with trace
  /// options (nullptr otherwise).
  [[nodiscard]] TraceSession* trace_session() noexcept { return trace_session_.get(); }

  // -- Parallel dispatch ----------------------------------------------------
  // fn(item, tid) with tid < size(); items are executed exactly once with
  // disjoint-write semantics expected from callers, so results do not
  // depend on the backend's item-to-thread assignment.

  /// Static assignment (the paper's round-robin pencil model on the pool;
  /// schedule(static) under OpenMP).
  void parallel_static(std::size_t num_items,
                       const std::function<void(std::size_t, unsigned)>& fn);

  /// Dynamic work queue (the paper's raycaster worker pool; schedule
  /// (dynamic, 1) under OpenMP).
  void parallel_dynamic(std::size_t num_items,
                        const std::function<void(std::size_t, unsigned)>& fn);

  /// parallel_static with per-worker state: make(tid) runs once per worker
  /// before its first item, then fn(state, item, tid) for each owned item.
  template <class MakeState, class Fn>
  void parallel_static_state(std::size_t num_items, MakeState&& make, Fn&& fn) {
    if (replay_ || active_backend_ == Backend::kOpenMP) {
      using State = std::decay_t<decltype(make(0U))>;
      // One slot per worker (OpenMP thread number or replay worker),
      // lazily constructed before that worker's first item; under OpenMP
      // each slot is only ever touched by its own thread within the single
      // parallel region.
      std::vector<std::optional<State>> states(num_threads_);
      const auto run_item = [&](std::size_t item, unsigned tid) {
        auto& slot = states[tid];
        if (!slot) {
          slot.emplace(make(tid));
        }
        fn(*slot, item, tid);
      };
      if (replay_) {
        for_each_replayed(num_items, run_item);
        return;
      }
      if (threads::parallel_for_omp_static(num_threads_, num_items, run_item)) {
        return;
      }
    }
    threads::parallel_for_static_state(pool(), num_items, make, fn);
  }

  // -- Decomposition & memory ----------------------------------------------

  /// Chunk count for a curve sweep over a padded index space: targets
  /// roughly size()/chunks_per_thread() *logical* voxels per chunk even
  /// when much of the padded curve is holes.
  [[nodiscard]] std::size_t curve_chunks(std::size_t logical_size,
                                         std::size_t padded_capacity) const noexcept;

  /// First-touch hook for core::AlignedBuffer: splits [0, count) into one
  /// contiguous range per worker and touches each from that worker. The
  /// returned function captures `this` and must not outlive the context.
  [[nodiscard]] core::FirstTouchFn first_touch_fn();

  /// Allocates a volume under this context's memory policy, with
  /// first-touch initialization on this context's workers when the policy
  /// asks for it. `interleave` selects the generalized-Morton pattern when
  /// kind == kGMorton (empty = canonical).
  [[nodiscard]] core::AnyVolume make_volume(core::LayoutKind kind,
                                            const core::Extents3D& extents,
                                            std::uint32_t tile = 8,
                                            std::string_view interleave = {});

  /// make_volume for a resolve_layout() answer.
  [[nodiscard]] core::AnyVolume make_volume(const ResolvedLayout& resolved,
                                            const core::Extents3D& extents,
                                            std::uint32_t tile = 8) {
    return make_volume(resolved.kind, extents, tile, resolved.interleave);
  }

  /// Opens a packed brick file (core::pack_brick_file / tools/brick_pack)
  /// as an out-of-core volume under this context's memory policy:
  /// memory_policy().brick_cache_bytes == 0 maps the file, > 0 streams it
  /// through an LRU brick cache of that byte budget. `prefetch_depth`
  /// bricks ahead of each demand miss are loaded asynchronously along the
  /// file's Morton order (0 disables the prefetch thread). Throws
  /// std::runtime_error on a missing/corrupt file; resource shortfalls
  /// degrade into the volume's cache_report() instead.
  [[nodiscard]] core::AnyVolume open_bricked(const std::string& path,
                                             std::uint32_t prefetch_depth = 2);

  // -- Tuned layouts ---------------------------------------------------------

  /// The layout this workload should use: the registry's tuned
  /// generalized-Morton entry for (kernel, extents, platform) when one
  /// exists, else canonical Z-order with a note reporting the fallback
  /// reason. An empty `platform` accepts an entry for any platform.
  [[nodiscard]] ResolvedLayout resolve_layout(std::string_view kernel,
                                              const core::Extents3D& extents,
                                              std::string_view platform = {}) const;

  /// The loaded registry (empty when no path was configured or the load
  /// failed; layout_registry_note() reports which).
  [[nodiscard]] const LayoutRegistry& layout_registry() const noexcept {
    return layout_registry_;
  }
  /// Where the registry came from, or why it is empty.
  [[nodiscard]] const std::string& layout_registry_note() const noexcept {
    return layout_registry_note_;
  }

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
  Backend requested_backend_;
  Backend active_backend_;
  std::string backend_note_;
  threads::Affinity affinity_;
  std::size_t chunks_per_thread_;
  bool replay_;
  core::MemoryPolicy memory_{};
  std::unique_ptr<threads::Pool> pool_;
  StructureCache structures_;
  std::unique_ptr<JobGraph> jobs_;
  std::unique_ptr<TraceSession> trace_session_;
  LayoutRegistry layout_registry_;
  std::string layout_registry_note_;
};

/// The synchronous driver path every kernel entry point keeps: submit on
/// the context's graph and drain the queue up to this job.
inline void run_job(ExecutionContext& ctx, KernelJob job) {
  auto& graph = ctx.jobs();
  graph.run(graph.submit(std::move(job)));
}

/// A context for JobGraph::replay with `threads` logical workers (a
/// SinkProvider's num_threads()). Every parallel region it runs — tiles
/// and prep-stage structure builds alike — goes in item order on the
/// calling thread, item i on worker i % size(), so no pool is ever
/// created; size() and curve_chunks() still describe `threads` workers,
/// so job builders decompose exactly as for a native run. No layout
/// registry is loaded.
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
