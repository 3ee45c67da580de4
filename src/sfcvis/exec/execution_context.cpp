#include "sfcvis/exec/execution_context.hpp"

#include <algorithm>
#include <thread>

#include "sfcvis/trace/trace.hpp"

namespace sfcvis::exec {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kPool:
      return "pool";
  }
  return "?";
}

namespace {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1U;
}

}  // namespace

ExecutionContext::ExecutionContext(unsigned num_threads)
    : ExecutionContext(num_threads, threads::Affinity::kNone) {}

ExecutionContext::ExecutionContext(unsigned num_threads, threads::Affinity affinity)
    : ExecutionContext([&] {
        ExecOptions opts;
        opts.threads = num_threads;
        opts.affinity = affinity;
        return opts;
      }()) {}

ExecutionContext::ExecutionContext(const ExecOptions& opts, bool replay)
    : num_threads_(resolve_threads(opts.threads)),
      affinity_(opts.affinity),
      replay_(replay),
      memory_(opts.memory) {
  if (opts.threads == 0 && num_threads_ == 1 && std::thread::hardware_concurrency() == 0) {
    backend_note_ = "hardware concurrency unknown; using 1 thread";
  }
  if (!opts.trace_out.empty() || !opts.report_out.empty() || opts.trace) {
    trace_session_ =
        std::make_unique<TraceSession>(opts.trace_out, opts.report_out, opts.trace);
  }
}

ExecutionContext::~ExecutionContext() = default;

ExecutionContext make_replay_context(unsigned threads) {
  ExecOptions opts;
  opts.threads = threads;
  return ExecutionContext(opts, /*replay=*/true);
}

threads::Pool& ExecutionContext::pool() {
  if (!pool_) {
    pool_ = std::make_unique<threads::Pool>(num_threads_, affinity_);
  }
  return *pool_;
}

JobGraph& ExecutionContext::jobs() {
  if (!jobs_) {
    jobs_ = std::make_unique<JobGraph>(*this);
  }
  return *jobs_;
}

void ExecutionContext::parallel_static(
    std::size_t num_items, const std::function<void(std::size_t, unsigned)>& fn) {
  if (replay_) {
    for_each_replayed(num_items, fn);
    return;
  }
  threads::parallel_for_static(pool(), num_items, fn);
}

void ExecutionContext::parallel_dynamic(
    std::size_t num_items, const std::function<void(std::size_t, unsigned)>& fn) {
  if (replay_) {
    for_each_replayed(num_items, fn);
    return;
  }
  threads::parallel_for_dynamic(pool(), num_items, fn);
}

std::size_t ExecutionContext::curve_chunks(std::size_t logical_size,
                                           std::size_t padded_capacity) const noexcept {
  constexpr std::size_t kChunksPerThread = 8;
  return std::max<std::size_t>(
      1, num_threads_ * kChunksPerThread * padded_capacity /
             std::max<std::size_t>(1, logical_size));
}

core::AnyVolume ExecutionContext::open_bricked(const std::string& path,
                                               std::uint32_t prefetch_depth) {
  core::BrickOpenOptions opts;
  opts.cache_bytes = memory_.brick_cache_bytes;
  opts.force_stream = memory_.brick_cache_bytes != 0;
  opts.prefetch_depth = prefetch_depth;
  SFCVIS_TRACE_SPAN("exec.open_bricked", opts.cache_bytes != 0 ? "stream" : "mmap");
  return core::AnyVolume(core::BrickedVolume::open(path, opts));
}

core::BrickCacheReport publish_brick_cache_metrics(const core::BrickedVolume& volume) {
  const core::BrickCacheReport delta = volume.drain_cache_deltas();
  auto& tracer = trace::Tracer::instance();
  static const trace::CounterId k_hit = tracer.counter_id("bricked.cache_hit");
  static const trace::CounterId k_miss = tracer.counter_id("bricked.cache_miss");
  static const trace::CounterId k_evict = tracer.counter_id("bricked.evictions");
  static const trace::CounterId k_overflow = tracer.counter_id("bricked.overflow_bricks");
  static const trace::CounterId k_pf_issued = tracer.counter_id("bricked.prefetch_issued");
  static const trace::CounterId k_pf_hits = tracer.counter_id("bricked.prefetch_hits");
  tracer.add(k_hit, delta.hits);
  tracer.add(k_miss, delta.misses);
  tracer.add(k_evict, delta.evictions);
  tracer.add(k_overflow, delta.overflow_bricks);
  tracer.add(k_pf_issued, delta.prefetch_issued);
  tracer.add(k_pf_hits, delta.prefetch_hits);
  return delta;
}

}  // namespace sfcvis::exec
