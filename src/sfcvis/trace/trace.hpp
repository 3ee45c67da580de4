// Low-overhead tracing + metrics subsystem (the observability layer).
//
// The paper's argument is built on memory-system counters correlated with
// runtime; this module makes that evidence *attributable*: which pencil,
// which tile, which traversal phase — on which worker thread — spent the
// time and the cache misses. Three cooperating pieces:
//
//  * Scoped spans. `SFCVIS_TRACE_SPAN("bilateral.pencil", tag, index)`
//    records a begin/end interval into a per-thread ring buffer — no locks
//    and no allocation on the hot path (threads register once, under a
//    mutex, on their first span). A runtime flag (Tracer::enable /
//    disable) gates recording; the disabled path is one relaxed atomic
//    load.
//
//  * Per-span hardware counter deltas. Each tracing thread lazily opens a
//    perfmon::PerfGroup (cache-refs / cache-misses / instructions /
//    cycles, one PERF_FORMAT_GROUP read syscall) and every span stores the
//    begin/end delta. When the kernel refuses, spans degrade to
//    timing-only and the snapshot reports *why* (perf_event_paranoid
//    level etc.) — the fallback is never silent.
//
//  * A metrics registry: named per-thread counters, merged at report
//    time. Kernels accumulate into thread-private slots (no sharing, no
//    atomics — the TSan-clean replacement for the old atomic RenderStats)
//    and the per-thread values expose scheduler load imbalance directly. Metrics work independently of span tracing so
//    deterministic stats (e.g. skip rates) are available in untraced runs.
//
// Concurrency contract: recording is wait-free per thread; enable() /
// disable() / reset() / snapshot() must run while no other thread is
// recording (quiescence — e.g. outside Pool::run regions, whose join
// establishes the needed happens-before). Exporters live in export.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sfcvis/perfmon/perf_events.hpp"
#include "sfcvis/trace/metrics.hpp"

namespace sfcvis::trace {

/// One completed span. `name` and `tag` must be string literals (or other
/// storage outliving the tracer) — records store the pointers only.
struct SpanRecord {
  const char* name = nullptr;
  const char* tag = nullptr;  ///< optional variant label (e.g. "gather"); may be null
  std::uint64_t arg = 0;      ///< numeric payload: pencil/tile/chunk index
  std::uint64_t start_ns = 0; ///< steady-clock; snapshot-relative via epoch_ns
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;    ///< nesting depth on the recording thread
  bool have_counters = false; ///< whether `delta` holds hardware deltas
  perfmon::GroupReading delta{};
};

/// Everything one thread recorded.
struct ThreadTrace {
  unsigned trace_tid = 0;   ///< registration order, stable within a process
  unsigned worker_id = ~0u; ///< pool worker id when known (~0u: not a pool worker)
  std::uint64_t dropped = 0; ///< spans overwritten by ring wraparound
  bool hw_counters = false;  ///< this thread has a live perf group
  perfmon::GroupReading run_total{};  ///< whole-enabled-window counter totals
  std::vector<SpanRecord> spans;      ///< oldest to newest
};

/// A coherent copy of all recorded state (take while quiescent).
struct TraceSnapshot {
  std::uint64_t epoch_ns = 0;  ///< steady-clock ns at enable(); span origin
  bool span_tracing = false;   ///< runtime flag state at snapshot time
  bool hw_counters = false;    ///< any thread had per-span hardware counters
  /// "perf-group" when hardware counters work; otherwise the reported
  /// reason for the timing-only fallback (errno + actionable hint).
  std::string counter_source;
  std::vector<ThreadTrace> threads;

  [[nodiscard]] std::uint64_t total_spans() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : threads) {
      n += t.spans.size();
    }
    return n;
  }
};

/// Runtime knobs of enable().
struct TraceOptions {
  /// Spans per thread before the ring wraps (oldest records are dropped
  /// and counted). ~96 B per slot.
  std::size_t ring_capacity = 1u << 15;
  /// Open a per-thread perf counter group and attach per-span deltas.
  /// Fallback to timing-only is automatic and reported.
  bool with_hw_counters = true;
};

namespace detail {
/// Hot-path gate: one relaxed load decides whether a span records.
extern std::atomic<bool> g_span_enabled;
/// Per-thread recording state (ring, counter group, metric slots).
struct ThreadState;
}  // namespace detail

/// True when span recording is runtime-enabled.
[[nodiscard]] inline bool span_tracing_enabled() noexcept {
  return detail::g_span_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  /// The process-wide tracer (spans and metrics share thread registry).
  [[nodiscard]] static Tracer& instance();

  /// Starts a fresh tracing epoch: clears all rings and metric values,
  /// re-arms per-thread counter groups, sets the span origin, and turns
  /// recording on. Requires quiescence.
  void enable(const TraceOptions& options = {});

  /// Turns span recording off (records are kept for snapshot()).
  void disable();

  /// Drops all recorded spans and metric values. Requires quiescence.
  void reset();

  /// Copies out everything recorded. Requires quiescence.
  [[nodiscard]] TraceSnapshot snapshot();

  // --- metrics registry (usable with span tracing off) -------------------

  /// Registers (or looks up) a named counter. `name` must outlive the
  /// process (string literal). Cheap but locking: call once and cache the
  /// id (function-local static in kernels).
  [[nodiscard]] CounterId counter_id(const char* name);

  /// Adds to the calling thread's private slot. Wait-free after the first
  /// call on a thread.
  void add(CounterId id, std::uint64_t delta);

  /// Merged view of every registered metric. Requires quiescence.
  [[nodiscard]] MetricsSnapshot metrics_snapshot();

  /// Clears metric values (registrations survive). Requires quiescence.
  void reset_metrics();

  // --- introspection ------------------------------------------------------

  /// Threads that have registered (test hook: the disabled span path must
  /// never register one).
  [[nodiscard]] std::size_t registered_threads();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;
  friend class ScopedSpan;
  [[nodiscard]] detail::ThreadState& thread_state();
};

/// Tags the calling thread as pool worker `tid` for attribution in
/// snapshots. Plain thread-local store: never registers or allocates, so
/// Pool workers call it unconditionally at startup.
void set_worker_id(unsigned tid);

/// RAII span. Prefer the SFCVIS_TRACE_SPAN macro, which the compile-time
/// kill switch can erase entirely.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* tag = nullptr,
                      std::uint64_t arg = 0) noexcept {
    if (span_tracing_enabled()) {
      begin(name, tag, arg);
    }
  }
  ~ScopedSpan() {
    if (state_ != nullptr) {
      end();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void begin(const char* name, const char* tag, std::uint64_t arg) noexcept;
  void end() noexcept;

  detail::ThreadState* state_ = nullptr;  ///< null: span is inactive
  const char* name_ = nullptr;
  const char* tag_ = nullptr;
  std::uint64_t arg_ = 0;
  std::uint64_t start_ns_ = 0;
  bool have_counters_ = false;
  perfmon::GroupReading begin_counters_{};
};

}  // namespace sfcvis::trace

#define SFCVIS_TRACE_CONCAT_IMPL(a, b) a##b
#define SFCVIS_TRACE_CONCAT(a, b) SFCVIS_TRACE_CONCAT_IMPL(a, b)
/// Declares a scoped span: SFCVIS_TRACE_SPAN("name"[, tag[, arg]]).
#define SFCVIS_TRACE_SPAN(...) \
  ::sfcvis::trace::ScopedSpan SFCVIS_TRACE_CONCAT(sfcvis_trace_span_, __LINE__)(__VA_ARGS__)
