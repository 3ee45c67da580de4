// Merged-at-report-time view of the metrics registry (see trace.hpp).
//
// Kernels accumulate into thread-private slots; MetricsSnapshot is the
// reduce step: per-thread values survive (that is the load-imbalance
// signal) alongside totals and the (max - mean) / mean imbalance figure
// the run report prints per metric and per phase.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sfcvis::trace {

/// Typed metric handle (an index into the registry; see Tracer).
enum class CounterId : std::uint32_t {};

/// One thread's contribution to a metric. `worker_id` is the pool worker
/// id when the thread announced one via set_worker_id (~0u otherwise).
struct ThreadValue {
  unsigned trace_tid = 0;
  unsigned worker_id = ~0u;
  std::uint64_t value = 0;
};

/// A named counter, merged across threads.
struct CounterMetric {
  std::string name;
  std::uint64_t total = 0;
  std::vector<ThreadValue> per_thread;  ///< threads that touched the slot
  /// (max - mean) / mean over per_thread values; 0 when fewer than two
  /// threads contributed. 0 = perfectly balanced, 1 = the busiest thread
  /// did double its fair share.
  double imbalance = 0.0;
};

/// Everything the registry knows, merged. Take while quiescent.
struct MetricsSnapshot {
  std::vector<CounterMetric> counters;

  /// Lookup by name; nullptr when absent.
  [[nodiscard]] const CounterMetric* find_counter(std::string_view name) const noexcept;

  /// Merged total of a counter; 0 when the counter was never registered.
  [[nodiscard]] std::uint64_t total(std::string_view name) const noexcept;
};

/// (max - mean) / mean of `values`; 0 for fewer than two values or an
/// all-zero set. The scheduler-imbalance figure of the run report.
[[nodiscard]] double load_imbalance(const std::vector<ThreadValue>& values) noexcept;

}  // namespace sfcvis::trace
