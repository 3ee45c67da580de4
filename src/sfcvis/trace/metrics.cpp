#include "sfcvis/trace/metrics.hpp"

#include <algorithm>

namespace sfcvis::trace {

const CounterMetric* MetricsSnapshot::find_counter(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::total(std::string_view name) const noexcept {
  const CounterMetric* c = find_counter(name);
  return c == nullptr ? 0 : c->total;
}

double load_imbalance(const std::vector<ThreadValue>& values) noexcept {
  if (values.size() < 2) {
    return 0.0;
  }
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  for (const auto& v : values) {
    sum += v.value;
    max = std::max(max, v.value);
  }
  if (sum == 0) {
    return 0.0;
  }
  const double mean = static_cast<double>(sum) / static_cast<double>(values.size());
  return (static_cast<double>(max) - mean) / mean;
}

}  // namespace sfcvis::trace
