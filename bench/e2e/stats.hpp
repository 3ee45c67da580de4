// Paired-trial statistics for the end-to-end benchmark.
//
// Array-order (A) and Z-order (B) passes run in ABBA-interleaved pairs, so
// slow drift of the machine (frequency, co-tenants, page cache) loads both
// layouts alike. Timings are summarized by their median and quartiles, the
// highest tail percentile that still has at least ten samples beyond it
// (with the sample count), and min-of-N as a secondary column. The
// layout comparison is the paper's Eq. 4, ds = (a - z) / z over the pass
// medians, with a seeded paired bootstrap confidence interval.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sfcvis/bench_util/stats.hpp"
#include "sfcvis/verify/rng.hpp"

namespace e2e::stats {

enum class Side : std::uint8_t { kA, kB };

/// Run order of `pairs` A/B pairs: pair p runs (A, B) when p is even and
/// (B, A) when odd, giving A B B A A B B A ...
[[nodiscard]] inline std::vector<Side> abba_order(std::size_t pairs) {
  std::vector<Side> order;
  order.reserve(2 * pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    const bool a_first = p % 2 == 0;
    order.push_back(a_first ? Side::kA : Side::kB);
    order.push_back(a_first ? Side::kB : Side::kA);
  }
  return order;
}

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics at position q * (n - 1) (Hyndman & Fan type 7). Throws on an
/// empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Highest percentile of {99, 95, 90, 75, 50} with at least ten samples
/// beyond it, i.e. n * (1 - p/100) >= 10; 50 when n < 20 (the median is
/// then reported without a qualifying tail).
[[nodiscard]] inline int tail_percentile(std::size_t n) {
  for (const int p : {99, 95, 90, 75}) {
    if (static_cast<double>(n) * (100 - p) >= 1000.0) {
      return p;
    }
  }
  return 50;
}

struct Summary {
  std::size_t n = 0;
  double median = 0, q1 = 0, q3 = 0, min = 0;
  int tail_pct = 50;  ///< tail_percentile(n)
  double tail = 0;    ///< value at tail_pct
};

[[nodiscard]] inline Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  s.median = quantile(values, 0.5);
  s.q1 = quantile(values, 0.25);
  s.q3 = quantile(values, 0.75);
  s.min = *std::min_element(values.begin(), values.end());
  s.tail_pct = tail_percentile(s.n);
  s.tail = quantile(values, s.tail_pct / 100.0);
  return s;
}

struct Interval {
  double point = 0, lo = 0, hi = 0;
};

/// Eq. 4 on paired passes: ds = (median(a) - median(z)) / median(z),
/// positive when Z-order is faster, with a 95% percentile bootstrap
/// interval that resamples whole (a[i], z[i]) pairs. Deterministic for a
/// given seed. `a` and `z` must be non-empty and of equal length.
[[nodiscard]] inline Interval bootstrap_ds(const std::vector<double>& a,
                                           const std::vector<double>& z, std::uint64_t seed,
                                           unsigned resamples = 2000) {
  if (a.empty() || a.size() != z.size()) {
    throw std::invalid_argument("bootstrap_ds needs equal, non-empty paired samples");
  }
  const auto ds = [](const std::vector<double>& as, const std::vector<double>& zs) {
    return sfcvis::bench_util::scaled_relative_difference(median(as), median(zs));
  };
  Interval out;
  out.point = ds(a, z);
  sfcvis::verify::SplitMix64 rng(seed);
  std::vector<double> draws;
  draws.reserve(resamples);
  std::vector<double> ra(a.size()), rz(z.size());
  for (unsigned r = 0; r < resamples; ++r) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::size_t pick = rng.below(a.size());
      ra[i] = a[pick];
      rz[i] = z[pick];
    }
    draws.push_back(ds(ra, rz));
  }
  out.lo = quantile(draws, 0.025);
  out.hi = quantile(draws, 0.975);
  return out;
}

}  // namespace e2e::stats
