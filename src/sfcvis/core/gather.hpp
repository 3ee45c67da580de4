// Dense row gathers: copy a 1D run of voxels along one axis into contiguous
// scratch storage.
//
// Stencil kernels that re-read the same neighbourhood many times (the
// bilateral filter's sliding window, filters/bilateral.hpp) amortize layout
// indexing by gathering each stencil plane once into dense scratch and then
// iterating the scratch with unit stride. The gather itself is the only
// place that pays layout cost, so it is specialized per layout:
//
//  * generic                 — one layout.index() per element (tiled,
//                              Hilbert, …).
//  * ArrayOrderLayout        — x rows are a single memcpy; y/z rows are
//                              fixed-stride walks (the stride is hoisted out
//                              of the loop).
//  * GeneralizedMortonLayout — incremental masked ripple-add stepping
//                              (GMortonTables::inc_axis; Holzmüller,
//                              arXiv:1710.06384) on any interleave pattern,
//                              the canonical Z curve included. The walk
//                              detects maximal contiguous index runs and
//                              flushes each with one memcpy, so a row load
//                              becomes a handful of run copies instead of
//                              per-voxel table lookups (the same contiguity
//                              GMortonTables::blocks_contiguous exploits at
//                              block granularity).
//
// Precondition for all overloads: the whole row [start, start + n) lies
// inside the grid's logical extents.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/grid.hpp"

namespace sfcvis::core {

/// Axis selector for row-oriented operations on 3D grids.
enum class Axis3 : std::uint8_t { kX, kY, kZ };

/// Contiguous-run statistics of gather_row calls: how long the memcpy-able
/// index runs actually are per layout — the micro-level contiguity signal
/// behind the paper's data-movement argument. Plain accumulator (no trace
/// dependency; core stays leaf): callers merge it into the trace metrics
/// registry (filters do, under "bilateral.gather_run_len").
struct GatherRunStats {
  static constexpr unsigned kBuckets = 16;
  std::uint64_t runs = 0;
  std::uint64_t elements = 0;
  std::uint64_t min_run = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_run = 0;
  std::array<std::uint64_t, kBuckets> len_log2{};  ///< [i]: runs in [2^i, 2^(i+1))

  void note(std::uint64_t run) noexcept { note_runs(1, run); }

  /// Records `count` runs of identical length `len` at once (the strided
  /// paths produce exactly that shape without iterating).
  void note_runs(std::uint64_t count, std::uint64_t len) noexcept {
    runs += count;
    elements += count * len;
    min_run = len < min_run ? len : min_run;
    max_run = len > max_run ? len : max_run;
    const unsigned b = len == 0 ? 0 : static_cast<unsigned>(std::bit_width(len)) - 1;
    len_log2[b < kBuckets ? b : kBuckets - 1] += count;
  }
};

namespace detail {

/// Copies a contiguous run into `out`. Morton runs are usually short (the
/// x-axis pairs elements two by two), where a variable-size memcpy is all
/// call overhead — copy short runs element-wise, long runs in bulk.
template <class T>
inline void copy_run(const T* src, T* out, std::uint32_t run) {
  if (run <= 8) {
    for (std::uint32_t c = 0; c < run; ++c) {
      out[c] = src[c];
    }
    return;
  }
  std::memcpy(out, src, run * sizeof(T));
}

/// Walks `n` voxels from curve index `m`, advancing with `step`, and
/// flushes every maximal contiguous index run with one copy.
template <class T, class StepFn>
void gather_morton_runs(const T* data, std::uint64_t m, std::uint32_t n, T* out,
                        StepFn step, GatherRunStats* rs) {
  std::uint32_t l = 0;
  while (l < n) {
    const std::uint64_t run_begin = m;
    std::uint32_t run = 1;
    while (l + run < n) {
      m = step(m);  // index of element l + run
      if (m != run_begin + run) {
        break;
      }
      ++run;
    }
    copy_run(data + run_begin, out + l, run);
    if (rs != nullptr) {
      rs->note(run);
    }
    l += run;
  }
}

}  // namespace detail

/// Generic gather: one layout.index() per element. Works for every layout.
/// Run stats (optional trailing `rs` on every overload) account what is
/// memcpy-able: this path exploits no contiguity, so n runs of 1.
template <class T, Layout3D L>
void gather_row(const Grid3D<T, L>& g, Axis3 axis, std::uint32_t i, std::uint32_t j,
                std::uint32_t k, std::uint32_t n, T* out, GatherRunStats* rs = nullptr) {
  const L& layout = g.layout();
  const T* data = g.data();
  switch (axis) {
    case Axis3::kX:
      for (std::uint32_t l = 0; l < n; ++l) {
        out[l] = data[layout.index(i + l, j, k)];
      }
      break;
    case Axis3::kY:
      for (std::uint32_t l = 0; l < n; ++l) {
        out[l] = data[layout.index(i, j + l, k)];
      }
      break;
    case Axis3::kZ:
      for (std::uint32_t l = 0; l < n; ++l) {
        out[l] = data[layout.index(i, j, k + l)];
      }
      break;
  }
  if (rs != nullptr && n > 0) {
    rs->note_runs(n, 1);
  }
}

/// Array-order gather: x rows are one memcpy, y/z rows one hoisted stride.
template <class T>
void gather_row(const Grid3D<T, ArrayOrderLayout>& g, Axis3 axis, std::uint32_t i,
                std::uint32_t j, std::uint32_t k, std::uint32_t n, T* out,
                GatherRunStats* rs = nullptr) {
  const auto& e = g.extents();
  const T* base = g.data() + g.layout().index(i, j, k);
  if (axis == Axis3::kX) {
    std::memcpy(out, base, n * sizeof(T));
    if (rs != nullptr && n > 0) {
      rs->note(n);
    }
    return;
  }
  const std::size_t stride =
      axis == Axis3::kY ? e.nx : static_cast<std::size_t>(e.nx) * e.ny;
  for (std::uint32_t l = 0; l < n; ++l) {
    out[l] = base[l * stride];
  }
  if (rs != nullptr && n > 0) {
    rs->note_runs(n, 1);
  }
}

/// Generalized-Morton gather: the masked ripple-add neighbour step works
/// for every interleave pattern (each axis's bit-planes sit in increasing
/// output position), so every family member, Z-order included, gets the
/// same incremental run-detecting walk — no per-voxel table loads.
template <class T>
void gather_row(const Grid3D<T, GeneralizedMortonLayout>& g, Axis3 axis, std::uint32_t i,
                std::uint32_t j, std::uint32_t k, std::uint32_t n, T* out,
                GatherRunStats* rs = nullptr) {
  const GMortonTables& tables = g.layout().tables();
  const T* data = g.data();
  const std::uint64_t m = tables.index(i, j, k);
  const auto ax = static_cast<unsigned>(axis);
  detail::gather_morton_runs(
      data, m, n, out, [&tables, ax](std::uint64_t z) { return tables.inc_axis(z, ax); },
      rs);
}

}  // namespace sfcvis::core
