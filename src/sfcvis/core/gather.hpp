// Dense row gathers: copy a 1D run of voxels along one axis into contiguous
// scratch storage.
//
// Stencil kernels that re-read the same neighbourhood many times (the
// bilateral filter's sliding window, filters/bilateral.hpp) amortize layout
// indexing by gathering each stencil plane once into dense scratch and then
// iterating the scratch with unit stride. The gather is the only place that
// pays layout cost:
//
//  * generic          — one layout.index() per element, for every layout
//                       but array order. On generalized Morton (Z-order
//                       included) the two fixed axes' table terms are
//                       loop-invariant, so each element costs one table
//                       load and one add: the paper's per-axis table form
//                       (Sec. III-C).
//  * ArrayOrderLayout — x rows are a single memcpy; y/z rows are
//                       fixed-stride walks (the stride is hoisted out of
//                       the loop).
//
// Precondition for all overloads: the whole row [start, start + n) lies
// inside the grid's logical extents.
#pragma once

#include <cstdint>
#include <cstring>

#include "sfcvis/core/grid.hpp"

namespace sfcvis::core {

/// Axis selector for row-oriented operations on 3D grids.
enum class Axis3 : std::uint8_t { kX, kY, kZ };

/// Generic gather: one layout.index() per element. Works for every layout.
template <class T, Layout3D L>
void gather_row(const Grid3D<T, L>& g, Axis3 axis, std::uint32_t i, std::uint32_t j,
                std::uint32_t k, std::uint32_t n, T* out) {
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
}

/// Array-order gather: x rows are one memcpy, y/z rows one hoisted stride.
template <class T>
void gather_row(const Grid3D<T, ArrayOrderLayout>& g, Axis3 axis, std::uint32_t i,
                std::uint32_t j, std::uint32_t k, std::uint32_t n, T* out) {
  const auto& e = g.extents();
  const T* base = g.data() + g.layout().index(i, j, k);
  if (axis == Axis3::kX) {
    std::memcpy(out, base, n * sizeof(T));
    return;
  }
  const std::size_t stride =
      axis == Axis3::kY ? e.nx : static_cast<std::size_t>(e.nx) * e.ny;
  for (std::uint32_t l = 0; l < n; ++l) {
    out[l] = base[l * stride];
  }
}

}  // namespace sfcvis::core
