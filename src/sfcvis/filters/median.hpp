// 3D median filter — another stencil-based, structured-access kernel from
// the visualization toolbox. Unlike the bilateral filter its per-voxel
// work is a selection (nth_element) rather than weighted accumulation, so
// it stresses the memory system with the same footprint but a different
// compute/access ratio — a useful second data point for the layout study.
#pragma once

#include <algorithm>
#include <vector>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/kernels_common.hpp"

namespace sfcvis::filters {

/// Median of the (2r+1)^3 neighbourhood (clamp borders). `scratch` must
/// provide (2r+1)^3 floats; passing it in keeps the hot loop free of
/// allocation.
template <core::ReadView3D View>
[[nodiscard]] float median_voxel(const View& src, std::uint32_t i, std::uint32_t j,
                                 std::uint32_t k, unsigned radius,
                                 std::vector<float>& scratch) {
  const int r = static_cast<int>(radius);
  scratch.clear();
  for (int dz = -r; dz <= r; ++dz) {
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        scratch.push_back(src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                         static_cast<std::int64_t>(j) + dy,
                                         static_cast<std::int64_t>(k) + dz));
      }
    }
  }
  const auto mid = scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
  std::nth_element(scratch.begin(), mid, scratch.end());
  return *mid;
}

/// Builds the median-filter job (x-pencil decomposition). The job's
/// closures reference `src`/`dst`, which must outlive its run; `views`
/// makes each worker's read view (see core::ReadViews).
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob median_job(const VolT& src, core::ArrayVolume& dst,
                                         unsigned radius, Views views = {}) {
  const core::Extents3D e = src.extents();
  const std::size_t pencils = static_cast<std::size_t>(e.ny) * e.nz;
  const std::size_t taps = static_cast<std::size_t>(2 * radius + 1);
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "median", pencils,
      [src_p, views](unsigned tid) { return views(*src_p, tid); },
      [dst_p, e, radius, taps](const auto& view, std::size_t p, unsigned) {
        std::vector<float> scratch;
        scratch.reserve(taps * taps * taps);
        const auto j = static_cast<std::uint32_t>(p % e.ny);
        const auto k = static_cast<std::uint32_t>(p / e.ny);
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          dst_p->at(i, j, k) = median_voxel(view, i, j, k, radius, scratch);
        }
      },
      "median.parallel");
}

/// Parallel 3D median filter over x-pencils.
template <core::VolumeBackend VolT>
void median_filter(const VolT& src, core::ArrayVolume& dst,
                   unsigned radius, exec::ExecutionContext& ctx) {
  detail::run_job(ctx, median_job(src, dst, radius));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void median_filter(const core::AnyVolume& src, core::ArrayVolume& dst,
                          unsigned radius, exec::ExecutionContext& ctx) {
  src.visit([&](const auto& grid) { median_filter(grid, dst, radius, ctx); });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob median_job(const core::AnyVolume& src, core::ArrayVolume& dst,
                                         unsigned radius, Views views = {}) {
  return src.visit([&](const auto& grid) { return median_job(grid, dst, radius, views); });
}

}  // namespace sfcvis::filters
