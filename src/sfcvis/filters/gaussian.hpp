// Plain Gaussian smoothing — the non-edge-preserving baseline the bilateral
// filter is contrasted with (paper Sec. III-A calls the bilateral filter
// "more computationally intensive than a simple convolution kernel").
//
// gaussian_convolve is the direct (2r+1)^3 stencil: the same access
// pattern as the bilateral filter minus the data-dependent term, usable
// with any layout.
#pragma once

#include <cstdint>
#include <vector>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/kernels_common.hpp"

namespace sfcvis::filters {

/// Normalized 1D Gaussian taps for offsets [-radius, radius]. Throws
/// std::invalid_argument when 1 / (2 sigma^2) is not finite.
[[nodiscard]] std::vector<float> gaussian_kernel_1d(unsigned radius, float sigma);

/// Direct dense 3D Gaussian convolution of one voxel (clamp borders).
template <core::ReadView3D View>
[[nodiscard]] float gaussian_voxel(const View& src, std::uint32_t i, std::uint32_t j,
                                   std::uint32_t k, const std::vector<float>& taps) {
  const int r = static_cast<int>(taps.size() / 2);
  float sum = 0.0f;
  for (int dz = -r; dz <= r; ++dz) {
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        const float w = taps[static_cast<std::size_t>(dx + r)] *
                        taps[static_cast<std::size_t>(dy + r)] *
                        taps[static_cast<std::size_t>(dz + r)];
        sum += w * src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                  static_cast<std::int64_t>(j) + dy,
                                  static_cast<std::int64_t>(k) + dz);
      }
    }
  }
  return sum;
}

/// Builds the Gaussian-convolution job (x-pencil decomposition). The
/// job's closures reference `src`/`dst`, which must outlive its run.
/// `views` makes each worker's read view (see core::ReadViews).
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob gaussian_job(const VolT& src, core::ArrayVolume& dst,
                                           unsigned radius, float sigma, Views views = {}) {
  auto taps = std::make_shared<const std::vector<float>>(gaussian_kernel_1d(radius, sigma));
  const core::Extents3D e = src.extents();
  const std::size_t pencils = static_cast<std::size_t>(e.ny) * e.nz;
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "gaussian", pencils,
      [src_p, views](unsigned tid) { return views(*src_p, tid); },
      [dst_p, taps, e](const auto& view, std::size_t p, unsigned) {
        const auto j = static_cast<std::uint32_t>(p % e.ny);
        const auto k = static_cast<std::uint32_t>(p / e.ny);
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          dst_p->at(i, j, k) = gaussian_voxel(view, i, j, k, *taps);
        }
      },
      "gaussian.parallel", "direct");
}

/// Parallel dense Gaussian convolution over x-pencils.
template <core::VolumeBackend VolT>
void gaussian_convolve(const VolT& src, core::ArrayVolume& dst, unsigned radius,
                       float sigma, exec::ExecutionContext& ctx) {
  detail::run_job(ctx, gaussian_job(src, dst, radius, sigma));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void gaussian_convolve(const core::AnyVolume& src, core::ArrayVolume& dst,
                              unsigned radius, float sigma, exec::ExecutionContext& ctx) {
  src.visit([&](const auto& grid) { gaussian_convolve(grid, dst, radius, sigma, ctx); });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob gaussian_job(const core::AnyVolume& src, core::ArrayVolume& dst,
                                           unsigned radius, float sigma, Views views = {}) {
  return src.visit(
      [&](const auto& grid) { return gaussian_job(grid, dst, radius, sigma, views); });
}

}  // namespace sfcvis::filters
