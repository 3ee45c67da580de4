// Central-difference gradient and gradient magnitude — the smallest
// structured-access kernel in the toolbox (6 reads per voxel) and the
// building block the renderer's gradient shading reuses.
#pragma once

#include <array>
#include <cmath>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/kernels_common.hpp"

namespace sfcvis::filters {

/// Central-difference gradient at (i, j, k); borders clamp, so boundary
/// gradients degrade to one-sided differences scaled by 1/2.
template <core::ReadView3D View>
[[nodiscard]] std::array<float, 3> gradient_voxel(const View& src, std::uint32_t i,
                                                  std::uint32_t j, std::uint32_t k) {
  const auto si = static_cast<std::int64_t>(i);
  const auto sj = static_cast<std::int64_t>(j);
  const auto sk = static_cast<std::int64_t>(k);
  return {0.5f * (src.at_clamped(si + 1, sj, sk) - src.at_clamped(si - 1, sj, sk)),
          0.5f * (src.at_clamped(si, sj + 1, sk) - src.at_clamped(si, sj - 1, sk)),
          0.5f * (src.at_clamped(si, sj, sk + 1) - src.at_clamped(si, sj, sk - 1))};
}

/// Builds the gradient-magnitude job (x-pencil decomposition). The job's
/// closures reference `src`/`dst`, which must outlive its run; `views`
/// makes each worker's read view (see core::ReadViews).
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob gradient_job(const VolT& src, core::ArrayVolume& dst,
                                           Views views = {}) {
  const core::Extents3D e = src.extents();
  const std::size_t pencils = static_cast<std::size_t>(e.ny) * e.nz;
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "gradient", pencils,
      [src_p, views](unsigned tid) { return views(*src_p, tid); },
      [dst_p, e](const auto& view, std::size_t p, unsigned) {
        const auto j = static_cast<std::uint32_t>(p % e.ny);
        const auto k = static_cast<std::uint32_t>(p / e.ny);
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          const auto g = gradient_voxel(view, i, j, k);
          dst_p->at(i, j, k) = std::sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2]);
        }
      },
      "gradient.parallel");
}

/// Parallel gradient-magnitude field over x-pencils.
template <core::VolumeBackend VolT>
void gradient_magnitude(const VolT& src, core::ArrayVolume& dst,
                        exec::ExecutionContext& ctx) {
  detail::run_job(ctx, gradient_job(src, dst));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void gradient_magnitude(const core::AnyVolume& src, core::ArrayVolume& dst,
                               exec::ExecutionContext& ctx) {
  src.visit([&](const auto& grid) { gradient_magnitude(grid, dst, ctx); });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob gradient_job(const core::AnyVolume& src, core::ArrayVolume& dst,
                                           Views views = {}) {
  return src.visit([&](const auto& grid) { return gradient_job(grid, dst, views); });
}

}  // namespace sfcvis::filters
