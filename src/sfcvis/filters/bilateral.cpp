#include "sfcvis/filters/bilateral.hpp"

#include <cmath>

namespace sfcvis::filters {

BilateralWeights::BilateralWeights(unsigned radius, float sigma_spatial)
    : radius_(radius) {
  const int r = static_cast<int>(radius);
  const std::size_t width = 2 * static_cast<std::size_t>(radius) + 1;
  table_.resize(width * width * width);
  const float inv2ss2 = 1.0f / (2.0f * sigma_spatial * sigma_spatial);
  std::size_t n = 0;
  for (int dz = -r; dz <= r; ++dz) {
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        const auto d2 = static_cast<float>(dx * dx + dy * dy + dz * dz);
        table_[n++] = std::exp(-d2 * inv2ss2);
      }
    }
  }
}

void validate_sigmas(const BilateralParams& params) {
  detail::require_finite_falloff(params.sigma_spatial, "bilateral sigma_spatial");
  detail::require_finite_falloff(params.sigma_range, "bilateral sigma_range");
}

void BilateralGatherScratch::prepare(const BilateralWeights& weights, PencilAxis pencil) {
  const int r = static_cast<int>(weights.radius());
  width = 2 * weights.radius() + 1;
  plane_size = width * width;
  // Latch the tracing flag once per parallel region: the per-gather check
  // stays a cached bool and untraced runs take the nullptr path.
  collect_run_stats = trace::span_tracing_enabled();
  run_stats = core::GatherRunStats{};
  ring.resize(static_cast<std::size_t>(width) * plane_size);
  wperm.resize(static_cast<std::size_t>(width) * plane_size);
  // [dp][du][dv] -> (dx, dy, dz): dp walks the pencil axis, dv the plane's
  // contiguous row axis (z for x-pencils, x otherwise), du the remaining
  // axis — matching the row orientation bilateral_pencil_gather gathers.
  std::size_t n = 0;
  for (int dp = -r; dp <= r; ++dp) {
    for (int du = -r; du <= r; ++du) {
      for (int dv = -r; dv <= r; ++dv) {
        int dx = 0, dy = 0, dz = 0;
        switch (pencil) {
          case PencilAxis::kX: dx = dp; dy = du; dz = dv; break;
          case PencilAxis::kY: dx = dv; dy = dp; dz = du; break;
          case PencilAxis::kZ: dx = dv; dy = du; dz = dp; break;
        }
        wperm[n++] = weights.spatial(dx, dy, dz);
      }
    }
  }
}

std::size_t pencil_count(const core::Extents3D& e, PencilAxis axis) noexcept {
  switch (axis) {
    case PencilAxis::kX:
      return static_cast<std::size_t>(e.ny) * e.nz;
    case PencilAxis::kY:
      return static_cast<std::size_t>(e.nx) * e.nz;
    case PencilAxis::kZ:
      return static_cast<std::size_t>(e.nx) * e.ny;
  }
  return 0;
}

std::uint32_t pencil_length(const core::Extents3D& e, PencilAxis axis) noexcept {
  switch (axis) {
    case PencilAxis::kX:
      return e.nx;
    case PencilAxis::kY:
      return e.ny;
    case PencilAxis::kZ:
      return e.nz;
  }
  return 0;
}

PencilCoords pencil_coords(const core::Extents3D& e, PencilAxis axis,
                           std::size_t pencil) noexcept {
  PencilCoords pc;
  switch (axis) {
    case PencilAxis::kX:  // fixed (j, k)
      pc.a = static_cast<std::uint32_t>(pencil % e.ny);
      pc.b = static_cast<std::uint32_t>(pencil / e.ny);
      break;
    case PencilAxis::kY:  // fixed (i, k)
      pc.a = static_cast<std::uint32_t>(pencil % e.nx);
      pc.b = static_cast<std::uint32_t>(pencil / e.nx);
      break;
    case PencilAxis::kZ:  // fixed (i, j)
      pc.a = static_cast<std::uint32_t>(pencil % e.nx);
      pc.b = static_cast<std::uint32_t>(pencil / e.nx);
      break;
  }
  return pc;
}

core::Coord3D pencil_voxel(PencilAxis axis, PencilCoords pc, std::uint32_t t) noexcept {
  switch (axis) {
    case PencilAxis::kX:
      return core::Coord3D{t, pc.a, pc.b};
    case PencilAxis::kY:
      return core::Coord3D{pc.a, t, pc.b};
    case PencilAxis::kZ:
      return core::Coord3D{pc.a, pc.b, t};
  }
  return {};
}

void bilateral_reference(const core::ArrayVolume& src,
                         core::ArrayVolume& dst,
                         unsigned radius, float sigma_spatial, float sigma_range) {
  // Straight-line transcription of Eqs. 1-3; no pencils, no loop-order
  // options, no views — deliberately boring so it can serve as the oracle.
  const auto& e = src.extents();
  const int r = static_cast<int>(radius);
  const float inv2ss2 = 1.0f / (2.0f * sigma_spatial * sigma_spatial);
  const float inv2sr2 = 1.0f / (2.0f * sigma_range * sigma_range);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const float center = src.at(i, j, k);
        float sum = 0.0f, norm = 0.0f;
        for (int dz = -r; dz <= r; ++dz) {
          for (int dy = -r; dy <= r; ++dy) {
            for (int dx = -r; dx <= r; ++dx) {
              const float sample = src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                                  static_cast<std::int64_t>(j) + dy,
                                                  static_cast<std::int64_t>(k) + dz);
              const auto d2 = static_cast<float>(dx * dx + dy * dy + dz * dz);
              const float diff = sample - center;
              const float w = std::exp(-d2 * inv2ss2) * std::exp(-diff * diff * inv2sr2);
              sum += w * sample;
              norm += w;
            }
          }
        }
        dst.at(i, j, k) = sum / norm;
      }
    }
  }
}

}  // namespace sfcvis::filters
