// The differential-testing oracle: compare two kernel outputs under an
// explicit tolerance tier and report the *first* divergence with enough
// context to reproduce it — the (i, j, k) voxel or (x, y, channel) pixel,
// both values, their ULP distance, and the comparison's own description.
//
// Tolerance tiers (DESIGN.md Sec. 6) encode the library's accuracy
// contracts rather than an arbitrary epsilon:
//
//  * bit_identical — layouts and acceleration structures must never change
//    the answer (paper Sec. III-C; macrocell skipping; exact gather mode).
//  * absolute(eps) — reassociated tap sums, the documented fast_exp_neg
//    approximation (1e-5) and geometry-perturbing metamorphic checks.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/render/image.hpp"

namespace sfcvis::verify {

/// Order-preserving ULP distance between two floats: the number of
/// representable values between them (0 = bit-identical up to -0/+0).
/// Any NaN on either side maps to the maximum distance.
[[nodiscard]] std::uint64_t ulp_distance(float a, float b) noexcept;

/// How strictly two outputs must agree.
struct Tolerance {
  enum class Kind : std::uint8_t { kBitIdentical, kAbsolute };

  Kind kind = Kind::kBitIdentical;
  float max_abs = 0.0f;

  [[nodiscard]] static constexpr Tolerance bit_identical() noexcept { return {}; }
  [[nodiscard]] static constexpr Tolerance absolute(float eps) noexcept {
    return Tolerance{Kind::kAbsolute, eps};
  }

  /// True when `expected` and `actual` agree under this tier.
  [[nodiscard]] bool accepts(float expected, float actual) const noexcept {
    switch (kind) {
      case Kind::kBitIdentical:
        return ulp_distance(expected, actual) == 0;
      case Kind::kAbsolute:
        return std::abs(expected - actual) <= max_abs &&
               !std::isnan(expected - actual);
    }
    return false;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Result of one oracle comparison. On failure, coordinates pin the first
/// divergent element in comparison order (grids: array-order i fastest;
/// images: x fastest, channel = 0..3 for r/g/b/a).
struct DiffReport {
  bool ok = true;
  std::string context;        ///< what was compared (kernel, config, layouts)
  Tolerance tolerance;        ///< the tier the comparison ran under
  std::uint64_t mismatches = 0;  ///< total elements outside tolerance
  std::uint64_t compared = 0;    ///< total elements compared

  // First divergence only:
  std::uint32_t i = 0, j = 0, k = 0;  ///< voxel (i,j,k) or pixel (x, y, channel)
  float expected = 0.0f;
  float actual = 0.0f;
  std::uint64_t ulps = 0;

  /// One-line human-readable verdict, e.g.
  /// "FAIL bilateral r2 pz xyz gather [z-order vs array-order]: first
  ///  divergence at (3,7,1): expected 0.52 actual 0.53 (ulps=...,
  ///  |diff|=...), 17/4096 mismatched, tier=bit-identical".
  [[nodiscard]] std::string to_string() const;
};

namespace detail {

/// Element-wise comparison core shared by the grid and image overloads:
/// `fetch(n)` returns the n-th (expected, actual) pair, `coord(n)` its
/// coordinates for the report.
template <class FetchFn, class CoordFn>
[[nodiscard]] DiffReport compare_elements(std::uint64_t count, const Tolerance& tol,
                                          std::string context, FetchFn&& fetch,
                                          CoordFn&& coord) {
  DiffReport report;
  report.context = std::move(context);
  report.tolerance = tol;
  report.compared = count;
  for (std::uint64_t n = 0; n < count; ++n) {
    const auto [expected, actual] = fetch(n);
    if (tol.accepts(expected, actual)) {
      continue;
    }
    if (report.ok) {
      report.ok = false;
      const auto [ci, cj, ck] = coord(n);
      report.i = ci;
      report.j = cj;
      report.k = ck;
      report.expected = expected;
      report.actual = actual;
      report.ulps = ulp_distance(expected, actual);
    }
    ++report.mismatches;
  }
  return report;
}

}  // namespace detail

/// Compares the logical contents of two grids (any layout pair; extents
/// must match — mismatched extents report as a failure, not UB).
template <class T, core::Layout3D LA, core::Layout3D LB>
[[nodiscard]] DiffReport compare_grids(const core::Grid3D<T, LA>& expected,
                                       const core::Grid3D<T, LB>& actual,
                                       const Tolerance& tol, std::string context) {
  const core::Extents3D e = expected.extents();
  if (!(e == actual.extents())) {
    DiffReport report;
    report.ok = false;
    report.context = std::move(context) + " [extents mismatch]";
    report.tolerance = tol;
    report.mismatches = 1;
    return report;
  }
  return detail::compare_elements(
      e.size(), tol, std::move(context),
      [&](std::uint64_t n) {
        const auto i = static_cast<std::uint32_t>(n % e.nx);
        const auto j = static_cast<std::uint32_t>((n / e.nx) % e.ny);
        const auto k = static_cast<std::uint32_t>(n / (static_cast<std::uint64_t>(e.nx) * e.ny));
        return std::pair<float, float>(expected.at(i, j, k), actual.at(i, j, k));
      },
      [&](std::uint64_t n) {
        return std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>(
            static_cast<std::uint32_t>(n % e.nx),
            static_cast<std::uint32_t>((n / e.nx) % e.ny),
            static_cast<std::uint32_t>(n / (static_cast<std::uint64_t>(e.nx) * e.ny)));
      });
}

/// Compares two images channel-wise; the report's (i, j, k) is the pixel
/// (x, y) and channel index 0..3 (r, g, b, a).
[[nodiscard]] DiffReport compare_images(const render::Image& expected,
                                        const render::Image& actual, const Tolerance& tol,
                                        std::string context);

/// compare_images against a horizontally mirrored `actual`: pixel (x, y) of
/// `expected` is checked against pixel (width-1-x, y) of `actual` — the
/// oracle of the mirror-flip metamorphic raycaster invariant.
[[nodiscard]] DiffReport compare_images_mirrored_x(const render::Image& expected,
                                                   const render::Image& actual,
                                                   const Tolerance& tol,
                                                   std::string context);

}  // namespace sfcvis::verify
