// Tests for the bilateral filter's sliding-window gather fast path
// (filters/bilateral.hpp: BilateralParams::use_gather) and its supporting
// pieces: fast_exp_neg, and the degenerate volume shapes where most or all
// voxels touch a face, so the gather's clamp-to-edge ring must read exactly
// what the clamped per-voxel kernel reads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/fastmath.hpp"
#include "sfcvis/verify/diff.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace filters = sfcvis::filters;
namespace verify = sfcvis::verify;
namespace threads = sfcvis::threads;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;
using filters::BilateralParams;
using filters::LoopOrder;
using filters::PencilAxis;

namespace {

/// Noisy step volume (same stimulus as test_filters.cpp).
template <class GridT>
void fill_noisy_step(GridT& g) {
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const float base = i < 8 ? 0.2f : 0.8f;
    const std::uint32_t h = (i * 73856093u) ^ (j * 19349663u) ^ (k * 83492791u);
    const float noise = (static_cast<float>(h % 1000) / 1000.0f - 0.5f) * 0.06f;
    return base + noise;
  });
}

void expect_grids_near(const Grid3D<float, ArrayOrderLayout>& a,
                       const Grid3D<float, ArrayOrderLayout>& b, float tol) {
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_NEAR(a.at(i, j, k), b.at(i, j, k), tol) << i << "," << j << "," << k;
  });
}

void expect_grids_identical(const Grid3D<float, ArrayOrderLayout>& a,
                            const Grid3D<float, ArrayOrderLayout>& b) {
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(a.at(i, j, k), b.at(i, j, k)) << i << "," << j << "," << k;
  });
}

/// Runs bilateral_parallel over `src` with `params` and returns the output.
template <class Layout>
Grid3D<float, ArrayOrderLayout> run_parallel(const Grid3D<float, Layout>& src,
                                             const BilateralParams& params,
                                             unsigned nthreads = 3) {
  Grid3D<float, ArrayOrderLayout> dst(src.extents());
  exec::ExecutionContext pool(nthreads);
  filters::bilateral_parallel(src, dst, params, pool);
  return dst;
}

}  // namespace

// ---------------------------------------------------------------------------
// fast_exp_neg
// ---------------------------------------------------------------------------

TEST(FastExp, MatchesExpWithinRelativeBound) {
  // Two error terms: the polynomial truncation (~1e-6 relative) plus the
  // single-precision argument reduction, whose absolute error in
  // t = -u log2(e) grows like u * 2^-24 and turns into relative output
  // error of the same order. Measured worst case is ~7.4e-6 at u ~ 80;
  // in the filter's operating range (u < 8 for non-negligible weights)
  // the bound is ~2e-6.
  for (double u = 0.0; u <= 80.0; u += 0.003) {
    const float approx = filters::fast_exp_neg(static_cast<float>(u));
    const double exact = std::exp(-u);
    const double rel_tol = 1e-6 + 1.2e-7 * u;
    ASSERT_NEAR(approx, exact, rel_tol * exact + 1e-40) << "u=" << u;
  }
}

TEST(FastExp, ZeroIsExactlyOne) { EXPECT_EQ(filters::fast_exp_neg(0.0f), 1.0f); }

TEST(FastExp, MaxUlpPinnedOverOperatingRange) {
  // Pins the worst-case ulp distance from the correctly-rounded exp(-u)
  // over u in [0, 16] — past that exp(-u) < 1.2e-7 and every range weight
  // is noise. A stride-7 sweep of ALL representable floats in the range
  // measured max 15 ulp (at u ~ 13.86); the pin leaves headroom for the
  // unswept neighbours but must catch any coefficient or argument-
  // reduction regression, which shows up hundreds of ulps away. The test
  // walks the same bit-space at a coarser prime stride plus a dense
  // window around the measured worst case.
  constexpr std::uint64_t kMaxUlp = 24;
  const auto check_bits = [](std::uint32_t bits, std::uint64_t& worst) {
    const float u = std::bit_cast<float>(bits);
    const float approx = filters::fast_exp_neg(u);
    const auto exact = static_cast<float>(std::exp(-static_cast<double>(u)));
    const std::uint64_t d = verify::ulp_distance(approx, exact);
    worst = d > worst ? d : worst;
  };
  std::uint64_t worst = 0;
  const auto lo = std::bit_cast<std::uint32_t>(0.0f);
  const auto hi = std::bit_cast<std::uint32_t>(16.0f);
  for (std::uint32_t bits = lo; bits <= hi; bits += 641) {
    check_bits(bits, worst);
  }
  for (std::uint32_t bits = std::bit_cast<std::uint32_t>(13.5f);
       bits <= std::bit_cast<std::uint32_t>(14.25f); ++bits) {
    check_bits(bits, worst);
  }
  EXPECT_LE(worst, kMaxUlp) << "fast_exp_neg drifted from its pinned accuracy";
  EXPECT_GE(worst, 4u) << "measured error implausibly small; is the sweep running?";
}

TEST(FastExp, HugeInputUnderflowsGracefully) {
  // Beyond the clamp knee the result saturates near 2^-125 instead of
  // producing garbage; it must stay finite, tiny, and non-negative.
  for (const float u : {100.0f, 1000.0f, 1e30f}) {
    const float v = filters::fast_exp_neg(u);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1e-37f);
  }
}

// ---------------------------------------------------------------------------
// Gather fast path vs the exact kernels
// ---------------------------------------------------------------------------

TEST(BilateralGather, ExactModeBitIdenticalToReferenceZPencil) {
  // (pz, xyz) gather tap order equals bilateral_reference's dz,dy,dx loop
  // nest, and exact mode performs the same per-tap arithmetic — output
  // must be bit-identical on both layouts.
  const Extents3D e = Extents3D::cube(14);
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, 2, 1.5f, 0.1f);

  BilateralParams params;
  params.radius = 2;
  params.pencil = PencilAxis::kZ;
  params.order = LoopOrder::kXYZ;
  params.use_gather = true;
  params.fast_exp = false;
  expect_grids_identical(run_parallel(src, params), ref);
  expect_grids_identical(run_parallel(zsrc, params), ref);
}

TEST(BilateralGather, ExactModeBitIdenticalToLegacyXPencilZyx) {
  // (px, zyx): gather order [dp=dx][du=dy][dv=dz] equals the legacy kZYX
  // loop nest, so exact mode must match the non-gather driver bitwise.
  const Extents3D e{12, 13, 11};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);

  BilateralParams params;
  params.radius = 2;
  params.pencil = PencilAxis::kX;
  params.order = LoopOrder::kZYX;
  params.use_gather = false;
  const auto legacy = run_parallel(src, params);
  params.use_gather = true;
  params.fast_exp = false;
  expect_grids_identical(run_parallel(src, params), legacy);
}

TEST(BilateralGather, FastExpWithinTolAllAxesAndLayouts) {
  const Extents3D e{13, 12, 14};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, 2, 1.5f, 0.1f);

  for (const PencilAxis axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    BilateralParams params;
    params.radius = 2;
    params.pencil = axis;
    params.use_gather = true;
    params.fast_exp = true;
    expect_grids_near(run_parallel(src, params), ref, 1e-5f);
    expect_grids_near(run_parallel(zsrc, params), ref, 1e-5f);
  }
}

TEST(BilateralGather, MatchesReferenceAcrossRadiiAndThreadCounts) {
  const Extents3D e = Extents3D::cube(11);
  Grid3D<float, ArrayOrderLayout> src(e);
  data::fill_mri_phantom(src);
  for (const unsigned radius : {1u, 2u, 3u}) {
    Grid3D<float, ArrayOrderLayout> ref(e);
    filters::bilateral_reference(src, ref, radius, 1.5f, 0.1f);
    for (const unsigned nthreads : {1u, 2u, 5u}) {
      BilateralParams params;
      params.radius = radius;
      params.pencil = PencilAxis::kZ;
      params.use_gather = true;
      expect_grids_near(run_parallel(src, params, nthreads), ref, 1e-5f);
    }
  }
}

// ---------------------------------------------------------------------------
// Full mode-combination matrix
// ---------------------------------------------------------------------------

namespace {

/// Sweeps gather x {exact, fast_exp} x all three pencil axes x both
/// iteration orders, on both layouts — the combinations the targeted
/// tests above only sample. Accuracy tiers follow the documented
/// contracts: exact mode is bit-identical to the serial reference for
/// (pz, xyz) and to the per-voxel driver for (px, zyx), and within 1e-5
/// of the reference otherwise; fast mode is within 1e-5. Cross-layout
/// outputs must be bit-identical for every combination.
void check_mode_matrix(const Extents3D& e, unsigned radius) {
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, radius, 1.5f, 0.1f);

  for (const PencilAxis axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    for (const LoopOrder order : {LoopOrder::kXYZ, LoopOrder::kZYX}) {
      for (const bool fast : {false, true}) {
        BilateralParams params;
        params.radius = radius;
        params.pencil = axis;
        params.order = order;
        params.use_gather = true;
        params.fast_exp = fast;
        SCOPED_TRACE(::testing::Message()
                     << "extents=" << e.nx << "x" << e.ny << "x" << e.nz << " r" << radius
                     << " axis=" << static_cast<int>(axis)
                     << " order=" << static_cast<int>(order) << " fast=" << fast);

        const auto out = run_parallel(src, params);
        const auto zout = run_parallel(zsrc, params);
        expect_grids_identical(out, zout);  // layout transparency, always

        if (fast) {
          expect_grids_near(out, ref, 1e-5f);
        } else if (axis == PencilAxis::kZ && order == LoopOrder::kXYZ) {
          expect_grids_identical(out, ref);  // shared tap order: exact
        } else if (axis == PencilAxis::kX && order == LoopOrder::kZYX) {
          params.use_gather = false;  // shared tap order with the zyx kernel
          expect_grids_identical(out, run_parallel(src, params));
        } else {
          expect_grids_near(out, ref, 1e-5f);  // reassociation only
        }
      }
    }
  }
}

}  // namespace

TEST(BilateralGather, FullModeCombinationMatrix) { check_mode_matrix(Extents3D{12, 11, 13}, 2); }

TEST(BilateralGather, ModeMatrixWhereEveryVoxelTouchesAFace) {
  // Every axis shorter than the 7-wide stencil: no voxel has a full one.
  check_mode_matrix(Extents3D{3, 4, 5}, 3);
  // A 2-voxel axis at r2: every voxel is within r of two faces.
  check_mode_matrix(Extents3D{2, 9, 9}, 2);
  check_mode_matrix(Extents3D{9, 2, 9}, 2);
  check_mode_matrix(Extents3D{9, 9, 2}, 2);
}

// ---------------------------------------------------------------------------
// Degenerate shapes: every driver vs the reference
// ---------------------------------------------------------------------------

namespace {

/// Checks the per-voxel pencil driver, gather (exact + fast) and zsweep
/// against the serial reference for one volume shape and radius, on both
/// layouts.
void check_degenerate(const Extents3D& e, unsigned radius) {
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, radius, 1.5f, 0.1f);

  for (const PencilAxis axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    SCOPED_TRACE(::testing::Message() << "extents=" << e.nx << "x" << e.ny << "x" << e.nz
                                      << " r" << radius << " axis=" << static_cast<int>(axis));
    BilateralParams params;
    params.radius = radius;
    params.pencil = axis;

    params.use_gather = false;
    expect_grids_identical(run_parallel(src, params), ref);
    expect_grids_identical(run_parallel(zsrc, params), ref);

    params.use_gather = true;
    params.fast_exp = false;
    const auto exact = run_parallel(src, params);
    expect_grids_identical(run_parallel(zsrc, params), exact);
    if (axis == PencilAxis::kZ) {
      // Only z-pencils share the reference's tap summation order; x/y
      // gather pencils reassociate the sum (still well under 1e-5).
      expect_grids_identical(exact, ref);
    } else {
      expect_grids_near(exact, ref, 1e-5f);
    }

    params.fast_exp = true;
    const auto fast = run_parallel(src, params);
    expect_grids_identical(run_parallel(zsrc, params), fast);
    expect_grids_near(fast, ref, 1e-5f);
  }

  BilateralParams zparams;
  zparams.radius = radius;
  Grid3D<float, ArrayOrderLayout> dst(e);
  exec::ExecutionContext pool(3);
  filters::bilateral_zsweep(src, dst, zparams, pool);
  expect_grids_identical(dst, ref);
  filters::bilateral_zsweep(zsrc, dst, zparams, pool);
  expect_grids_identical(dst, ref);
}

}  // namespace

TEST(BilateralDegenerate, UnitExtentAxes) {
  check_degenerate(Extents3D{1, 9, 9}, 2);
  check_degenerate(Extents3D{9, 1, 9}, 2);
  check_degenerate(Extents3D{9, 9, 1}, 2);
}

TEST(BilateralDegenerate, PencilNoLongerThanStencil) {
  // len == 2r and len == 2r + 1: every voxel's stencil crosses a face, so
  // the ring holds clamped planes at both ends of every pencil.
  check_degenerate(Extents3D::cube(4), 2);
  check_degenerate(Extents3D::cube(5), 2);
}

TEST(BilateralDegenerate, RadiusAtLeastExtent) {
  check_degenerate(Extents3D::cube(3), 3);
  check_degenerate(Extents3D{3, 4, 5}, 3);
  check_degenerate(Extents3D{3, 4, 5}, 4);
  check_degenerate(Extents3D{1, 1, 1}, 1);
}

TEST(BilateralDegenerate, ThinSlabs) {
  check_degenerate(Extents3D{9, 9, 2}, 2);
  check_degenerate(Extents3D{9, 2, 9}, 2);
  check_degenerate(Extents3D{2, 9, 9}, 2);
}
