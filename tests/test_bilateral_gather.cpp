// Tests for the bilateral filter's sliding-window gather fast path
// (filters/bilateral.hpp: BilateralParams::use_gather) and its supporting
// pieces: fast_exp_neg, the quantized photometric LUT, and the degenerate
// volume shapes where every driver must fall back to the clamped kernel.
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
// Quantized photometric LUT
// ---------------------------------------------------------------------------

TEST(RangeLut, WeightLevelErrorBounded) {
  const float sigma_r = 0.1f;
  BilateralParams params;
  params.sigma_range = sigma_r;
  params.use_range_lut = true;
  const filters::BilateralWeights w(params);
  ASSERT_TRUE(w.has_range_lut());
  const float inv2sr2 = 1.0f / (2.0f * sigma_r * sigma_r);
  for (double diff = 0.0; diff <= 1.0; diff += 0.0004) {
    const float d = static_cast<float>(diff);
    const float exact = filters::BilateralWeights::range(d, inv2sr2);
    const float lut = w.range_lut(d);
    // Interpolation bound: (du^2)/8 = (16/1024)^2 / 8 ~ 3.05e-5, plus the
    // exp(-16) ~ 1.1e-7 tail clamp.
    ASSERT_NEAR(lut, exact, 4e-5f) << "diff=" << diff;
  }
}

TEST(RangeLut, OnlyBuiltWhenRequested) {
  BilateralParams params;
  EXPECT_FALSE(filters::BilateralWeights(params).has_range_lut());
  const filters::BilateralWeights plain(params.radius, params.sigma_spatial);
  EXPECT_FALSE(plain.has_range_lut());
  params.use_range_lut = true;
  EXPECT_TRUE(filters::BilateralWeights(params).has_range_lut());
}

TEST(RangeLut, ParamsCtorMatchesSpatialTable) {
  BilateralParams params;
  params.radius = 2;
  params.sigma_spatial = 1.7f;
  const filters::BilateralWeights a(params);
  const filters::BilateralWeights b(params.radius, params.sigma_spatial);
  EXPECT_EQ(a.spatial_table(), b.spatial_table());
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

TEST(BilateralGather, RangeLutOutputWithinLooseTol) {
  const Extents3D e = Extents3D::cube(12);
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, 2, 1.5f, 0.1f);

  BilateralParams params;
  params.radius = 2;
  params.pencil = PencilAxis::kZ;
  params.use_gather = true;
  params.use_range_lut = true;
  expect_grids_near(run_parallel(src, params), ref, 5e-4f);
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

TEST(BilateralGather, FullModeCombinationMatrix) {
  // Sweeps gather x {exact, fast_exp, lut, fast_exp+lut} x all three pencil
  // axes x both iteration orders, on both layouts — the combinations the
  // targeted tests above only sample. Accuracy tiers vs the serial
  // reference follow the documented contracts; cross-layout outputs must
  // be bit-identical for every combination.
  const Extents3D e{12, 11, 13};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, 2, 1.5f, 0.1f);

  for (const PencilAxis axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    for (const LoopOrder order : {LoopOrder::kXYZ, LoopOrder::kZYX}) {
      for (const bool fast : {false, true}) {
        for (const bool lut : {false, true}) {
          BilateralParams params;
          params.radius = 2;
          params.pencil = axis;
          params.order = order;
          params.use_gather = true;
          params.fast_exp = fast;
          params.use_range_lut = lut;
          SCOPED_TRACE(::testing::Message()
                       << "axis=" << static_cast<int>(axis)
                       << " order=" << static_cast<int>(order) << " fast=" << fast
                       << " lut=" << lut);

          const auto out = run_parallel(src, params);
          const auto zout = run_parallel(zsrc, params);
          expect_grids_identical(out, zout);  // layout transparency, always

          if (lut) {
            expect_grids_near(out, ref, 5e-4f);
          } else if (fast) {
            expect_grids_near(out, ref, 1e-5f);
          } else if (axis == PencilAxis::kZ && order == LoopOrder::kXYZ) {
            expect_grids_identical(out, ref);  // shared tap order: exact
          } else {
            expect_grids_near(out, ref, 1e-5f);  // reassociation only
          }
        }
      }
    }
  }
}

TEST(BilateralGather, LutTakesPrecedenceOverFastExp) {
  // With both approximations requested the kernel uses the LUT (fast_exp
  // applies only when the LUT is off); the both-set configuration must be
  // bit-identical to lut-only, not a third numeric behaviour.
  const Extents3D e = Extents3D::cube(10);
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  BilateralParams params;
  params.pencil = PencilAxis::kZ;
  params.use_gather = true;
  params.use_range_lut = true;
  params.fast_exp = false;
  const auto lut_only = run_parallel(src, params);
  params.fast_exp = true;
  expect_grids_identical(run_parallel(src, params), lut_only);
}

// ---------------------------------------------------------------------------
// Degenerate shapes: every driver vs the reference
// ---------------------------------------------------------------------------

namespace {

/// Checks legacy pencil, gather (exact + fast), and zsweep against the
/// serial reference for one volume shape and radius.
void check_degenerate(const Extents3D& e, unsigned radius) {
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  Grid3D<float, GeneralizedMortonLayout> zsrc(e);
  zsrc.copy_from(src);
  Grid3D<float, ArrayOrderLayout> ref(e);
  filters::bilateral_reference(src, ref, radius, 1.5f, 0.1f);

  for (const PencilAxis axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    BilateralParams params;
    params.radius = radius;
    params.pencil = axis;

    params.use_gather = false;
    expect_grids_identical(run_parallel(src, params), ref);
    expect_grids_identical(run_parallel(zsrc, params), ref);

    params.use_gather = true;
    params.fast_exp = false;
    if (axis == PencilAxis::kZ) {
      // Only z-pencils share the reference's tap summation order; x/y
      // gather pencils reassociate the sum (still well under 1e-5).
      expect_grids_identical(run_parallel(src, params), ref);
      expect_grids_identical(run_parallel(zsrc, params), ref);
    } else {
      expect_grids_near(run_parallel(src, params), ref, 1e-5f);
      expect_grids_near(run_parallel(zsrc, params), ref, 1e-5f);
    }

    params.fast_exp = true;
    expect_grids_near(run_parallel(src, params), ref, 1e-5f);
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
  // len == 2r and len == 2r + 1: the gather path must fall back (it needs
  // len > 2r) and still match.
  check_degenerate(Extents3D::cube(4), 2);
  check_degenerate(Extents3D::cube(5), 2);
}

TEST(BilateralDegenerate, RadiusAtLeastExtent) {
  check_degenerate(Extents3D::cube(3), 3);
  check_degenerate(Extents3D{3, 4, 5}, 4);
  check_degenerate(Extents3D{1, 1, 1}, 1);
}

TEST(BilateralDegenerate, ThinSlabs) {
  check_degenerate(Extents3D{9, 9, 2}, 2);
  check_degenerate(Extents3D{2, 9, 9}, 2);
}
