// Tests for the 3D bilateral filter and the Gaussian baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gaussian.hpp"
#include "sfcvis/memsim/platforms.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace filters = sfcvis::filters;
namespace memsim = sfcvis::memsim;
namespace threads = sfcvis::threads;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;
using core::HilbertLayout;
using core::TiledLayout;
using filters::BilateralParams;
using filters::LoopOrder;
using filters::PencilAxis;

namespace {

constexpr std::uint32_t g_step = 8;

/// Noisy step volume: two flat regions with a sharp boundary plus hashed
/// perturbation — the canonical bilateral-filter stimulus.
template <class GridT>
void fill_noisy_step(GridT& g) {
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const float base = i < g_step ? 0.2f : 0.8f;
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

}  // namespace

// ---------------------------------------------------------------------------
// Weights
// ---------------------------------------------------------------------------

TEST(BilateralWeights, CenterIsOneAndSymmetric) {
  const filters::BilateralWeights w(2, 1.5f);
  EXPECT_FLOAT_EQ(w.spatial(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w.spatial(1, 0, 0), w.spatial(-1, 0, 0));
  EXPECT_FLOAT_EQ(w.spatial(1, 0, 0), w.spatial(0, 1, 0));
  EXPECT_FLOAT_EQ(w.spatial(1, 0, 0), w.spatial(0, 0, 1));
  EXPECT_FLOAT_EQ(w.spatial(2, 1, -1), w.spatial(-2, -1, 1));
}

TEST(BilateralWeights, DecaysWithDistance) {
  const filters::BilateralWeights w(3, 1.0f);
  EXPECT_GT(w.spatial(0, 0, 0), w.spatial(1, 0, 0));
  EXPECT_GT(w.spatial(1, 0, 0), w.spatial(2, 0, 0));
  EXPECT_GT(w.spatial(2, 0, 0), w.spatial(3, 0, 0));
  EXPECT_GT(w.spatial(1, 1, 0), w.spatial(1, 1, 1));
}

TEST(BilateralWeights, RangeTermMatchesGaussian) {
  const float inv2sr2 = 1.0f / (2.0f * 0.1f * 0.1f);
  EXPECT_FLOAT_EQ(filters::BilateralWeights::range(0.0f, inv2sr2), 1.0f);
  EXPECT_NEAR(filters::BilateralWeights::range(0.1f, inv2sr2), std::exp(-0.5f), 1e-6f);
  EXPECT_LT(filters::BilateralWeights::range(0.5f, inv2sr2), 1e-5f);
}

// ---------------------------------------------------------------------------
// Pencil decomposition
// ---------------------------------------------------------------------------

TEST(Pencils, CountAndLengthPerAxis) {
  const Extents3D e{4, 6, 8};
  EXPECT_EQ(filters::pencil_count(e, PencilAxis::kX), 48u);
  EXPECT_EQ(filters::pencil_count(e, PencilAxis::kY), 32u);
  EXPECT_EQ(filters::pencil_count(e, PencilAxis::kZ), 24u);
  EXPECT_EQ(filters::pencil_length(e, PencilAxis::kX), 4u);
  EXPECT_EQ(filters::pencil_length(e, PencilAxis::kY), 6u);
  EXPECT_EQ(filters::pencil_length(e, PencilAxis::kZ), 8u);
}

TEST(Pencils, EveryVoxelCoveredExactlyOnce) {
  const Extents3D e{5, 7, 3};
  for (const auto axis : {PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ}) {
    Grid3D<int, ArrayOrderLayout> cover(e);
    const std::size_t pencils = filters::pencil_count(e, axis);
    const std::uint32_t len = filters::pencil_length(e, axis);
    for (std::size_t p = 0; p < pencils; ++p) {
      const auto pc = filters::pencil_coords(e, axis, p);
      for (std::uint32_t t = 0; t < len; ++t) {
        const auto v = filters::pencil_voxel(axis, pc, t);
        ASSERT_TRUE(e.contains(v.i, v.j, v.k));
        cover.at(v.i, v.j, v.k) += 1;
      }
    }
    cover.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      ASSERT_EQ(cover.at(i, j, k), 1) << to_string(axis);
    });
  }
}

// ---------------------------------------------------------------------------
// Filter semantics (vs the serial reference oracle)
// ---------------------------------------------------------------------------

TEST(BilateralSemantics, IdentityOnConstantVolume) {
  const Extents3D e{10, 10, 10};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  src.fill_from([](auto, auto, auto) { return 0.4f; });
  exec::ExecutionContext pool(2);
  filters::bilateral_parallel(src, dst, BilateralParams{2, 1.5f, 0.1f}, pool);
  dst.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_NEAR(dst.at(i, j, k), 0.4f, 1e-6f);
  });
}

TEST(BilateralSemantics, SmoothsNoiseWithinRegions) {
  const Extents3D e{16, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  fill_noisy_step(src);
  exec::ExecutionContext pool(2);
  filters::bilateral_parallel(src, dst, BilateralParams{2, 2.0f, 0.2f}, pool);
  // Variance within the left flat region must drop.
  auto region_variance = [&](const auto& g) {
    double sum = 0, sum2 = 0;
    int n = 0;
    for (std::uint32_t k = 2; k < 6; ++k) {
      for (std::uint32_t j = 2; j < 6; ++j) {
        for (std::uint32_t i = 2; i < 6; ++i) {
          const double v = g.at(i, j, k);
          sum += v;
          sum2 += v * v;
          ++n;
        }
      }
    }
    const double mean = sum / n;
    return sum2 / n - mean * mean;
  };
  EXPECT_LT(region_variance(dst), 0.25 * region_variance(src));
}

TEST(BilateralSemantics, PreservesEdgesBetterThanGaussian) {
  const Extents3D e{16, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e), bilat(e), gauss(e);
  fill_noisy_step(src);
  exec::ExecutionContext pool(2);
  filters::bilateral_parallel(src, bilat, BilateralParams{2, 2.0f, 0.1f}, pool);
  filters::gaussian_convolve(src, gauss, 2, 2.0f, pool);
  // Edge magnitude across the step at i = 7|8.
  auto edge = [&](const auto& g) {
    double mag = 0;
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        mag += std::abs(g.at(g_step, j, k) - g.at(g_step - 1, j, k));
      }
    }
    return mag;
  };
  EXPECT_GT(edge(bilat), 2.0 * edge(gauss));
}

TEST(BilateralSemantics, MatchesReferenceAllRadii) {
  const Extents3D e{12, 10, 8};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  exec::ExecutionContext pool(3);
  for (const unsigned radius : {1u, 2u, 3u}) {
    Grid3D<float, ArrayOrderLayout> expected(e), got(e);
    filters::bilateral_reference(src, expected, radius, 1.5f, 0.15f);
    filters::bilateral_parallel(src, got, BilateralParams{radius, 1.5f, 0.15f}, pool);
    expect_grids_near(expected, got, 1e-5f);
  }
}

TEST(BilateralSemantics, RejectsSigmaWithNonFiniteFalloff) {
  // Either sigma with a non-finite 1 / (2 sigma^2) would make the centre
  // tap compute 0 * inf = NaN and turn every output voxel into NaN. Every
  // driver (pencil, gather, curve sweep) must reject it up front.
  const Extents3D e = Extents3D::cube(6);
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  fill_noisy_step(src);
  exec::ExecutionContext pool(2);
  for (const float bad : {0.0f, std::numeric_limits<float>::quiet_NaN(), 1e-20f}) {
    for (const bool spatial : {false, true}) {
      BilateralParams params;
      (spatial ? params.sigma_spatial : params.sigma_range) = bad;
      SCOPED_TRACE(::testing::Message() << "sigma=" << bad << " spatial=" << spatial);
      for (const bool gather : {false, true}) {
        params.use_gather = gather;
        EXPECT_THROW(filters::bilateral_parallel(src, dst, params, pool),
                     std::invalid_argument);
      }
      EXPECT_THROW(filters::bilateral_zsweep(src, dst, params, pool), std::invalid_argument);
    }
  }
  // A tiny, infinite or negative sigma keeps the scale finite and is valid.
  for (const float ok : {1e-19f, std::numeric_limits<float>::infinity(), -0.2f}) {
    for (const bool gather : {false, true}) {
      BilateralParams params;
      params.sigma_spatial = ok;
      params.sigma_range = ok;
      params.use_gather = gather;
      filters::bilateral_parallel(src, dst, params, pool);
      dst.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
        ASSERT_TRUE(std::isfinite(dst.at(i, j, k))) << "sigma=" << ok << " gather=" << gather;
      });
    }
  }
}

// The key transparency property (paper Sec. III-C): results are identical
// regardless of source layout, pencil axis, and loop order — only the
// performance differs. Parameterized sweep over the full cross product.
class BilateralConfigSweep
    : public ::testing::TestWithParam<std::tuple<PencilAxis, LoopOrder, unsigned>> {};

TEST_P(BilateralConfigSweep, AllLayoutsMatchReference) {
  const auto [pencil, order, nthreads] = GetParam();
  const Extents3D e{11, 9, 7};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  const auto src_z = core::convert_layout<GeneralizedMortonLayout>(src);
  const auto src_t = core::convert_layout<TiledLayout>(src);
  const auto src_h = core::convert_layout<HilbertLayout>(src);

  BilateralParams params{1, 1.5f, 0.15f, pencil, order};
  Grid3D<float, ArrayOrderLayout> expected(e);
  filters::bilateral_reference(src, expected, params.radius, params.sigma_spatial,
                               params.sigma_range);

  exec::ExecutionContext pool(nthreads);
  Grid3D<float, ArrayOrderLayout> got(e);
  filters::bilateral_parallel(src, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
  filters::bilateral_parallel(src_z, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
  filters::bilateral_parallel(src_t, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
  filters::bilateral_parallel(src_h, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    PencilOrderThreads, BilateralConfigSweep,
    ::testing::Combine(::testing::Values(PencilAxis::kX, PencilAxis::kY, PencilAxis::kZ),
                       ::testing::Values(LoopOrder::kXYZ, LoopOrder::kZYX),
                       ::testing::Values(1u, 2u, 5u)),
    [](const ::testing::TestParamInfo<std::tuple<PencilAxis, LoopOrder, unsigned>>& param) {
      return std::string(filters::to_string(std::get<0>(param.param))) + "_" +
             std::string(filters::to_string(std::get<1>(param.param))) + "_t" +
             std::to_string(std::get<2>(param.param));
    });

TEST(BilateralTraced, ProducesSameResultAndCounts) {
  const Extents3D e{12, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  const BilateralParams params{1, 1.5f, 0.15f};

  Grid3D<float, ArrayOrderLayout> expected(e);
  filters::bilateral_reference(src, expected, params.radius, params.sigma_spatial,
                               params.sigma_range);

  memsim::Hierarchy hierarchy(memsim::tiny_test_platform(), 2);
  Grid3D<float, ArrayOrderLayout> got(e);
  auto replay_ctx = exec::make_replay_context(hierarchy.num_threads());
  replay_ctx.jobs().replay(
      filters::bilateral_job(src, got, params, core::traced_views(hierarchy)));
  expect_grids_near(expected, got, 1e-5f);

  // Every stencil tap goes through the model: 27 reads + 1 center read per
  // voxel at radius 1.
  EXPECT_EQ(hierarchy.total_accesses(), e.size() * 28);
}

TEST(BilateralTraced, DeterministicCounters) {
  const Extents3D e{10, 10, 10};
  Grid3D<float, GeneralizedMortonLayout> src(e);
  fill_noisy_step(src);
  auto run = [&] {
    memsim::Hierarchy h(memsim::tiny_test_platform(), 4);
    Grid3D<float, ArrayOrderLayout> dst(e);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(
        filters::bilateral_job(src, dst, BilateralParams{1, 1.5f, 0.15f}, core::traced_views(h)));
    return std::make_pair(h.counter("PAPI_L3_TCA"), h.memory_fills());
  };
  EXPECT_EQ(run(), run());
}

TEST(BilateralTraced, ZOrderReducesEscapesInAgainstGrainConfig) {
  // The paper's Fig. 2 effect in miniature: pz+zyx on a volume larger than
  // the tiny L2 produces more private-stack escapes under array order than
  // under Z-order.
  const Extents3D e = Extents3D::cube(24);
  Grid3D<float, ArrayOrderLayout> src_a(e);
  fill_noisy_step(src_a);
  const auto src_z = core::convert_layout<GeneralizedMortonLayout>(src_a);
  const BilateralParams params{2, 1.5f, 0.15f, PencilAxis::kZ, LoopOrder::kZYX};

  Grid3D<float, ArrayOrderLayout> dst(e);
  memsim::Hierarchy ha(memsim::tiny_test_platform(), 2);
  memsim::Hierarchy hz(memsim::tiny_test_platform(), 2);
  auto replay_ctx = exec::make_replay_context(ha.num_threads());
  replay_ctx.jobs().replay(filters::bilateral_job(src_a, dst, params, core::traced_views(ha)));
  replay_ctx.jobs().replay(filters::bilateral_job(src_z, dst, params, core::traced_views(hz)));

  EXPECT_LT(hz.counter("L2_DATA_READ_MISS_MEM_FILL"),
            ha.counter("L2_DATA_READ_MISS_MEM_FILL"));
}

// ---------------------------------------------------------------------------
// Curve-order sweep driver
// ---------------------------------------------------------------------------

TEST(BilateralZSweep, MatchesReferenceOnBothLayouts) {
  const Extents3D e{10, 9, 7};
  Grid3D<float, ArrayOrderLayout> src(e);
  fill_noisy_step(src);
  const auto src_z = core::convert_layout<GeneralizedMortonLayout>(src);
  const BilateralParams params{1, 1.5f, 0.15f};
  Grid3D<float, ArrayOrderLayout> expected(e), got(e);
  filters::bilateral_reference(src, expected, params.radius, params.sigma_spatial,
                               params.sigma_range);
  exec::ExecutionContext pool(3);
  filters::bilateral_zsweep(src, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
  filters::bilateral_zsweep(src_z, got, params, pool);
  expect_grids_near(expected, got, 1e-5f);
}

TEST(BilateralZSweep, TracedMatchesAndIsDeterministic) {
  const Extents3D e{8, 8, 8};
  Grid3D<float, GeneralizedMortonLayout> src(e);
  fill_noisy_step(src);
  const BilateralParams params{1, 1.5f, 0.15f};
  auto run = [&] {
    memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
    Grid3D<float, ArrayOrderLayout> dst(e);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(
        filters::bilateral_zsweep_job(src, dst, params, replay_ctx, core::traced_views(h)));
    return std::make_pair(h.memory_fills(), dst.at(3, 4, 5));
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  // Full (uncapped) traced run covers every voxel: 28 reads per voxel.
  memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
  Grid3D<float, ArrayOrderLayout> dst(e);
  auto replay_ctx = exec::make_replay_context(h.num_threads());
  replay_ctx.jobs().replay(
      filters::bilateral_zsweep_job(src, dst, params, replay_ctx, core::traced_views(h)));
  EXPECT_EQ(h.total_accesses(), e.size() * 28);
}

// ---------------------------------------------------------------------------
// Gaussian baseline
// ---------------------------------------------------------------------------

TEST(Gaussian, Kernel1DNormalizedAndSymmetric) {
  const auto taps = filters::gaussian_kernel_1d(3, 1.2f);
  ASSERT_EQ(taps.size(), 7u);
  float sum = 0;
  for (const float t : taps) {
    sum += t;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(taps[0], taps[6]);
  EXPECT_FLOAT_EQ(taps[1], taps[5]);
  EXPECT_GT(taps[3], taps[2]);
}

TEST(Gaussian, ConvolveIdentityOnConstant) {
  const Extents3D e{8, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  src.fill_from([](auto, auto, auto) { return 0.7f; });
  exec::ExecutionContext pool(2);
  filters::gaussian_convolve(src, dst, 2, 1.5f, pool);
  dst.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_NEAR(dst.at(i, j, k), 0.7f, 1e-5f);
  });
}

TEST(Gaussian, RejectsSigmaWithNonFiniteFalloff) {
  // 1 / (2 sigma^2) is infinite or NaN for these: the centre tap would
  // compute 0 * inf = NaN and every tap would be NaN after normalizing.
  for (const float bad : {0.0f, std::numeric_limits<float>::quiet_NaN(), 1e-20f}) {
    EXPECT_THROW((void)filters::gaussian_kernel_1d(2, bad), std::invalid_argument) << bad;
  }
  // A tiny, infinite or negative sigma keeps the scale finite: valid taps.
  for (const float ok : {1e-19f, std::numeric_limits<float>::infinity(), -1.2f}) {
    for (const float t : filters::gaussian_kernel_1d(2, ok)) {
      EXPECT_TRUE(std::isfinite(t)) << ok;
    }
  }
}

TEST(Gaussian, WorksOnZOrderSource) {
  const Extents3D e{9, 9, 9};
  Grid3D<float, ArrayOrderLayout> src(e), from_a(e), from_z(e);
  fill_noisy_step(src);
  const auto src_z = core::convert_layout<GeneralizedMortonLayout>(src);
  exec::ExecutionContext pool(2);
  filters::gaussian_convolve(src, from_a, 1, 1.0f, pool);
  filters::gaussian_convolve(src_z, from_z, 1, 1.0f, pool);
  expect_grids_near(from_a, from_z, 1e-6f);
}

TEST(Integration, PhantomDenoisingImprovesFidelity) {
  // End-to-end: noisy phantom -> bilateral -> closer to the clean phantom.
  const Extents3D e{24, 24, 24};
  Grid3D<float, ArrayOrderLayout> clean(e), noisy(e), denoised(e);
  data::fill_mri_phantom(clean, {.seed = 9, .texture_amplitude = 0.0f, .noise_sigma = 0.0f});
  data::fill_mri_phantom(noisy, {.seed = 9, .texture_amplitude = 0.0f, .noise_sigma = 0.15f});
  exec::ExecutionContext pool(2);
  filters::bilateral_parallel(noisy, denoised, BilateralParams{2, 1.5f, 0.15f}, pool);
  auto rmse = [&](const auto& g) {
    double sum = 0;
    g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      const double d = g.at(i, j, k) - clean.at(i, j, k);
      sum += d * d;
    });
    return std::sqrt(sum / static_cast<double>(e.size()));
  };
  EXPECT_LT(rmse(denoised), 0.6 * rmse(noisy));
}
