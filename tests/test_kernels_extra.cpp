// Tests for the additional visualization kernels (median filter, gradient
// magnitude), the extra renderer modes (MIP, gradient shading), the
// Marschner-Lobb dataset, and pool affinity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sfcvis/data/marschner_lobb.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/filters/median.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/threads/pool.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace filters = sfcvis::filters;
namespace render = sfcvis::render;
namespace threads = sfcvis::threads;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;

// ---------------------------------------------------------------------------
// Median filter
// ---------------------------------------------------------------------------

TEST(Median, IdentityOnConstant) {
  const Extents3D e{8, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  src.fill_from([](auto, auto, auto) { return 0.3f; });
  exec::ExecutionContext pool(2);
  filters::median_filter(src, dst, 1, pool);
  dst.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(dst.at(i, j, k), 0.3f);
  });
}

TEST(Median, RemovesImpulseNoiseCompletely) {
  // Salt-and-pepper spikes vanish under a median but survive a mean:
  // the defining property.
  const Extents3D e{12, 12, 12};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const std::uint32_t h = (i * 73856093u) ^ (j * 19349663u) ^ (k * 83492791u);
    return (h % 29 == 0) ? 50.0f : 1.0f;  // sparse impulses
  });
  exec::ExecutionContext pool(2);
  filters::median_filter(src, dst, 1, pool);
  float peak = 0;
  dst.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    peak = std::max(peak, dst.at(i, j, k));
  });
  EXPECT_EQ(peak, 1.0f);
}

TEST(Median, MatchesSortReference) {
  const Extents3D e{6, 5, 4};
  Grid3D<float, ArrayOrderLayout> src(e), dst(e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return std::sin(static_cast<float>(i * 7 + j * 3 + k * 11));
  });
  exec::ExecutionContext pool(2);
  filters::median_filter(src, dst, 1, pool);
  // Reference: gather and sort.
  src.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    std::vector<float> taps;
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          taps.push_back(src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                        static_cast<std::int64_t>(j) + dy,
                                        static_cast<std::int64_t>(k) + dz));
        }
      }
    }
    std::sort(taps.begin(), taps.end());
    ASSERT_EQ(dst.at(i, j, k), taps[13]) << i << "," << j << "," << k;
  });
}

TEST(Median, LayoutTransparent) {
  const Extents3D e{9, 7, 5};
  Grid3D<float, ArrayOrderLayout> src(e), from_a(e), from_z(e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>((i * 31 + j * 17 + k * 7) % 23);
  });
  const auto src_z = core::convert_layout<GeneralizedMortonLayout>(src);
  exec::ExecutionContext pool(3);
  filters::median_filter(src, from_a, 2, pool);
  filters::median_filter(src_z, from_z, 2, pool);
  src.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(from_a.at(i, j, k), from_z.at(i, j, k));
  });
}

// ---------------------------------------------------------------------------
// Gradient
// ---------------------------------------------------------------------------

TEST(Gradient, ExactOnLinearField) {
  const Extents3D e{8, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return 2.0f * static_cast<float>(i) - 3.0f * static_cast<float>(j) +
           0.5f * static_cast<float>(k);
  });
  const core::PlainView view(src);
  const auto g = filters::gradient_voxel(view, 4, 4, 4);
  EXPECT_FLOAT_EQ(g[0], 2.0f);
  EXPECT_FLOAT_EQ(g[1], -3.0f);
  EXPECT_FLOAT_EQ(g[2], 0.5f);
}

TEST(Gradient, MagnitudeFieldOnLinearRamp) {
  const Extents3D e{8, 8, 8};
  Grid3D<float, ArrayOrderLayout> src(e), mag(e);
  src.fill_from([](std::uint32_t i, auto, auto) { return 3.0f * static_cast<float>(i); });
  exec::ExecutionContext pool(2);
  filters::gradient_magnitude(src, mag, pool);
  // Interior voxels: |grad| = 3; border x voxels see a halved one-sided
  // difference.
  for (std::uint32_t k = 0; k < 8; ++k) {
    for (std::uint32_t j = 0; j < 8; ++j) {
      for (std::uint32_t i = 1; i < 7; ++i) {
        ASSERT_FLOAT_EQ(mag.at(i, j, k), 3.0f);
      }
      ASSERT_FLOAT_EQ(mag.at(0, j, k), 1.5f);
      ASSERT_FLOAT_EQ(mag.at(7, j, k), 1.5f);
    }
  }
}

TEST(Gradient, ZeroOnConstantField) {
  const Extents3D e{6, 6, 6};
  Grid3D<float, ArrayOrderLayout> src(e), mag(e);
  src.fill_from([](auto, auto, auto) { return 5.0f; });
  exec::ExecutionContext pool(2);
  filters::gradient_magnitude(src, mag, pool);
  mag.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(mag.at(i, j, k), 0.0f);
  });
}

// ---------------------------------------------------------------------------
// Renderer modes
// ---------------------------------------------------------------------------

namespace {

void fill_half_bright(Grid3D<float, ArrayOrderLayout>& g) {
  const auto nz = g.extents().nz;
  g.fill_from([nz](std::uint32_t, std::uint32_t, std::uint32_t k) {
    return k < nz / 2 ? 0.2f : 0.9f;
  });
}

}  // namespace

TEST(RenderModes, MipPicksTheMaximumAlongTheRay) {
  const Extents3D e = Extents3D::cube(16);
  Grid3D<float, ArrayOrderLayout> g(e);
  fill_half_bright(g);
  const core::PlainView view(g);
  const render::TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, 1}}});
  render::RenderConfig config;
  config.mode = render::RenderMode::kMip;
  config.step = 0.5f;
  // A ray along +z passes through both halves; MIP must classify 0.9.
  const render::Ray ray{{8.0f, 8.0f, -5.0f}, {0, 0, 1}};
  const auto out = render::trace_ray(view, ray, tf, config);
  EXPECT_NEAR(out.a, 0.9f, 0.02f);
  // A composite along the same ray saturates opacity instead.
  config.mode = render::RenderMode::kComposite;
  const auto composite = render::trace_ray(view, ray, tf, config);
  EXPECT_GT(composite.a, 0.95f);
}

TEST(RenderModes, MipIsViewDirectionInvariantForReversedRay) {
  const Extents3D e = Extents3D::cube(16);
  Grid3D<float, ArrayOrderLayout> g(e);
  fill_half_bright(g);
  const core::PlainView view(g);
  const render::TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, 1}}});
  render::RenderConfig config;
  config.mode = render::RenderMode::kMip;
  const render::Ray forward{{8.0f, 8.0f, -5.0f}, {0, 0, 1}};
  const render::Ray backward{{8.0f, 8.0f, 20.0f}, {0, 0, -1}};
  const auto fa = render::trace_ray(view, forward, tf, config).a;
  const auto ba = render::trace_ray(view, backward, tf, config).a;
  EXPECT_NEAR(fa, ba, 1e-4f);
}

TEST(RenderModes, GradientShadingDarkensGrazingSurfaces) {
  // A ball lit by a headlight: the silhouette (normal perpendicular to the
  // ray) must be darker than the center (normal parallel to the ray).
  const Extents3D e = Extents3D::cube(32);
  Grid3D<float, ArrayOrderLayout> g(e);
  g.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const float dx = static_cast<float>(i) - 15.5f;
    const float dy = static_cast<float>(j) - 15.5f;
    const float dz = static_cast<float>(k) - 15.5f;
    return (dx * dx + dy * dy + dz * dz) < 100.0f ? 1.0f : 0.0f;
  });
  exec::ExecutionContext pool(2);
  const render::TransferFunction tf(
      {{0.0f, {0, 0, 0, 0}}, {0.5f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, 0.9f}}});
  render::RenderConfig config{64, 64, 16, 0.5f, 0.98f};
  config.shade = true;
  config.ambient = 0.2f;
  const auto cam = render::orbit_camera(0, 8, 32, 32, 32);
  const auto img = render::raycast_parallel(g, cam, tf, config, pool);
  const float center = img.at(32, 32).r;
  // Probe just inside the silhouette: scan from center rightward for the
  // last lit pixel.
  float rim = center;
  for (std::uint32_t x = 32; x < 64; ++x) {
    if (img.at(x, 32).a > 0.3f) {
      rim = img.at(x, 32).r;
    }
  }
  EXPECT_GT(center, 1.5f * rim);
}

TEST(RenderModes, ShadingPreservesLayoutTransparency) {
  const Extents3D e = Extents3D::cube(16);
  Grid3D<float, ArrayOrderLayout> ga(e);
  data::fill_marschner_lobb(ga);
  const auto gz = core::convert_layout<GeneralizedMortonLayout>(ga);
  exec::ExecutionContext pool(2);
  const auto tf = render::TransferFunction::grayscale(0.0f, 1.0f);
  render::RenderConfig config{32, 32, 16, 0.6f, 0.98f};
  config.shade = true;
  const auto cam = render::orbit_camera(3, 8, 16, 16, 16);
  const auto ia = render::raycast_parallel(ga, cam, tf, config, pool);
  const auto iz = render::raycast_parallel(gz, cam, tf, config, pool);
  for (std::size_t p = 0; p < ia.pixels().size(); ++p) {
    ASSERT_EQ(ia.pixels()[p], iz.pixels()[p]);
  }
}

// ---------------------------------------------------------------------------
// Marschner-Lobb
// ---------------------------------------------------------------------------

TEST(MarschnerLobb, RangeAndKnownValues) {
  // At the domain center (x=y=z=0): r=0, rho=cos(2 pi fm), z-term = 1.
  const data::MarschnerLobbParams p;
  const float center = data::marschner_lobb(0.5f, 0.5f, 0.5f, p);
  const float expected =
      (1.0f + p.alpha * (1.0f + std::cos(2.0f * std::numbers::pi_v<float> * p.fm))) /
      (2.0f * (1.0f + p.alpha));
  EXPECT_NEAR(center, expected, 1e-5f);
  for (float u = 0.05f; u < 1.0f; u += 0.13f) {
    for (float v = 0.05f; v < 1.0f; v += 0.17f) {
      for (float w = 0.05f; w < 1.0f; w += 0.19f) {
        const float val = data::marschner_lobb(u, v, w);
        ASSERT_GE(val, 0.0f);
        ASSERT_LE(val, 1.0f);
      }
    }
  }
}

TEST(MarschnerLobb, HasRadialRipples) {
  // Along a radius at z = 0 the signal must oscillate (many local extrema)
  // — the property that makes it a reconstruction stress test.
  int sign_changes = 0;
  float prev = data::marschner_lobb(0.5f, 0.5f, 0.5f);
  float prev_delta = 0;
  for (int s = 1; s <= 200; ++s) {
    const float u = 0.5f + 0.45f * static_cast<float>(s) / 200.0f;
    const float val = data::marschner_lobb(u, 0.5f, 0.5f);
    const float delta = val - prev;
    if (delta * prev_delta < 0) {
      ++sign_changes;
    }
    prev = val;
    if (delta != 0) {
      prev_delta = delta;
    }
  }
  EXPECT_GE(sign_changes, 6);
}

TEST(MarschnerLobb, FillIsLayoutAgnostic) {
  const Extents3D e{16, 16, 16};
  Grid3D<float, ArrayOrderLayout> a(e);
  Grid3D<float, GeneralizedMortonLayout> z(e);
  data::fill_marschner_lobb(a);
  data::fill_marschner_lobb(z);
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(a.at(i, j, k), z.at(i, j, k));
  });
}

// ---------------------------------------------------------------------------
// Pool affinity
// ---------------------------------------------------------------------------

TEST(PoolAffinity, CompactPoolStillRunsJobs) {
  threads::Pool pool(4, threads::Affinity::kCompact);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](unsigned tid) { hits[tid].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // Whether pinning succeeded is host policy; the API must report a stable
  // answer, not crash.
  (void)pool.affinity_applied();
}

TEST(PoolAffinity, DefaultPoolReportsNoAffinity) {
  threads::Pool pool(2);
  EXPECT_FALSE(pool.affinity_applied());
}
