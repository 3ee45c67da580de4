// Property-based suites: invariants swept over parameter grids with
// TEST_P / INSTANTIATE_TEST_SUITE_P, plus analytic cache-model checks.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/render/raycast.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace filters = sfcvis::filters;
namespace memsim = sfcvis::memsim;
namespace render = sfcvis::render;
namespace threads = sfcvis::threads;

using core::Extents3D;

// ---------------------------------------------------------------------------
// Layout invariants over an extents grid
// ---------------------------------------------------------------------------

class LayoutExtentsSweep : public ::testing::TestWithParam<Extents3D> {};

TEST_P(LayoutExtentsSweep, AllLayoutsBijectiveWithinCapacity) {
  const Extents3D e = GetParam();
  auto check = [&](const auto& layout) {
    std::vector<bool> seen(layout.required_capacity(), false);
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          const auto idx = layout.index(i, j, k);
          ASSERT_LT(idx, seen.size());
          ASSERT_FALSE(seen[idx]);
          seen[idx] = true;
        }
      }
    }
    EXPECT_GE(layout.required_capacity(), e.size());
  };
  check(core::ArrayOrderLayout(e));
  check(core::GeneralizedMortonLayout(e));
  check(core::TiledLayout(e));
  check(core::HilbertLayout(e));
}

TEST_P(LayoutExtentsSweep, ZOrderPaddingIsTight) {
  // Capacity is exactly the product of the per-axis power-of-two paddings,
  // never more (the anisotropic generator is compact).
  const Extents3D e = GetParam();
  const auto p = core::padded_pow2(e);
  EXPECT_EQ(core::GeneralizedMortonLayout(e).required_capacity(), p.size());
}

INSTANTIATE_TEST_SUITE_P(
    ExtentsGrid, LayoutExtentsSweep,
    ::testing::Values(Extents3D{1, 1, 1}, Extents3D{2, 2, 2}, Extents3D{3, 3, 3},
                      Extents3D{4, 4, 4}, Extents3D{5, 3, 2}, Extents3D{7, 7, 7},
                      Extents3D{8, 8, 8}, Extents3D{9, 8, 7}, Extents3D{16, 1, 1},
                      Extents3D{1, 16, 1}, Extents3D{1, 1, 16}, Extents3D{12, 10, 6},
                      Extents3D{17, 5, 3}, Extents3D{32, 16, 8}, Extents3D{33, 17, 9}),
    [](const ::testing::TestParamInfo<Extents3D>& param) {
      return std::to_string(param.param.nx) + "x" + std::to_string(param.param.ny) + "x" +
             std::to_string(param.param.nz);
    });

// ---------------------------------------------------------------------------
// Z-order recursive-blocking property
// ---------------------------------------------------------------------------

TEST(ZOrderRecursion, EveryAlignedOctantIsAContiguousCurveRange) {
  // For every level l and octant m, codes [m*8^l, (m+1)*8^l) decode to an
  // axis-aligned 2^l cube — the property that gives Z-order its locality
  // at every scale.
  std::mt19937 rng(5);
  for (unsigned level = 1; level <= 5; ++level) {
    const std::uint64_t block = 1ull << (3 * level);
    const std::uint32_t side = 1u << level;
    for (int trial = 0; trial < 20; ++trial) {
      const std::uint64_t m = rng() % 512;
      const auto base = core::morton_decode_3d(m * block);
      EXPECT_EQ(base.x % side, 0u);
      EXPECT_EQ(base.y % side, 0u);
      EXPECT_EQ(base.z % side, 0u);
      for (int probe = 0; probe < 16; ++probe) {
        const std::uint64_t code = m * block + rng() % block;
        const auto c = core::morton_decode_3d(code);
        ASSERT_LT(c.x - base.x, side);
        ASSERT_LT(c.y - base.y, side);
        ASSERT_LT(c.z - base.z, side);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Analytic cache-model checks
// ---------------------------------------------------------------------------

TEST(CacheAnalytic, StrideSweepMissesMatchDistinctLines) {
  // A cold sweep of N accesses at stride S bytes misses exactly once per
  // distinct 64-byte line when the footprint exceeds capacity once through.
  memsim::PlatformSpec spec;
  spec.name = "l1only";
  spec.private_levels = {memsim::CacheConfig{"L1", 4096, 64, 4}};
  for (const std::uint32_t stride : {4u, 8u, 16u, 64u, 128u}) {
    memsim::Hierarchy h(spec, 1);
    const int n = 1024;
    for (int a = 0; a < n; ++a) {
      h.access(0, static_cast<std::uint64_t>(a) * stride, 4);
    }
    // stride < 64 covers lines contiguously; stride >= 64 (a multiple of
    // the line size here) lands every access on its own line.
    const std::uint64_t distinct_lines =
        stride >= 64 ? static_cast<std::uint64_t>(n)
                     : (static_cast<std::uint64_t>(n - 1) * stride + 4 + 63) / 64;
    EXPECT_EQ(h.level_stats()[0].stats.misses, distinct_lines) << "stride " << stride;
  }
}

TEST(CacheAnalytic, ConflictSetThrashesExactly) {
  // assoc+1 lines mapped to one set, accessed cyclically with true LRU:
  // every access misses (the classic LRU pathological case).
  memsim::PlatformSpec spec;
  spec.name = "conflict";
  spec.private_levels = {memsim::CacheConfig{"L1", 4096, 64, 4}};  // 16 sets
  memsim::Hierarchy h(spec, 1);
  const std::uint64_t set_stride = 16ull * 64;  // same set every 16 lines
  const int rounds = 10;
  for (int round = 0; round < rounds; ++round) {
    for (std::uint64_t way = 0; way < 5; ++way) {  // assoc+1 = 5 lines
      h.access(0, way * set_stride, 4);
    }
  }
  EXPECT_EQ(h.level_stats()[0].stats.misses, 5u * rounds);
}

TEST(CacheAnalytic, WorkingSetJustFitsNeverMissesAgain) {
  memsim::PlatformSpec spec;
  spec.name = "fits";
  spec.private_levels = {memsim::CacheConfig{"L1", 4096, 64, 4}};
  memsim::Hierarchy h(spec, 1);
  const std::uint64_t lines = 4096 / 64;
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t line = 0; line < lines; ++line) {
      h.access(0, line * 64, 4);
    }
  }
  EXPECT_EQ(h.level_stats()[0].stats.misses, lines);  // cold misses only
}

// ---------------------------------------------------------------------------
// Kernel invariants under harness parameters
// ---------------------------------------------------------------------------

class RenderTileSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RenderTileSweep, TileSizeNeverChangesPixels) {
  const std::uint32_t tile = GetParam();
  const Extents3D e = Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> g(e);
  data::fill_combustion(g);
  exec::ExecutionContext pool(3);
  const auto tf = render::TransferFunction::flame();
  const auto cam = render::orbit_camera(1, 8, 16, 16, 16);
  const render::RenderConfig reference_config{40, 40, 32, 0.6f, 0.98f};
  const render::RenderConfig config{40, 40, tile, 0.6f, 0.98f};
  const auto reference = render::raycast_parallel(g, cam, tf, reference_config, pool);
  const auto img = render::raycast_parallel(g, cam, tf, config, pool);
  for (std::size_t p = 0; p < img.pixels().size(); ++p) {
    ASSERT_EQ(img.pixels()[p], reference.pixels()[p]) << "tile " << tile;
  }
}

INSTANTIATE_TEST_SUITE_P(Tiles, RenderTileSweep, ::testing::Values(1u, 7u, 8u, 16u, 64u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& param) {
                           return "t" + std::to_string(param.param);
                         });

class BilateralThreadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BilateralThreadSweep, ThreadCountNeverChangesOutput) {
  const unsigned nthreads = GetParam();
  const Extents3D e{10, 8, 6};
  core::Grid3D<float, core::ArrayOrderLayout> src(e), reference(e), got(e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return std::sin(static_cast<float>(i * 3 + j * 5 + k * 7));
  });
  const filters::BilateralParams params{2, 1.5f, 0.2f};
  filters::bilateral_reference(src, reference, params.radius, params.sigma_spatial,
                               params.sigma_range);
  exec::ExecutionContext pool(nthreads);
  filters::bilateral_parallel(src, got, params, pool);
  reference.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_NEAR(got.at(i, j, k), reference.at(i, j, k), 1e-5f);
  });
}

INSTANTIATE_TEST_SUITE_P(Threads, BilateralThreadSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u),
                         [](const ::testing::TestParamInfo<unsigned>& param) {
                           return "t" + std::to_string(param.param);
                         });

// ---------------------------------------------------------------------------
// Traced-run invariants across platform models
// ---------------------------------------------------------------------------

class PlatformSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PlatformSweep, TracedCountersAreDeterministicAndOrdered) {
  const auto spec = memsim::scaled(memsim::platform_by_name(GetParam()), 64);
  const Extents3D e = Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> src(e);
  data::fill_combustion(src);
  core::Grid3D<float, core::ArrayOrderLayout> dst(e);
  const filters::BilateralParams params{1, 1.5f, 0.1f, filters::PencilAxis::kZ,
                                        filters::LoopOrder::kZYX};
  auto run = [&] {
    memsim::Hierarchy h(spec, 3);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(filters::bilateral_job(src, dst, params, core::traced_views(h)));
    return h;
  };
  const auto h1 = run();
  const auto h2 = run();
  EXPECT_EQ(h1.memory_fills(), h2.memory_fills());
  EXPECT_EQ(h1.modeled_cycles_max(), h2.modeled_cycles_max());
  // Sanity ordering: level accesses decrease down the hierarchy.
  const auto levels = h1.level_stats();
  for (std::size_t l = 1; l < levels.size(); ++l) {
    EXPECT_LE(levels[l].stats.accesses, levels[l - 1].stats.accesses);
  }
  EXPECT_LE(h1.memory_fills(), levels.back().stats.accesses);
}

INSTANTIATE_TEST_SUITE_P(Platforms, PlatformSweep,
                         ::testing::Values("ivybridge", "mic", "tiny"));
