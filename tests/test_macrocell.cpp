// Tests for the macrocell min-max grid and the empty-space-skipping
// raycaster path built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/zquery.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/threads/pool.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace memsim = sfcvis::memsim;
namespace render = sfcvis::render;
namespace threads = sfcvis::threads;
namespace trace = sfcvis::trace;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::Grid3D;
using core::ZOrderLayout;
using render::CellCoord;
using render::Image;
using render::MacrocellGrid;
using render::RenderConfig;
using render::RenderMode;
using render::TransferFunction;
using render::ValueRange;

namespace {

/// Deterministic pseudo-random fill (splitmix-style hash of the index).
template <core::Layout3D L>
void fill_noise(Grid3D<float, L>& g, std::uint64_t seed) {
  const auto& e = g.extents();
  g.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    std::uint64_t x = seed + i + 1000003ull * j + 1000033ull * k;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<float>(x % 100000ull) / 100000.0f;
  });
  (void)e;
}

/// Brute-force oracle: min/max over the one-voxel-widened footprint of
/// cell (cx, cy, cz), mirroring the documented MacrocellGrid contract.
template <core::Layout3D L>
ValueRange brute_range(const Grid3D<float, L>& g, std::uint32_t block, std::uint32_t cx,
                       std::uint32_t cy, std::uint32_t cz) {
  const auto& e = g.extents();
  const std::int64_t b = block;
  const auto lo = [&](std::uint32_t c) { return std::max<std::int64_t>(0, c * b - 1); };
  const auto hi = [&](std::uint32_t c, std::uint32_t n) {
    return std::min<std::int64_t>(n - 1, (c + std::int64_t{1}) * b + 1);
  };
  float mn = std::numeric_limits<float>::max();
  float mx = std::numeric_limits<float>::lowest();
  for (std::int64_t k = lo(cz); k <= hi(cz, e.nz); ++k) {
    for (std::int64_t j = lo(cy); j <= hi(cy, e.ny); ++j) {
      for (std::int64_t i = lo(cx); i <= hi(cx, e.nx); ++i) {
        const float v = g.at(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j),
                             static_cast<std::uint32_t>(k));
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
    }
  }
  return ValueRange{mn, mx};
}

template <core::Layout3D L>
void expect_grid_matches_brute(const Grid3D<float, L>& g, std::uint32_t block) {
  const MacrocellGrid grid = MacrocellGrid::build(g, block);
  const auto& c = grid.cell_extents();
  for (std::uint32_t cz = 0; cz < c.nz; ++cz) {
    for (std::uint32_t cy = 0; cy < c.ny; ++cy) {
      for (std::uint32_t cx = 0; cx < c.nx; ++cx) {
        const ValueRange got = grid.range(cx, cy, cz);
        const ValueRange want = brute_range(g, block, cx, cy, cz);
        ASSERT_EQ(got.min, want.min) << "cell " << cx << "," << cy << "," << cz;
        ASSERT_EQ(got.max, want.max) << "cell " << cx << "," << cy << "," << cz;
      }
    }
  }
}

/// Exact per-channel comparison of two images; returns the mismatch count.
std::size_t count_mismatches(const Image& a, const Image& b) {
  EXPECT_EQ(a.width(), b.width());
  EXPECT_EQ(a.height(), b.height());
  std::size_t bad = 0;
  for (std::uint32_t y = 0; y < a.height(); ++y) {
    for (std::uint32_t x = 0; x < a.width(); ++x) {
      const auto& pa = a.at(x, y);
      const auto& pb = b.at(x, y);
      if (pa.r != pb.r || pa.g != pb.g || pa.b != pb.b || pa.a != pb.a) {
        ++bad;
      }
    }
  }
  return bad;
}

}  // namespace

// ---------------------------------------------------------------------------
// Grid geometry
// ---------------------------------------------------------------------------

TEST(Macrocell, ExtentsCeilDivide) {
  const auto c = render::macrocell_extents(Extents3D{33, 32, 1}, 8);
  EXPECT_EQ(c.nx, 5u);
  EXPECT_EQ(c.ny, 4u);
  EXPECT_EQ(c.nz, 1u);
  EXPECT_THROW((void)render::macrocell_extents(Extents3D{8, 8, 8}, 0),
               std::invalid_argument);
}

TEST(Macrocell, CellOfClampsApron) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{16, 16, 16});
  fill_noise(g, 1);
  const MacrocellGrid grid = MacrocellGrid::build(g, 8);
  // The render bounding box extends half a voxel past the lattice: those
  // apron positions must land in border cells, never out of range.
  const CellCoord lo = grid.cell_of({-0.5f, -0.5f, -0.5f});
  EXPECT_EQ(lo.i, 0u);
  EXPECT_EQ(lo.j, 0u);
  EXPECT_EQ(lo.k, 0u);
  const CellCoord hi = grid.cell_of({15.5f, 15.5f, 15.5f});
  EXPECT_EQ(hi.i, 1u);
  EXPECT_EQ(hi.j, 1u);
  EXPECT_EQ(hi.k, 1u);
}

TEST(Macrocell, CellExitIsNearestForwardFace) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{16, 16, 16});
  fill_noise(g, 2);
  const MacrocellGrid grid = MacrocellGrid::build(g, 8);
  // +x ray from cell (0,0,0): exits through the x = 8 face.
  const render::Vec3 origin{1.0f, 2.0f, 3.0f};
  const render::Vec3 inv{1.0f, std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::infinity()};
  EXPECT_FLOAT_EQ(grid.cell_exit(origin, inv, CellCoord{0, 0, 0}), 7.0f);
  // -x ray from cell (1,0,0): exits through the x = 8 face the other way.
  const render::Vec3 inv_neg{-1.0f, std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::infinity()};
  EXPECT_FLOAT_EQ(grid.cell_exit({12.0f, 2.0f, 3.0f}, inv_neg, CellCoord{1, 0, 0}), 4.0f);
}

// ---------------------------------------------------------------------------
// Min-max correctness vs brute force
// ---------------------------------------------------------------------------

TEST(Macrocell, MinMaxMatchesBruteForceArrayOrder) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{20, 17, 13});  // ragged edges
  fill_noise(g, 3);
  expect_grid_matches_brute(g, 5);  // non-pow2 block
  expect_grid_matches_brute(g, 8);
}

TEST(Macrocell, MinMaxMatchesBruteForceZOrderFastPath) {
  Grid3D<float, ZOrderLayout> g(Extents3D{32, 32, 32});
  fill_noise(g, 4);
  expect_grid_matches_brute(g, 8);  // pow2 block: contiguous-run fast path
  expect_grid_matches_brute(g, 4);
}

TEST(Macrocell, MinMaxMatchesBruteForceZOrderGenericPath) {
  Grid3D<float, ZOrderLayout> g(Extents3D{24, 20, 28});  // padded zorder extents
  fill_noise(g, 5);
  expect_grid_matches_brute(g, 8);  // edge blocks exercise the fallback
  expect_grid_matches_brute(g, 3);  // non-pow2 block: generic path everywhere
}

TEST(Macrocell, ParallelBuildMatchesSerial) {
  Grid3D<float, ZOrderLayout> g(Extents3D{32, 32, 32});
  fill_noise(g, 6);
  exec::ExecutionContext pool(4);
  const MacrocellGrid serial = MacrocellGrid::build(g, 8);
  const MacrocellGrid parallel = MacrocellGrid::build(g, 8, &pool);
  const auto& c = serial.cell_extents();
  for (std::uint32_t cz = 0; cz < c.nz; ++cz) {
    for (std::uint32_t cy = 0; cy < c.ny; ++cy) {
      for (std::uint32_t cx = 0; cx < c.nx; ++cx) {
        EXPECT_EQ(serial.range(cx, cy, cz).min, parallel.range(cx, cy, cz).min);
        EXPECT_EQ(serial.range(cx, cy, cz).max, parallel.range(cx, cy, cz).max);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Morton block ranges / contiguity predicate
// ---------------------------------------------------------------------------

TEST(Macrocell, MortonBlockRangeCoversBlock) {
  // For an aligned 2^b cube under plain Morton interleave, the range is
  // [encode(corner), encode(corner) + 8^b).
  const auto r = core::morton_block_range_3d(2, 1, 3, 2);  // block (8,4,12), b=2
  EXPECT_EQ(r.base, core::morton_encode_3d(8, 4, 12));
  EXPECT_EQ(r.length, 64u);
  std::vector<std::uint64_t> codes;
  for (std::uint32_t z = 12; z < 16; ++z) {
    for (std::uint32_t y = 4; y < 8; ++y) {
      for (std::uint32_t x = 8; x < 12; ++x) {
        codes.push_back(core::morton_encode_3d(x, y, z));
      }
    }
  }
  std::sort(codes.begin(), codes.end());
  for (std::size_t n = 0; n < codes.size(); ++n) {
    EXPECT_EQ(codes[n], r.base + n);
  }
}

TEST(Macrocell, ZorderBlocksContiguousMatchesStorage) {
  // The predicate must agree with the ground truth: enumerate the storage
  // indices of an aligned block and check they form a contiguous run.
  const auto check = [](const Extents3D& e, unsigned block_log2) {
    Grid3D<float, ZOrderLayout> g(e);
    const bool claim =
        core::zorder_blocks_contiguous(g.layout().tables(), block_log2);
    const std::uint32_t b = 1u << block_log2;
    bool all_contiguous = true;
    for (std::uint32_t z0 = 0; z0 + b <= e.nz && all_contiguous; z0 += b) {
      for (std::uint32_t y0 = 0; y0 + b <= e.ny && all_contiguous; y0 += b) {
        for (std::uint32_t x0 = 0; x0 + b <= e.nx && all_contiguous; x0 += b) {
          std::vector<std::size_t> idx;
          for (std::uint32_t z = z0; z < z0 + b; ++z) {
            for (std::uint32_t y = y0; y < y0 + b; ++y) {
              for (std::uint32_t x = x0; x < x0 + b; ++x) {
                idx.push_back(g.layout().index(x, y, z));
              }
            }
          }
          std::sort(idx.begin(), idx.end());
          for (std::size_t n = 0; n + 1 < idx.size(); ++n) {
            if (idx[n + 1] != idx[n] + 1) {
              all_contiguous = false;
            }
          }
        }
      }
    }
    EXPECT_EQ(claim, all_contiguous) << "extents " << e.nx << "x" << e.ny << "x" << e.nz
                                     << " block_log2 " << block_log2;
    return claim;
  };
  // Cubic pow2 extents: standard interleave is contiguous at any b.
  EXPECT_TRUE(check(Extents3D{16, 16, 16}, 2));
  EXPECT_TRUE(check(Extents3D{32, 32, 32}, 3));
  // Whatever anisotropic padding produces, predicate and ground truth must
  // agree (the value itself is layout-defined).
  check(Extents3D{32, 8, 8}, 2);
  check(Extents3D{8, 32, 16}, 3);
}

// ---------------------------------------------------------------------------
// Transfer-function opacity envelope
// ---------------------------------------------------------------------------

TEST(Macrocell, MaxOpacityBoundsDenseSampling) {
  const TransferFunction tf = TransferFunction::flame();
  // Dense alpha sampling as ground truth over a set of intervals.
  const auto dense_max = [&](float lo, float hi) {
    float m = 0.0f;
    const int n = 4000;
    for (int s = 0; s <= n; ++s) {
      const float v = lo + (hi - lo) * static_cast<float>(s) / static_cast<float>(n);
      m = std::max(m, tf.sample(v).a);
    }
    return m;
  };
  const float bin = 1.0f / 256.0f;  // flame spans [0, 1] over 256 bins
  std::uint64_t rng = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const float a = static_cast<float>((rng >> 33) % 10000) / 10000.0f;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const float b = static_cast<float>((rng >> 33) % 10000) / 10000.0f;
    const float lo = std::min(a, b), hi = std::max(a, b);
    const float bound = tf.max_opacity(lo, hi);
    // Conservative: never below the true max...
    EXPECT_GE(bound, dense_max(lo, hi) - 1e-7f) << lo << " " << hi;
    // ...and tight: never above the true max of the two-bin-widened window.
    EXPECT_LE(bound, dense_max(std::max(0.0f, lo - 2 * bin),
                               std::min(1.0f, hi + 2 * bin)) +
                         1e-6f)
        << lo << " " << hi;
  }
}

TEST(Macrocell, MaxOpacityExactZeroInColdRegion) {
  const TransferFunction tf = TransferFunction::flame();
  // flame() holds alpha identically 0 below the fuel-haze point: the
  // envelope must report exact zero there (this is what classifies empty
  // combustion space as skippable).
  EXPECT_EQ(tf.max_opacity(0.0f, 0.10f), 0.0f);
  EXPECT_GT(tf.max_opacity(0.5f, 0.9f), 0.0f);
  // Degenerate interval and reversed arguments are handled.
  EXPECT_EQ(tf.max_opacity(0.05f, 0.05f), 0.0f);
  EXPECT_EQ(tf.max_opacity(0.10f, 0.0f), 0.0f);
}

// ---------------------------------------------------------------------------
// Render equality: accelerated vs dense
// ---------------------------------------------------------------------------

namespace {

template <core::Layout3D L>
void expect_accelerated_render_identical(RenderMode mode, bool shade) {
  Grid3D<float, L> volume(Extents3D{64, 64, 64});
  data::fill_combustion(volume);
  const TransferFunction tf = TransferFunction::flame();
  exec::ExecutionContext pool(4);

  RenderConfig config;
  config.image_width = 96;
  config.image_height = 96;
  config.mode = mode;
  config.shade = shade;

  // Off-axis viewpoint: rays cross macrocell faces on every axis.
  const auto camera = render::orbit_camera(1, 8, 64, 64, 64);
  const Image dense = render::raycast_parallel(volume, camera, tf, config, pool);

  config.use_macrocells = true;
  config.macrocell_size = 8;
  trace::Tracer::instance().reset_metrics();
  const Image accel = render::raycast_parallel(volume, camera, tf, config, pool, nullptr,
                                               /*collect_stats=*/true);
  const trace::MetricsSnapshot metrics = trace::Tracer::instance().metrics_snapshot();

  EXPECT_EQ(count_mismatches(dense, accel), 0u);
  EXPECT_GT(metrics.total("raycast.cells_visited"), 0u);
  // flame TF leaves most space empty
  EXPECT_GT(metrics.total("raycast.samples_skipped"), 0u);
  EXPECT_GT(render::skip_rate(metrics), 0.0);
}

}  // namespace

TEST(MacrocellRender, CompositeIdenticalArrayOrder) {
  expect_accelerated_render_identical<ArrayOrderLayout>(RenderMode::kComposite, false);
}

TEST(MacrocellRender, CompositeIdenticalZOrder) {
  expect_accelerated_render_identical<ZOrderLayout>(RenderMode::kComposite, false);
}

TEST(MacrocellRender, MipIdenticalArrayOrder) {
  expect_accelerated_render_identical<ArrayOrderLayout>(RenderMode::kMip, false);
}

TEST(MacrocellRender, MipIdenticalZOrder) {
  expect_accelerated_render_identical<ZOrderLayout>(RenderMode::kMip, false);
}

TEST(MacrocellRender, ShadedIdenticalArrayOrder) {
  expect_accelerated_render_identical<ArrayOrderLayout>(RenderMode::kComposite, true);
}

TEST(MacrocellRender, ShadedIdenticalZOrder) {
  expect_accelerated_render_identical<ZOrderLayout>(RenderMode::kComposite, true);
}

TEST(MacrocellRender, BlockSizesAgree) {
  Grid3D<float, ArrayOrderLayout> volume(Extents3D{48, 48, 48});
  data::fill_combustion(volume);
  const TransferFunction tf = TransferFunction::flame();
  exec::ExecutionContext pool(4);
  RenderConfig config;
  config.image_width = 64;
  config.image_height = 64;
  const auto camera = render::orbit_camera(3, 8, 48, 48, 48);
  const Image dense = render::raycast_parallel(volume, camera, tf, config, pool);
  config.use_macrocells = true;
  for (const std::uint32_t block : {4u, 7u, 16u}) {
    config.macrocell_size = block;
    const Image accel = render::raycast_parallel(volume, camera, tf, config, pool);
    EXPECT_EQ(count_mismatches(dense, accel), 0u) << "block " << block;
  }
}

// ---------------------------------------------------------------------------
// MIP first-sample guarantee (short spans)
// ---------------------------------------------------------------------------

TEST(MacrocellRender, MipTakesSampleOnSpanShorterThanStep) {
  // A span much shorter than one step still classifies a real field value:
  // the n = 0 sample at t_enter is structural, so the peak can never be
  // the -FLT_MAX sentinel.
  Grid3D<float, ArrayOrderLayout> volume(Extents3D{4, 4, 4});
  volume.fill_from([](std::uint32_t, std::uint32_t, std::uint32_t) { return 0.7f; });
  const TransferFunction tf = TransferFunction::grayscale(0.0f, 1.0f);
  exec::ExecutionContext pool(2);

  RenderConfig config;
  config.image_width = 8;
  config.image_height = 8;
  config.mode = RenderMode::kMip;
  config.step = 50.0f;  // one step overshoots the whole volume
  const auto camera = render::orbit_camera(0, 8, 4, 4, 4);

  for (const bool use_cells : {false, true}) {
    config.use_macrocells = use_cells;
    const Image img = render::raycast_parallel(volume, camera, tf, config, pool);
    const auto& center = img.at(4, 4);
    EXPECT_GT(center.a, 0.0f) << "use_macrocells=" << use_cells;
    EXPECT_FLOAT_EQ(center.a, tf.sample(0.7f).a) << "use_macrocells=" << use_cells;
  }
}

// ---------------------------------------------------------------------------
// Traced (simulated-counter) integration
// ---------------------------------------------------------------------------

TEST(MacrocellRender, TracedSkippingReducesAccessesImageIdentical) {
  Grid3D<float, ZOrderLayout> volume(Extents3D{32, 32, 32});
  data::fill_combustion(volume);
  const TransferFunction tf = TransferFunction::flame();

  RenderConfig config;
  config.image_width = 48;
  config.image_height = 48;
  const auto camera = render::orbit_camera(2, 8, 32, 32, 32);

  memsim::Hierarchy dense_h(memsim::tiny_test_platform(), 2);
  Image dense(config.image_width, config.image_height);
  auto dense_ctx = exec::make_replay_context(dense_h.num_threads());
  dense_ctx.jobs().replay(render::raycast_job(volume, camera, tf, config, dense, nullptr, false,
                                              core::traced_views(dense_h)));

  config.use_macrocells = true;
  config.macrocell_size = 8;
  memsim::Hierarchy accel_h(memsim::tiny_test_platform(), 2);
  trace::Tracer::instance().reset_metrics();
  Image accel(config.image_width, config.image_height);
  auto accel_ctx = exec::make_replay_context(accel_h.num_threads());
  accel_ctx.jobs().replay(render::raycast_job(volume, camera, tf, config, accel, nullptr,
                                              /*collect_stats=*/true, core::traced_views(accel_h)));
  const trace::MetricsSnapshot metrics = trace::Tracer::instance().metrics_snapshot();

  EXPECT_EQ(count_mismatches(dense, accel), 0u);
  EXPECT_GT(metrics.total("raycast.samples_skipped"), 0u);
  // Skipped samples issue no volume reads, so the modeled hierarchy sees a
  // strictly smaller access stream.
  EXPECT_LT(accel_h.total_accesses(), dense_h.total_accesses());
}
