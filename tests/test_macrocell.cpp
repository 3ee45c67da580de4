// Tests for the macrocell min-max grid and the empty-space-skipping
// raycaster path built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/volume.hpp"
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
using core::GeneralizedMortonLayout;
using core::Grid3D;
using render::CellCoord;
using render::Image;
using render::MacrocellGrid;
using render::RenderConfig;
using render::RenderMode;
using render::TransferFunction;
using render::ValueRange;

namespace {

/// A non-canonical pattern over a 32^3 padded box: 8^3 tiles (the low 9
/// output bits hold bit-planes 0-2 of every axis) in row-major order.
constexpr const char* kTunedTiles8 = "xyzxyzzzzyyyxxx";

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

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// 3x2x2 cells of 8 voxels.
MacrocellGrid step_test_grid() {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{24, 16, 16});
  fill_noise(g, 7);
  return MacrocellGrid::build(g, 8);
}

void expect_cell(const CellCoord& c, std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  EXPECT_EQ(c.i, i);
  EXPECT_EQ(c.j, j);
  EXPECT_EQ(c.k, k);
}

}  // namespace

TEST(Macrocell, NextCellCrossesTheNearestFace) {
  const MacrocellGrid grid = step_test_grid();
  // Per-axis exits from (1, 2, 3) with inv (1, 2, 4): x 7, 15, 23; y 12,
  // 28; z 20. The walk takes them in increasing order until x leaves.
  const render::Vec3 origin{1.0f, 2.0f, 3.0f};
  const render::Vec3 inv{1.0f, 2.0f, 4.0f};
  CellCoord c{0, 0, 0};
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 1, 0, 0);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 12.0f);
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 1, 1, 0);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 15.0f);
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 2, 1, 0);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 20.0f);
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 2, 1, 1);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 23.0f);
  EXPECT_FALSE(grid.next_cell(origin, inv, c));  // x = 24 is the grid's face
  expect_cell(c, 2, 1, 1);
  // Backwards from (23, 14, 13) with inv (-1, -2, -4): x 7, 15, 23; y 12,
  // 28; z 20, 52.
  const render::Vec3 back{23.0f, 14.0f, 13.0f};
  const render::Vec3 inv_back{-1.0f, -2.0f, -4.0f};
  c = CellCoord{2, 1, 1};
  ASSERT_TRUE(grid.next_cell(back, inv_back, c));
  expect_cell(c, 1, 1, 1);
  ASSERT_TRUE(grid.next_cell(back, inv_back, c));
  expect_cell(c, 1, 0, 1);
  ASSERT_TRUE(grid.next_cell(back, inv_back, c));
  expect_cell(c, 0, 0, 1);
  ASSERT_TRUE(grid.next_cell(back, inv_back, c));
  expect_cell(c, 0, 0, 0);
  EXPECT_EQ(grid.cell_exit(back, inv_back, c), 23.0f);
  EXPECT_FALSE(grid.next_cell(back, inv_back, c));  // x = 0 is the grid's face
  expect_cell(c, 0, 0, 0);
}

TEST(Macrocell, NextCellBreaksTiesTowardXThenYThenZ) {
  const MacrocellGrid grid = step_test_grid();
  // From (4, 4, 4) every face of cell (0, 0, 0) is 4 away: the ray leaves
  // through the corner, crossing two cells of zero length on the way.
  const render::Vec3 origin{4.0f, 4.0f, 4.0f};
  const render::Vec3 inv{1.0f, 1.0f, 1.0f};
  CellCoord c{0, 0, 0};
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 1, 0, 0);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 4.0f);
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 1, 1, 0);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 4.0f);
  ASSERT_TRUE(grid.next_cell(origin, inv, c));
  expect_cell(c, 1, 1, 1);
  EXPECT_EQ(grid.cell_exit(origin, inv, c), 12.0f);
  // An edge: y and z tie at 4, x is farther (7).
  c = CellCoord{0, 0, 0};
  ASSERT_TRUE(grid.next_cell({1.0f, 4.0f, 4.0f}, inv, c));
  expect_cell(c, 0, 1, 0);
}

TEST(Macrocell, NextCellPassesOverInfiniteAndNanFaces) {
  const MacrocellGrid grid = step_test_grid();
  // dir.x = +0 and dir.z = -0 (inv +inf and -inf): their faces are at
  // +inf, so the ray steps along y only.
  const render::Vec3 inv{kInf, -1.0f, -kInf};
  CellCoord c{0, 1, 0};
  ASSERT_TRUE(grid.next_cell({3.0f, 12.0f, 5.0f}, inv, c));
  expect_cell(c, 0, 0, 0);
  EXPECT_FALSE(grid.next_cell({3.0f, 12.0f, 5.0f}, inv, c));  // y = 0 face
  // An origin on the face plane of a zero direction component makes that
  // term 0 * inf = NaN, which cell_exit's std::min passes over; so does
  // the step.
  const render::Vec3 on_face{3.0f, 8.0f, 5.0f};
  const render::Vec3 inv_nan{1.0f, -kInf, kInf};
  c = CellCoord{0, 1, 0};
  EXPECT_EQ(grid.cell_exit(on_face, inv_nan, c), 5.0f);
  ASSERT_TRUE(grid.next_cell(on_face, inv_nan, c));
  expect_cell(c, 1, 1, 0);
  // Only NaN and +inf terms: the ray leaves by no face.
  c = CellCoord{0, 1, 0};
  EXPECT_FALSE(grid.next_cell(on_face, {kInf, -kInf, kInf}, c));
  expect_cell(c, 0, 1, 0);
  // A -inf term marks a cell the ray is not in (an origin past its upper
  // y face with dir.y = +0): cell_exit is -inf and the step stays put.
  c = CellCoord{0, 0, 0};
  EXPECT_EQ(grid.cell_exit({3.0f, 9.0f, 5.0f}, {1.0f, kInf, kInf}, c), -kInf);
  EXPECT_FALSE(grid.next_cell({3.0f, 9.0f, 5.0f}, {1.0f, kInf, kInf}, c));
  expect_cell(c, 0, 0, 0);
}

TEST(Macrocell, NextCellStopsAtEveryGridFace) {
  const MacrocellGrid grid = step_test_grid();
  // Along each signed axis, from the center of the last cell on that side.
  const struct {
    render::Vec3 inv;
    CellCoord last;
  } faces[] = {{{1.0f, kInf, kInf}, {2, 0, 1}},  {{-1.0f, kInf, kInf}, {0, 1, 0}},
               {{kInf, 1.0f, kInf}, {1, 1, 0}},  {{kInf, -1.0f, kInf}, {2, 0, 1}},
               {{kInf, kInf, 1.0f}, {0, 0, 1}},  {{kInf, kInf, -1.0f}, {1, 1, 0}}};
  for (const auto& f : faces) {
    const render::Vec3 center{8.0f * static_cast<float>(f.last.i) + 4.0f,
                              8.0f * static_cast<float>(f.last.j) + 4.0f,
                              8.0f * static_cast<float>(f.last.k) + 4.0f};
    CellCoord c = f.last;
    EXPECT_EQ(grid.cell_exit(center, f.inv, c), 4.0f);
    EXPECT_FALSE(grid.next_cell(center, f.inv, c));
    expect_cell(c, f.last.i, f.last.j, f.last.k);
  }
}

TEST(Macrocell, NextCellWalksTheCellsARayCrosses) {
  // Random rays through a ragged grid (block 5 over 23x17x13): from the
  // cell of the entry point, next_cell visits cells whose exits never
  // decrease, and the midpoint of every interval longer than a rounding
  // error lies in the cell the walk is in.
  Grid3D<float, ArrayOrderLayout> g(Extents3D{23, 17, 13});
  fill_noise(g, 8);
  const MacrocellGrid grid = MacrocellGrid::build(g, 5);
  std::uint64_t rng = 99;
  const auto uniform = [&] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((rng >> 40) % 100000) / 100000.0f;
  };
  std::uint64_t steps = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const render::Vec3 origin{23.0f * uniform(), 17.0f * uniform(), 13.0f * uniform()};
    const render::Vec3 dir = render::normalized(
        {uniform() - 0.5f, uniform() - 0.5f, uniform() - 0.5f});
    const render::Vec3 inv{1.0f / dir.x, 1.0f / dir.y, 1.0f / dir.z};
    CellCoord c = grid.cell_of(origin);
    float entry = 0.0f;
    float exit = grid.cell_exit(origin, inv, c);
    while (true) {
      ASSERT_GE(exit, entry) << "trial " << trial;
      const render::Vec3 mid = origin + dir * (0.5f * (entry + exit));
      const auto near_face = [](float v) { return std::abs(v - 5.0f * std::round(v / 5.0f)) < 1e-3f; };
      if (!near_face(mid.x) && !near_face(mid.y) && !near_face(mid.z)) {
        const CellCoord at = grid.cell_of(mid);
        ASSERT_EQ(at.i, c.i) << "trial " << trial;
        ASSERT_EQ(at.j, c.j) << "trial " << trial;
        ASSERT_EQ(at.k, c.k) << "trial " << trial;
      }
      if (!grid.next_cell(origin, inv, c)) {
        break;
      }
      ++steps;
      entry = exit;
      exit = grid.cell_exit(origin, inv, c);
    }
    // The walk ends where the ray leaves the grid's box [0, 25) x [0, 20) x [0, 15).
    const render::Vec3 out = origin + dir * (exit + 0.05f);
    EXPECT_TRUE(out.x < 0.0f || out.x >= 25.0f || out.y < 0.0f || out.y >= 20.0f ||
                out.z < 0.0f || out.z >= 15.0f)
        << "trial " << trial;
  }
  EXPECT_GT(steps, 1000u);
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
  // Pow2 cube under pow2 blocks: every interior cell is an aligned Morton
  // run, read through the same layout.index() gather as any other cell.
  Grid3D<float, GeneralizedMortonLayout> g(Extents3D{32, 32, 32});
  fill_noise(g, 4);
  expect_grid_matches_brute(g, 8);
  expect_grid_matches_brute(g, 4);

  Grid3D<float, GeneralizedMortonLayout> tuned(
      GeneralizedMortonLayout(Extents3D{32, 32, 32}, kTunedTiles8));
  ASSERT_FALSE(tuned.layout().canonical());
  fill_noise(tuned, 4);
  expect_grid_matches_brute(tuned, 8);  // one 8^3 tile per cell
  expect_grid_matches_brute(tuned, 4);  // cells split the tiles
}

TEST(Macrocell, MinMaxMatchesBruteForceZOrderGenericPath) {
  Grid3D<float, GeneralizedMortonLayout> g(Extents3D{24, 20, 28});  // padded zorder extents
  fill_noise(g, 5);
  expect_grid_matches_brute(g, 8);  // edge blocks clip their footprint
  expect_grid_matches_brute(g, 3);  // non-pow2 block

  Grid3D<float, GeneralizedMortonLayout> tuned(
      GeneralizedMortonLayout(Extents3D{24, 20, 28}, kTunedTiles8));
  fill_noise(tuned, 5);
  expect_grid_matches_brute(tuned, 8);
  expect_grid_matches_brute(tuned, 3);
}

TEST(Macrocell, MinMaxMatchesBruteForceEveryLayout) {
  // Ragged, padded and pow2 shapes under non-pow2 (3, 5) and pow2 (4, 8)
  // blocks, so border cells clip their footprint on every axis.
  const std::uint32_t blocks[] = {3, 4, 5, 8};
  for (const Extents3D& e : {Extents3D{20, 17, 13}, Extents3D{24, 20, 28}, Extents3D::cube(32)}) {
    for (const core::LayoutKind kind : core::kAllLayoutKinds) {
      core::AnyVolume volume = core::make_volume(kind, e);
      volume.visit([&](auto& g) {
        if constexpr (requires { g.layout(); }) {
          fill_noise(g, 3);
          for (const std::uint32_t block : blocks) {
            SCOPED_TRACE(testing::Message() << core::to_string(kind) << " " << e.nx << "x"
                                            << e.ny << "x" << e.nz << " block " << block);
            expect_grid_matches_brute(g, block);
          }
        } else {
          ADD_FAILURE() << core::to_string(kind) << " made a volume with no layout";
        }
      });
    }
  }
}

TEST(Macrocell, NanTakesTheFullRangeFromEveryLane) {
  // The fold reads each footprint row into several lanes; a NaN must give
  // every cell whose footprint holds it [-inf, +inf] whichever lane (or
  // the row's remainder) reads it, and leave every other cell's range as
  // brute force computes it.
  const Extents3D e{20, 17, 13};
  for (const std::uint32_t block : {3u, 8u}) {
    for (std::uint32_t x = 0; x < e.nx; ++x) {
      Grid3D<float, ArrayOrderLayout> g(e);
      fill_noise(g, 11);
      const Grid3D<float, ArrayOrderLayout> clean = g;
      g.at(x, 9, 5) = std::numeric_limits<float>::quiet_NaN();
      const MacrocellGrid grid = MacrocellGrid::build(g, block);
      const auto& c = grid.cell_extents();
      const auto covers = [&](std::uint32_t cell, std::uint32_t v) {
        return v + 1 >= cell * block && v <= (cell + 1) * block + 1;
      };
      for (std::uint32_t cz = 0; cz < c.nz; ++cz) {
        for (std::uint32_t cy = 0; cy < c.ny; ++cy) {
          for (std::uint32_t cx = 0; cx < c.nx; ++cx) {
            const ValueRange got = grid.range(cx, cy, cz);
            const auto where = testing::Message() << "block " << block << " NaN x " << x
                                                  << " cell " << cx << "," << cy << "," << cz;
            if (covers(cx, x) && covers(cy, 9) && covers(cz, 5)) {
              ASSERT_EQ(got.min, -std::numeric_limits<float>::infinity()) << where;
              ASSERT_EQ(got.max, std::numeric_limits<float>::infinity()) << where;
            } else {
              const ValueRange want = brute_range(clean, block, cx, cy, cz);
              ASSERT_EQ(got.min, want.min) << where;
              ASSERT_EQ(got.max, want.max) << where;
            }
          }
        }
      }
    }
  }
}

TEST(Macrocell, ParallelBuildMatchesSerial) {
  Grid3D<float, GeneralizedMortonLayout> g(Extents3D{32, 32, 32});
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
  expect_accelerated_render_identical<GeneralizedMortonLayout>(RenderMode::kComposite, false);
}

TEST(MacrocellRender, MipIdenticalArrayOrder) {
  expect_accelerated_render_identical<ArrayOrderLayout>(RenderMode::kMip, false);
}

TEST(MacrocellRender, MipIdenticalZOrder) {
  expect_accelerated_render_identical<GeneralizedMortonLayout>(RenderMode::kMip, false);
}

TEST(MacrocellRender, ShadedIdenticalArrayOrder) {
  expect_accelerated_render_identical<ArrayOrderLayout>(RenderMode::kComposite, true);
}

TEST(MacrocellRender, ShadedIdenticalZOrder) {
  expect_accelerated_render_identical<GeneralizedMortonLayout>(RenderMode::kComposite, true);
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

TEST(MacrocellRender, GridOfOtherExtentsIsRejected) {
  // A grid summarizes one volume shape: over another it would skip cells by
  // the wrong footprints, so the render refuses it.
  Grid3D<float, GeneralizedMortonLayout> small(Extents3D::cube(32));
  data::fill_combustion(small);
  const MacrocellGrid cells = MacrocellGrid::build(small, 8);
  const core::AnyVolume volume =
      core::make_volume(core::LayoutKind::kZOrder, Extents3D::cube(64));
  const TransferFunction tf = TransferFunction::flame();
  exec::ExecutionContext pool(2);
  RenderConfig config;
  config.image_width = 32;
  config.image_height = 32;
  config.use_macrocells = true;
  const auto camera = render::orbit_camera(1, 8, 64, 64, 64);
  EXPECT_THROW((void)render::raycast_parallel(volume, camera, tf, config, pool, &cells),
               std::invalid_argument);
  EXPECT_THROW((void)render::raycast_parallel(volume.as<GeneralizedMortonLayout>(), camera, tf,
                                              config, pool, &cells),
               std::invalid_argument);
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
// NaN voxels
// ---------------------------------------------------------------------------

namespace {

/// A NaN sample classifies as the transfer function's first point. Here
/// that point is visible while the field's own value (0.5) is not, so the
/// only opaque samples along the ray are the ones that touch the NaN
/// voxel, and its cell must not skip them.
template <core::Layout3D L>
void expect_nan_voxel_composited() {
  Grid3D<float, L> volume(Extents3D::cube(16));
  volume.fill_from([](std::uint32_t, std::uint32_t, std::uint32_t) { return 0.5f; });
  volume.at(8, 8, 8) = std::numeric_limits<float>::quiet_NaN();
  const TransferFunction tf({{0.0f, {1.0f, 0.5f, 0.25f, 0.6f}},
                             {0.3f, {1.0f, 1.0f, 1.0f, 0.0f}},
                             {0.7f, {1.0f, 1.0f, 1.0f, 0.0f}},
                             {1.0f, {0.25f, 0.5f, 1.0f, 0.5f}}});
  const RenderConfig config;
  const render::Ray ray{{15.4f, 8.2f, 8.3f}, {-1.0f, 0.0f, 0.0f}};
  const auto view = core::make_read_view(volume);
  const render::Rgba dense = render::trace_ray(view, ray, tf, config);
  const MacrocellGrid cells = MacrocellGrid::build(volume, 8);
  const render::ClassifiedCells classes(cells, tf);
  const render::Rgba accel = render::trace_ray(view, ray, tf, config, &classes);
  EXPECT_GT(dense.a, 0.8f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dense.r), std::bit_cast<std::uint32_t>(accel.r));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dense.g), std::bit_cast<std::uint32_t>(accel.g));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dense.b), std::bit_cast<std::uint32_t>(accel.b));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(dense.a), std::bit_cast<std::uint32_t>(accel.a));
}

}  // namespace

TEST(MacrocellRender, NanVoxelCompositedArrayOrder) {
  expect_nan_voxel_composited<ArrayOrderLayout>();
}

TEST(MacrocellRender, NanVoxelCompositedZOrder) {
  expect_nan_voxel_composited<GeneralizedMortonLayout>();
}

// ---------------------------------------------------------------------------
// Traced (simulated-counter) integration
// ---------------------------------------------------------------------------

TEST(MacrocellRender, TracedSkippingReducesAccessesImageIdentical) {
  Grid3D<float, GeneralizedMortonLayout> volume(Extents3D{32, 32, 32});
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
