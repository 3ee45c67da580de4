// Tests for the dense row gathers (src/sfcvis/core/gather.hpp): every
// layout's gather_row must agree with element-wise at() for every axis,
// start position, and length — including the anisotropic Z-order table
// curve and array order's memcpy rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"

namespace core = sfcvis::core;

namespace {

/// Fills with a value that uniquely identifies the coordinate.
template <class Grid>
void fill_coded(Grid& g) {
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i) + 1000.0f * static_cast<float>(j) +
           1000000.0f * static_cast<float>(k);
  });
}

template <class Grid>
void expect_all_rows_match(const Grid& g) {
  const auto& e = g.extents();
  std::vector<float> out;
  for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    const std::uint32_t extent =
        axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny : e.nz;
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          const std::uint32_t along =
              axis == core::Axis3::kX ? i : axis == core::Axis3::kY ? j : k;
          // Every valid length from this start, including 1 and max.
          for (std::uint32_t n = 1; along + n <= extent; n += (n < 3 ? 1 : 3)) {
            out.assign(n, -1.0f);
            core::gather_row(g, axis, i, j, k, n, out.data());
            for (std::uint32_t l = 0; l < n; ++l) {
              const std::uint32_t gi = axis == core::Axis3::kX ? i + l : i;
              const std::uint32_t gj = axis == core::Axis3::kY ? j + l : j;
              const std::uint32_t gk = axis == core::Axis3::kZ ? k + l : k;
              ASSERT_EQ(out[l], g.at(gi, gj, gk))
                  << "axis=" << static_cast<int>(axis) << " start=(" << i << "," << j
                  << "," << k << ") n=" << n << " l=" << l;
            }
          }
        }
      }
    }
  }
}

/// Targeted coverage for larger shapes where the exhaustive sweep above is
/// too slow: checks gather_row only at starts on and adjacent to block
/// boundaries (multiples of `block` and their +/-1 neighbours), with
/// lengths chosen to stop short of, land on, and cross a boundary. This is
/// where the generic fallback and the run walkers switch between intra- and
/// inter-block address math.
template <class Grid>
void expect_rows_match_at_block_boundaries(const Grid& g, std::uint32_t block) {
  const auto& e = g.extents();
  const auto starts_for = [block](std::uint32_t extent) {
    std::vector<std::uint32_t> s{0, 1, extent - 1};
    for (std::uint32_t b = block; b < extent; b += block) {
      for (const std::uint32_t c : {b - 1, b, b + 1}) {
        if (c < extent) {
          s.push_back(c);
        }
      }
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  const auto si = starts_for(e.nx);
  const auto sj = starts_for(e.ny);
  const auto sk = starts_for(e.nz);
  std::vector<float> out;
  for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    const std::uint32_t extent =
        axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny : e.nz;
    for (const std::uint32_t k : sk) {
      for (const std::uint32_t j : sj) {
        for (const std::uint32_t i : si) {
          const std::uint32_t along =
              axis == core::Axis3::kX ? i : axis == core::Axis3::kY ? j : k;
          const std::uint32_t room = extent - along;
          for (std::uint32_t n : {1u, 2u, block - 1, block, block + 1, room}) {
            n = std::min(n, room);
            out.assign(n, -1.0f);
            core::gather_row(g, axis, i, j, k, n, out.data());
            for (std::uint32_t l = 0; l < n; ++l) {
              const std::uint32_t gi = axis == core::Axis3::kX ? i + l : i;
              const std::uint32_t gj = axis == core::Axis3::kY ? j + l : j;
              const std::uint32_t gk = axis == core::Axis3::kZ ? k + l : k;
              ASSERT_EQ(out[l], g.at(gi, gj, gk))
                  << "axis=" << static_cast<int>(axis) << " start=(" << i << "," << j
                  << "," << k << ") n=" << n << " l=" << l;
            }
          }
        }
      }
    }
  }
}

}  // namespace

TEST(GatherRow, ArrayOrderCube) {
  core::Grid3D<float, core::ArrayOrderLayout> g(core::Extents3D::cube(8));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ArrayOrderAnisotropic) {
  core::Grid3D<float, core::ArrayOrderLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderCubePow2) {
  // Padded curve is cubic: exercises the incremental-Morton run walker.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D::cube(8));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderNonPow2Cube) {
  // 9^3 pads to 16^3 — still cubic, but rows cross padding holes.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D::cube(9));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderAnisotropic) {
  // Padded axes differ: exercises the per-axis deposit-table walker.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, TiledLayout) {
  core::Grid3D<float, core::TiledLayout> g(
      core::TiledLayout(core::Extents3D{11, 6, 9}, 4));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, HilbertLayout) {
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, HilbertPow2CubeBlockBoundaries) {
  // 48^3 stores in a 64^3 enclosing Hilbert cube; pencils repeatedly cross
  // the curve's octant boundaries (every 8 voxels and at 16/32 splits).
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D::cube(48));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, HilbertNonPow2Anisotropic) {
  // 37x21x13 pads to a 64^3 Hilbert cube: most of the curve is padding, so
  // valid-row runs are short and irregular.
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D{37, 21, 13});
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, TiledCubeBlockBoundaries) {
  // Extent is an exact multiple of the tile: every boundary start sits on a
  // tile seam, hitting the inter-tile stride path in the fallback.
  core::Grid3D<float, core::TiledLayout> g(
      core::TiledLayout(core::Extents3D::cube(48), 8));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, TiledNonPow2AnisotropicBlockBoundaries) {
  // 37x21x13 with 4^3 tiles leaves partial tiles on every axis; rows cross
  // both full and clipped tiles.
  core::Grid3D<float, core::TiledLayout> g(
      core::TiledLayout(core::Extents3D{37, 21, 13}, 4));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 4);
}

TEST(GatherRow, ZOrderNonPow2AnisotropicBlockBoundaries) {
  // Same shape on the anisotropic Z-order tables: padded axis widths differ
  // (64/32/16), so boundary crossings differ per axis.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{37, 21, 13});
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, SingleVoxelGrid) {
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{1, 1, 1});
  g.at(0, 0, 0) = 42.0f;
  float out = 0.0f;
  core::gather_row(g, core::Axis3::kX, 0, 0, 0, 1, &out);
  EXPECT_EQ(out, 42.0f);
}
