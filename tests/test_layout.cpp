// Tests for the layout policies (src/sfcvis/core/layout.hpp; Z-order is the
// canonical gmorton.hpp pattern): bijectivity, capacity, padding, and the
// locality ordering the paper relies on; and the extents helpers
// (src/sfcvis/core/extents.hpp) they are built on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"

namespace core = sfcvis::core;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::HilbertLayout;
using core::TiledLayout;

// ---------------------------------------------------------------------------
// Typed bijectivity / bounds tests across all layout policies
// ---------------------------------------------------------------------------

template <class L>
class LayoutTypedTest : public ::testing::Test {};

using AllLayouts =
    ::testing::Types<ArrayOrderLayout, TiledLayout, HilbertLayout, GeneralizedMortonLayout>;
TYPED_TEST_SUITE(LayoutTypedTest, AllLayouts);

TYPED_TEST(LayoutTypedTest, InjectiveAndInBoundsOnCube) {
  const Extents3D e = Extents3D::cube(16);
  const TypeParam layout(e);
  std::vector<bool> seen(layout.required_capacity(), false);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const std::size_t idx = layout.index(i, j, k);
        ASSERT_LT(idx, layout.required_capacity());
        ASSERT_FALSE(seen[idx]) << TypeParam::name() << " collision at " << idx;
        seen[idx] = true;
      }
    }
  }
}

TYPED_TEST(LayoutTypedTest, InjectiveOnAnisotropicExtents) {
  const Extents3D e{20, 7, 5};  // deliberately non-power-of-two
  const TypeParam layout(e);
  std::vector<bool> seen(layout.required_capacity(), false);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const std::size_t idx = layout.index(i, j, k);
        ASSERT_LT(idx, layout.required_capacity());
        ASSERT_FALSE(seen[idx]);
        seen[idx] = true;
      }
    }
  }
}

TYPED_TEST(LayoutTypedTest, CapacityAtLeastLogicalSize) {
  for (const Extents3D e : {Extents3D{8, 8, 8}, Extents3D{5, 9, 3}, Extents3D{64, 32, 16},
                            Extents3D{1, 1, 1}, Extents3D{100, 1, 1}}) {
    const TypeParam layout(e);
    EXPECT_GE(layout.required_capacity(), e.size()) << TypeParam::name();
    EXPECT_EQ(layout.extents(), e);
  }
}

TYPED_TEST(LayoutTypedTest, RejectsZeroExtent) {
  EXPECT_THROW(TypeParam(Extents3D{0, 4, 4}), std::invalid_argument);
  EXPECT_THROW(TypeParam(Extents3D{4, 0, 4}), std::invalid_argument);
  EXPECT_THROW(TypeParam(Extents3D{4, 4, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Array order specifics
// ---------------------------------------------------------------------------

TEST(ArrayOrder, MatchesClosedForm) {
  const Extents3D e{10, 20, 30};
  const ArrayOrderLayout layout(e);
  EXPECT_EQ(layout.index(0, 0, 0), 0u);
  EXPECT_EQ(layout.index(1, 0, 0), 1u);
  EXPECT_EQ(layout.index(0, 1, 0), 10u);
  EXPECT_EQ(layout.index(0, 0, 1), 200u);
  EXPECT_EQ(layout.index(9, 19, 29), e.size() - 1);
  EXPECT_EQ(layout.required_capacity(), e.size());
}

TEST(ArrayOrder, NoPaddingEver) {
  for (const Extents3D e : {Extents3D{7, 13, 3}, Extents3D{512, 512, 512}}) {
    EXPECT_EQ(ArrayOrderLayout(e).required_capacity(), e.size());
  }
}

// ---------------------------------------------------------------------------
// Z order specifics
// ---------------------------------------------------------------------------

TEST(ZOrder, MatchesMortonOnPow2Cube) {
  const Extents3D e = Extents3D::cube(32);
  const GeneralizedMortonLayout layout(e);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(layout.index(i, j, k), core::morton_encode_3d(i, j, k));
      }
    }
  }
}

TEST(ZOrder, CubeCapacityEqualsSize) {
  const GeneralizedMortonLayout layout(Extents3D::cube(64));
  EXPECT_EQ(layout.required_capacity(), 64u * 64 * 64);
}

TEST(ZOrder, PadsNonPow2PerAxis) {
  const GeneralizedMortonLayout layout(Extents3D{5, 9, 17});
  // Padded to 8 x 16 x 32.
  EXPECT_EQ(layout.required_capacity(), 8u * 16 * 32);
}

TEST(ZOrder, AnisotropicIsCompactBijection) {
  // 32x8x2 padded extents: a full bijection onto [0, 512), i.e. the
  // anisotropic generator wastes nothing beyond pow2 padding.
  const Extents3D e{32, 8, 2};
  const GeneralizedMortonLayout layout(e);
  ASSERT_EQ(layout.required_capacity(), e.size());
  std::vector<bool> seen(e.size(), false);
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
}

TEST(ZOrder, DecodeInvertsIndex) {
  const Extents3D e{16, 32, 8};
  const GeneralizedMortonLayout layout(e);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const auto c = layout.decode(layout.index(i, j, k));
        ASSERT_EQ(c, (core::Coord3D{i, j, k}));
      }
    }
  }
}

TEST(ZOrder, AdditionEqualsOrProperty) {
  // The per-axis deposited patterns are disjoint, so index() may combine
  // them with + (as GMortonTables::index does) or with | interchangeably.
  const Extents3D e{16, 16, 16};
  const core::GMortonTables tables(e, core::InterleavePattern::canonical(e));
  for (std::uint32_t i = 0; i < 16; ++i) {
    for (std::uint32_t j = 0; j < 16; ++j) {
      for (std::uint32_t k = 0; k < 16; ++k) {
        const auto xi = tables.index(i, 0, 0);
        const auto yj = tables.index(0, j, 0);
        const auto zk = tables.index(0, 0, k);
        ASSERT_EQ(xi + yj + zk, xi | yj | zk);
      }
    }
  }
}

TEST(ZOrder, BitPositionsAreAPermutation) {
  const Extents3D e{16, 8, 4};  // 4+3+2 = 9 bits
  const core::InterleavePattern pattern = core::InterleavePattern::canonical(e);
  std::vector<bool> used(9, false);
  const unsigned bits[3] = {4, 3, 2};
  for (unsigned axis = 0; axis < 3; ++axis) {
    EXPECT_EQ(pattern.axis_bits(axis), bits[axis]);
    for (unsigned b = 0; b < bits[axis]; ++b) {
      const unsigned pos = pattern.bit_position(axis, b);
      ASSERT_LT(pos, 9u);
      EXPECT_FALSE(used[pos]);
      used[pos] = true;
    }
  }
}

TEST(ZOrder, CopiesShareTables) {
  const GeneralizedMortonLayout a(Extents3D::cube(32));
  const GeneralizedMortonLayout b = a;  // cheap copy into per-thread kernel state
  EXPECT_EQ(&a.tables(), &b.tables());
  EXPECT_EQ(a.index(3, 5, 7), b.index(3, 5, 7));
}

// ---------------------------------------------------------------------------
// Tiled layout specifics
// ---------------------------------------------------------------------------

TEST(Tiled, IntraTileIsRowMajorContiguous) {
  const TiledLayout layout(Extents3D::cube(32), 8);
  // Within the first tile, x-steps are unit strides.
  for (std::uint32_t i = 0; i + 1 < 8; ++i) {
    EXPECT_EQ(layout.index(i + 1, 0, 0), layout.index(i, 0, 0) + 1);
  }
  // Crossing a tile boundary in x jumps a whole tile volume.
  EXPECT_EQ(layout.index(8, 0, 0), 8u * 8 * 8);
}

TEST(Tiled, TileVolumeIsContiguousBlock) {
  const TiledLayout layout(Extents3D::cube(16), 4);
  // All 64 voxels of tile (0,0,0) occupy [0, 64).
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_LT(layout.index(i, j, k), 64u);
      }
    }
  }
}

TEST(Tiled, RejectsNonPow2TileDims) {
  EXPECT_THROW(TiledLayout(Extents3D::cube(16), 3, 4, 4), std::invalid_argument);
  EXPECT_THROW(TiledLayout(Extents3D::cube(16), 4, 6, 4), std::invalid_argument);
  EXPECT_THROW(TiledLayout(Extents3D::cube(16), 4, 4, 12), std::invalid_argument);
}

TEST(Tiled, PadsPartialTiles) {
  const TiledLayout layout(Extents3D{9, 9, 9}, 8);
  // 2x2x2 tiles of 512 elements each.
  EXPECT_EQ(layout.required_capacity(), 8u * 512);
}

TEST(Tiled, AnisotropicTileDims) {
  const TiledLayout layout(Extents3D{32, 32, 32}, 16, 4, 2);
  EXPECT_EQ(layout.tile_x(), 16u);
  EXPECT_EQ(layout.tile_y(), 4u);
  EXPECT_EQ(layout.tile_z(), 2u);
  EXPECT_EQ(layout.required_capacity(), 32u * 32 * 32);
}

// ---------------------------------------------------------------------------
// Hilbert layout specifics
// ---------------------------------------------------------------------------

TEST(HilbertLayoutTest, CapacityIsEnclosingCube) {
  EXPECT_EQ(HilbertLayout(Extents3D::cube(16)).required_capacity(), 16u * 16 * 16);
  // Anisotropic extents pad to the largest axis's cube (documented cost of
  // the Hilbert baseline).
  EXPECT_EQ(HilbertLayout(Extents3D{16, 4, 4}).required_capacity(), 16u * 16 * 16);
}

// ---------------------------------------------------------------------------
// Locality comparison across layouts (the paper's core premise)
// ---------------------------------------------------------------------------

namespace {

/// Fraction of unit steps along `axis` that leave a `block`-element block
/// of the linear address space. This is the locality quantity the paper's
/// cache-miss counters are a proxy for: an access that stays inside the
/// same line/page block cannot miss if its predecessor hit.
template <class L>
double crossing_fraction(const L& layout, unsigned axis, std::uint32_t n,
                         std::size_t block) {
  std::size_t crossings = 0, count = 0;
  for (std::uint32_t k = 0; k < n - (axis == 2); ++k) {
    for (std::uint32_t j = 0; j < n - (axis == 1); ++j) {
      for (std::uint32_t i = 0; i < n - (axis == 0); ++i) {
        const auto a = layout.index(i, j, k) / block;
        const auto b = layout.index(i + (axis == 0), j + (axis == 1), k + (axis == 2)) / block;
        crossings += (a != b);
        ++count;
      }
    }
  }
  return static_cast<double>(crossings) / static_cast<double>(count);
}

constexpr std::size_t kLineElems = 16;   // 64-byte line of floats
constexpr std::size_t kPageElems = 1024;  // 4 KiB page of floats

}  // namespace

TEST(Locality, ZOrderBeatsArrayOrderOnYAndZSteps) {
  const std::uint32_t n = 32;
  const Extents3D e = Extents3D::cube(n);
  const ArrayOrderLayout a(e);
  const GeneralizedMortonLayout z(e);
  // Array order: every y- or z-step lands on a different cache line.
  // Z-order escapes a line on only half of those steps (at the price of
  // slightly more frequent escapes on x-steps).
  EXPECT_LT(crossing_fraction(z, 1, n, kLineElems), crossing_fraction(a, 1, n, kLineElems));
  EXPECT_LT(crossing_fraction(z, 2, n, kLineElems), crossing_fraction(a, 2, n, kLineElems));
  EXPECT_GT(crossing_fraction(z, 0, n, kLineElems), crossing_fraction(a, 0, n, kLineElems));
  // At page granularity Z-order wins on average across axes.
  double za = 0, aa = 0;
  for (unsigned axis = 0; axis < 3; ++axis) {
    za += crossing_fraction(z, axis, n, kPageElems);
    aa += crossing_fraction(a, axis, n, kPageElems);
  }
  EXPECT_LT(za, 0.5 * aa);
}

TEST(Locality, ZOrderIsAxisSymmetricOnCubes) {
  // The property behind Fig. 1: no "against the grain" direction exists.
  // Under array order the x:z line-crossing asymmetry is 1/16 : 1, a factor
  // of 16; under Z-order (line = 2x2x4-element brick) it is 1/4 : 1/2, a
  // factor of 2.
  const std::uint32_t n = 32;
  const GeneralizedMortonLayout z(Extents3D::cube(n));
  const double zx = crossing_fraction(z, 0, n, kLineElems);
  const double zy = crossing_fraction(z, 1, n, kLineElems);
  const double zz = crossing_fraction(z, 2, n, kLineElems);
  EXPECT_LT(zz / zx, 2.5);
  EXPECT_LE(zy, zz);
  const ArrayOrderLayout a(Extents3D::cube(n));
  const double ax = crossing_fraction(a, 0, n, kLineElems);
  const double az = crossing_fraction(a, 2, n, kLineElems);
  EXPECT_GT(az / ax, 10.0);
}

// ---------------------------------------------------------------------------
// Extents helpers
// ---------------------------------------------------------------------------

TEST(Extents, NextPow2) {
  EXPECT_EQ(core::next_pow2(0), 1u);
  EXPECT_EQ(core::next_pow2(1), 1u);
  EXPECT_EQ(core::next_pow2(2), 2u);
  EXPECT_EQ(core::next_pow2(3), 4u);
  EXPECT_EQ(core::next_pow2(511), 512u);
  EXPECT_EQ(core::next_pow2(512), 512u);
  EXPECT_EQ(core::next_pow2(513), 1024u);
}

TEST(Extents, SizeAndContains) {
  const Extents3D e{3, 4, 5};
  EXPECT_EQ(e.size(), 60u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(e.contains(2, 3, 4));
  EXPECT_FALSE(e.contains(3, 0, 0));
  EXPECT_FALSE(e.contains(0, 4, 0));
  EXPECT_FALSE(e.contains(0, 0, 5));
}

TEST(Extents, IsPow2) {
  EXPECT_TRUE((Extents3D{8, 16, 1}).is_pow2());
  EXPECT_FALSE((Extents3D{8, 12, 16}).is_pow2());
}

TEST(Extents, SizeDoesNotOverflow32Bits) {
  const Extents3D e{2048, 2048, 2048};
  EXPECT_EQ(e.size(), std::size_t{1} << 33);
}

TEST(Extents, ValidateRejectsHugeAxes) {
  EXPECT_THROW(core::validate_extents(Extents3D{(1u << 21) + 1, 1, 1}),
               std::invalid_argument);
  EXPECT_NO_THROW(core::validate_extents(Extents3D{1u << 21, 1, 1}));
}

TEST(Extents, PaddedPow2) {
  const auto p = core::padded_pow2(Extents3D{5, 9, 17});
  EXPECT_EQ(p, (Extents3D{8, 16, 32}));
}
