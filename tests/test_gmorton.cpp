// Tests for the generalized-Morton layout family (core/gmorton.hpp):
// pattern parsing/validation, the degeneracy pins (canonical string ==
// Z-order indices, "zz..yy..xx" == row-major, tiled generator ==
// TiledLayout on pow2 shapes), codec round-trips and gather_row
// equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/volume.hpp"

namespace core = sfcvis::core;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::InterleavePattern;
using core::TiledLayout;

namespace {

const Extents3D kShapes[] = {
    Extents3D::cube(8),    // pow2 cube
    Extents3D::cube(16),   // pow2 cube
    Extents3D{32, 16, 8},  // pow2 anisotropic
    Extents3D{20, 7, 5},   // non-pow2 anisotropic
    Extents3D{9, 17, 33},  // just past pow2 boundaries
    Extents3D{1, 1, 1},    // degenerate
    Extents3D{100, 1, 1},  // 1D-like
};

/// Independent reference for the canonical (Z-order) mapping: walk the
/// bit-planes from the LSB up and, within a plane, emit the x, y, z bits
/// in turn, skipping axes whose padded extent has run out of bits.
std::uint64_t naive_zorder_index(const Extents3D& e, std::uint32_t i, std::uint32_t j,
                                 std::uint32_t k) {
  const Extents3D p = core::padded_pow2(e);
  const unsigned bits[3] = {core::log2_pow2(p.nx), core::log2_pow2(p.ny),
                            core::log2_pow2(p.nz)};
  const std::uint32_t c[3] = {i, j, k};
  std::uint64_t index = 0;
  unsigned out = 0;
  for (unsigned plane = 0; plane < core::kMortonMaxBits3D; ++plane) {
    for (unsigned axis = 0; axis < 3; ++axis) {
      if (plane < bits[axis]) {
        index |= std::uint64_t{(c[axis] >> plane) & 1u} << out++;
      }
    }
  }
  return index;
}

/// A deterministic scrambled (but valid) pattern for `e`: canonical
/// characters shuffled with a fixed-seed Fisher-Yates.
std::string scrambled_pattern(const Extents3D& e, std::uint64_t seed) {
  std::string s = InterleavePattern::canonical(e).str();
  std::mt19937_64 rng(seed);
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng() % i]);
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// InterleavePattern parsing and validation
// ---------------------------------------------------------------------------

TEST(InterleavePattern, ParsesValidString) {
  const Extents3D e = Extents3D::cube(4);  // 2 bits per axis
  const InterleavePattern p("zyxzyx", e);
  EXPECT_EQ(p.str(), "zyxzyx");
  EXPECT_EQ(p.axis_bits(0), 2u);
  EXPECT_EQ(p.axis_bits(1), 2u);
  EXPECT_EQ(p.axis_bits(2), 2u);
  EXPECT_EQ(p.total_bits(), 6u);
  // MSB-first string: rightmost 'x' is plane 0 at output bit 0; the
  // leftmost 'z' is plane 1 of z at output bit 5.
  EXPECT_EQ(p.bit_position(0, 0), 0u);
  EXPECT_EQ(p.bit_position(1, 0), 1u);
  EXPECT_EQ(p.bit_position(2, 0), 2u);
  EXPECT_EQ(p.bit_position(0, 1), 3u);
  EXPECT_EQ(p.bit_position(1, 1), 4u);
  EXPECT_EQ(p.bit_position(2, 1), 5u);
}

TEST(InterleavePattern, RejectsBadCharacter) {
  EXPECT_THROW(InterleavePattern("zyxzyw", Extents3D::cube(4)), std::invalid_argument);
  EXPECT_THROW(InterleavePattern("zyx zy", Extents3D::cube(4)), std::invalid_argument);
}

TEST(InterleavePattern, RejectsWrongAxisCounts) {
  const Extents3D e = Extents3D::cube(4);
  EXPECT_THROW(InterleavePattern("zyxzy", e), std::invalid_argument);    // too short
  EXPECT_THROW(InterleavePattern("zyxzyxx", e), std::invalid_argument);  // too long
  EXPECT_THROW(InterleavePattern("zyxzyz", e), std::invalid_argument);   // 1x/2y/3z
  // Error message names the expected counts and the offending string.
  try {
    InterleavePattern("zyxzyz", e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("zyxzyz"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2x"), std::string::npos) << msg;
  }
}

TEST(InterleavePattern, ValidatesAgainstPaddedExtents) {
  // 20x7x5 pads to 32x8x8: 5 x-bits, 3 y-bits, 3 z-bits.
  const Extents3D e{20, 7, 5};
  const InterleavePattern p("zzzyyyxxxxx", e);
  EXPECT_EQ(p.padded(), (Extents3D{32, 8, 8}));
  EXPECT_EQ(p.axis_bits(0), 5u);
  EXPECT_THROW(InterleavePattern("zyxzyxzyx", e), std::invalid_argument);
}

TEST(InterleavePattern, GeneratorsRoundTripThroughStrings) {
  for (const Extents3D& e : kShapes) {
    for (const InterleavePattern& gen :
         {InterleavePattern::canonical(e), InterleavePattern::array_order(e),
          InterleavePattern::tiled(e, 8, 8, 8)}) {
      const InterleavePattern reparsed(gen.str(), e);
      EXPECT_EQ(reparsed, gen) << gen.str();
    }
  }
}

TEST(InterleavePattern, CanonicalCubeIsRoundRobin) {
  EXPECT_EQ(InterleavePattern::canonical(Extents3D::cube(8)).str(), "zyxzyxzyx");
  EXPECT_EQ(InterleavePattern::array_order(Extents3D::cube(8)).str(), "zzzyyyxxx");
}

// ---------------------------------------------------------------------------
// Degeneracy pins: the classic layouts are members of the family
// ---------------------------------------------------------------------------

TEST(GMortonDegeneracy, CanonicalPatternMatchesZOrderEverywhere) {
  // Two references independent of the tables: the magic-bits Morton codec
  // on cubic pow2 shapes, and the naive bit-plane encoder on every shape.
  for (const Extents3D& e : kShapes) {
    const GeneralizedMortonLayout g(e);  // default = canonical
    ASSERT_EQ(g.required_capacity(), core::padded_pow2(e).size());
    const bool cubic_pow2 = e.is_pow2() && e.nx == e.ny && e.ny == e.nz;
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(g.index(i, j, k), naive_zorder_index(e, i, j, k))
              << "(" << i << "," << j << "," << k << ") in " << e.nx << "x" << e.ny << "x"
              << e.nz;
          if (cubic_pow2) {
            ASSERT_EQ(g.index(i, j, k), core::morton_encode_3d(i, j, k));
          }
        }
      }
    }
  }
}

TEST(GMortonDegeneracy, ArrayPatternMatchesRowMajorOverPaddedExtents) {
  // The pure "zz..yy..xx" member is row-major over the PADDED extents, so
  // it agrees with ArrayOrderLayout (row-major over logical extents)
  // exactly when no axis pads — any pow2 shape. On non-pow2 shapes the
  // row stride differs (padded nx vs logical nx) by design.
  for (const Extents3D& e :
       {Extents3D::cube(8), Extents3D::cube(16), Extents3D{32, 16, 8}, Extents3D{1, 1, 1}}) {
    const ArrayOrderLayout a(e);
    const GeneralizedMortonLayout g(e, InterleavePattern::array_order(e));
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(g.index(i, j, k), a.index(i, j, k));
        }
      }
    }
  }
  // Non-pow2: still row-major in the padded box (x-runs contiguous, stride
  // = padded nx), even though the linear index differs from kArray.
  const Extents3D e{20, 7, 5};
  const GeneralizedMortonLayout g(e, InterleavePattern::array_order(e));
  EXPECT_EQ(g.index(1, 0, 0), g.index(0, 0, 0) + 1);
  EXPECT_EQ(g.index(0, 1, 0), g.index(0, 0, 0) + 32);      // padded nx
  EXPECT_EQ(g.index(0, 0, 1), g.index(0, 0, 0) + 32 * 8);  // padded nx*ny
}

TEST(GMortonDegeneracy, TiledPatternMatchesTiledLayoutOnPow2Shapes) {
  // TiledLayout uses ceil-div tile counts, so bit-exact agreement needs
  // pow2 extents (where padding is the identity).
  for (const Extents3D& e : {Extents3D::cube(16), Extents3D{32, 16, 8}}) {
    const TiledLayout t(e, 8);
    const GeneralizedMortonLayout g(e, InterleavePattern::tiled(e, 8, 8, 8));
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(g.index(i, j, k), t.index(i, j, k));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Codec: decode inverts index, stepping matches re-encode
// ---------------------------------------------------------------------------

TEST(GMortonCodec, DecodeInvertsIndex) {
  for (const Extents3D& e : kShapes) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const GeneralizedMortonLayout g(e, scrambled_pattern(e, seed));
      for (std::uint32_t k = 0; k < e.nz; ++k) {
        for (std::uint32_t j = 0; j < e.ny; ++j) {
          for (std::uint32_t i = 0; i < e.nx; ++i) {
            const core::Coord3D c = g.decode(g.index(i, j, k));
            ASSERT_EQ(c.i, i);
            ASSERT_EQ(c.j, j);
            ASSERT_EQ(c.k, k);
          }
        }
      }
    }
  }
}

TEST(GMortonCodec, GatherRowMatchesDirectReads) {
  const Extents3D e{24, 12, 10};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    core::GMortonVolume vol{GeneralizedMortonLayout(e, scrambled_pattern(e, seed))};
    vol.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      return static_cast<float>(i * 1000 + j * 100 + k);
    });
    std::vector<float> fast(32);
    for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        // Each row runs from (0, j, 1) to the volume's far face along `axis`.
        const std::uint32_t n =
            axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny - j : e.nz - 1;
        gather_row(vol, axis, 0, j, 1, n, fast.data());
        for (std::uint32_t l = 0; l < n; ++l) {
          const std::uint32_t ii = axis == core::Axis3::kX ? l : 0;
          const std::uint32_t jj = axis == core::Axis3::kY ? j + l : j;
          const std::uint32_t kk = axis == core::Axis3::kZ ? 1 + l : 1;
          ASSERT_EQ(fast[l], vol.at(ii, jj, kk))
              << "axis " << static_cast<int>(axis) << " l " << l << " seed " << seed;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Facade integration
// ---------------------------------------------------------------------------

TEST(GMortonVolumeFacade, VariantIndexMatchesKindEnum) {
  for (const core::LayoutKind kind : core::kAllLayoutKinds) {
    const core::AnyVolume v = core::make_volume(kind, Extents3D::cube(4));
    // An unpatterned gmorton request is the canonical pattern: z-order.
    const core::LayoutKind want =
        kind == core::LayoutKind::kGMorton ? core::LayoutKind::kZOrder : kind;
    EXPECT_EQ(v.kind(), want);
    EXPECT_STREQ(v.layout_name(), core::to_string(want));
  }
}

TEST(GMortonVolumeFacade, MakeVolumeHonorsInterleave) {
  core::VolumeOpts opts;
  opts.interleave = "xxyyzz";  // x slowest — deliberately non-canonical
  const Extents3D e = Extents3D::cube(4);
  core::AnyVolume v = core::make_volume(core::LayoutKind::kGMorton, e, opts);
  const auto& g = v.as<GeneralizedMortonLayout>();
  EXPECT_EQ(g.layout().pattern().str(), "xxyyzz");
  // Invalid pattern surfaces as invalid_argument at construction.
  opts.interleave = "xyz";
  EXPECT_THROW(core::make_volume(core::LayoutKind::kGMorton, e, opts),
               std::invalid_argument);
}

TEST(GMortonVolumeFacade, ConvertToRoundTripsContents) {
  const Extents3D e{9, 6, 5};
  core::AnyVolume src = core::make_volume(core::LayoutKind::kArray, e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(7 * i + 5 * j + 3 * k);
  });
  core::VolumeOpts opts;
  opts.interleave = scrambled_pattern(e, 21);
  const core::AnyVolume gm = src.convert_to(core::LayoutKind::kGMorton, opts);
  const core::AnyVolume back = gm.convert_to(core::LayoutKind::kArray);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(back.at(i, j, k), src.at(i, j, k));
      }
    }
  }
}
