// Unit and property tests for the Morton codec (src/sfcvis/core/morton.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "sfcvis/core/morton.hpp"

namespace core = sfcvis::core;

namespace {

/// Reference encoder: interleave bits one at a time.
std::uint64_t naive_encode_3d(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  std::uint64_t m = 0;
  for (unsigned b = 0; b < core::kMortonMaxBits3D; ++b) {
    m |= (static_cast<std::uint64_t>((x >> b) & 1u)) << (3 * b);
    m |= (static_cast<std::uint64_t>((y >> b) & 1u)) << (3 * b + 1);
    m |= (static_cast<std::uint64_t>((z >> b) & 1u)) << (3 * b + 2);
  }
  return m;
}

std::vector<std::uint32_t> interesting_coords() {
  return {0u,    1u,      2u,      3u,          7u,      8u,          15u,     16u,
          31u,   255u,    256u,    511u,        512u,    1023u,       4095u,   65535u,
          65536u, 0xfffffu, 0x100000u, 0x1fffffu};
}

}  // namespace

TEST(Morton3D, KnownValues) {
  EXPECT_EQ(core::morton_encode_3d(0, 0, 0), 0u);
  EXPECT_EQ(core::morton_encode_3d(1, 0, 0), 0b001u);
  EXPECT_EQ(core::morton_encode_3d(0, 1, 0), 0b010u);
  EXPECT_EQ(core::morton_encode_3d(0, 0, 1), 0b100u);
  EXPECT_EQ(core::morton_encode_3d(1, 1, 1), 0b111u);
  EXPECT_EQ(core::morton_encode_3d(2, 0, 0), 0b001000u);
  EXPECT_EQ(core::morton_encode_3d(7, 7, 7), 0b111111111u);
  // Corner of a 512^3 volume occupies 27 interleaved bits.
  EXPECT_EQ(core::morton_encode_3d(511, 511, 511), (1u << 27) - 1);
}

TEST(Morton3D, MatchesNaiveOnInterestingCoords) {
  for (std::uint32_t x : interesting_coords()) {
    for (std::uint32_t y : interesting_coords()) {
      for (std::uint32_t z : interesting_coords()) {
        EXPECT_EQ(core::morton_encode_3d(x, y, z), naive_encode_3d(x, y, z))
            << x << "," << y << "," << z;
      }
    }
  }
}

TEST(Morton3D, RoundTripRandom) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<std::uint32_t> dist(0, (1u << 21) - 1);
  for (int n = 0; n < 20000; ++n) {
    const std::uint32_t x = dist(rng), y = dist(rng), z = dist(rng);
    const auto m = core::morton_encode_3d(x, y, z);
    const auto c = core::morton_decode_3d(m);
    EXPECT_EQ(c, (core::MortonCoord3D{x, y, z}));
  }
}

TEST(Morton3D, MonotonePerAxis) {
  // With the other axes fixed, the code is strictly increasing in each
  // coordinate: the property that makes the max index sit at the max corner.
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::uint32_t> dist(0, (1u << 21) - 2);
  for (int n = 0; n < 5000; ++n) {
    const std::uint32_t x = dist(rng), y = dist(rng), z = dist(rng);
    EXPECT_LT(core::morton_encode_3d(x, y, z), core::morton_encode_3d(x + 1, y, z));
    EXPECT_LT(core::morton_encode_3d(x, y, z), core::morton_encode_3d(x, y + 1, z));
    EXPECT_LT(core::morton_encode_3d(x, y, z), core::morton_encode_3d(x, y, z + 1));
  }
}

TEST(Morton3D, BijectiveOnSmallCube) {
  std::vector<bool> seen(32 * 32 * 32, false);
  for (std::uint32_t z = 0; z < 32; ++z) {
    for (std::uint32_t y = 0; y < 32; ++y) {
      for (std::uint32_t x = 0; x < 32; ++x) {
        const auto m = core::morton_encode_3d(x, y, z);
        ASSERT_LT(m, seen.size());
        EXPECT_FALSE(seen[m]) << "collision at " << m;
        seen[m] = true;
      }
    }
  }
}

TEST(MortonBits, PartCompactAreInverse) {
  std::mt19937 rng(44);
  std::uniform_int_distribution<std::uint32_t> d21(0, (1u << 21) - 1);
  for (int n = 0; n < 10000; ++n) {
    const std::uint32_t v3 = d21(rng);
    EXPECT_EQ(core::compact_bits_3(core::part_bits_3(v3)), v3);
  }
}

TEST(MortonBits, PartBitsLandOnStride) {
  // Every set output bit of part_bits_3 must sit at a position ≡ 0 (mod 3).
  std::mt19937 rng(45);
  std::uniform_int_distribution<std::uint32_t> d21(0, (1u << 21) - 1);
  for (int n = 0; n < 2000; ++n) {
    const std::uint64_t spread = core::part_bits_3(d21(rng));
    EXPECT_EQ(spread & ~core::kMortonMaskX3D, 0u);
  }
}

TEST(MortonStep, IncrementMatchesReencode) {
  std::mt19937 rng(50);
  std::uniform_int_distribution<std::uint32_t> dist(0, (1u << 21) - 2);
  for (int n = 0; n < 10000; ++n) {
    const std::uint32_t x = dist(rng), y = dist(rng), z = dist(rng);
    const auto m = core::morton_encode_3d(x, y, z);
    EXPECT_EQ(core::morton_step_x(m, 1), core::morton_encode_3d(x + 1, y, z));
    EXPECT_EQ(core::morton_step_y(m, 1), core::morton_encode_3d(x, y + 1, z));
    EXPECT_EQ(core::morton_step_z(m, 1), core::morton_encode_3d(x, y, z + 1));
  }
}

TEST(MortonStep, DecrementMatchesReencode) {
  std::mt19937 rng(51);
  std::uniform_int_distribution<std::uint32_t> dist(1, (1u << 21) - 1);
  for (int n = 0; n < 10000; ++n) {
    const std::uint32_t x = dist(rng), y = dist(rng), z = dist(rng);
    const auto m = core::morton_encode_3d(x, y, z);
    EXPECT_EQ(core::morton_step_x(m, -1), core::morton_encode_3d(x - 1, y, z));
    EXPECT_EQ(core::morton_step_y(m, -1), core::morton_encode_3d(x, y - 1, z));
    EXPECT_EQ(core::morton_step_z(m, -1), core::morton_encode_3d(x, y, z - 1));
  }
}

TEST(MortonStep, IncThenDecIsIdentity) {
  std::mt19937 rng(52);
  std::uniform_int_distribution<std::uint32_t> dist(0, (1u << 21) - 2);
  for (int n = 0; n < 5000; ++n) {
    const auto m = core::morton_encode_3d(dist(rng), dist(rng), dist(rng));
    EXPECT_EQ(core::morton_step_x(core::morton_step_x(m, 1), -1), m);
    EXPECT_EQ(core::morton_step_y(core::morton_step_y(m, 1), -1), m);
    EXPECT_EQ(core::morton_step_z(core::morton_step_z(m, 1), -1), m);
  }
}

TEST(MortonLocality, FewerPageCrossingsThanRowMajorOnRandomUnitSteps) {
  // Quantified version of the paper's Sec. II-B argument. The right
  // locality metric is not the mean address delta (Morton's rare giant
  // jumps dominate that) but how often a unit step in index space leaves a
  // fixed-size block of memory. At 4 KiB blocks (1024 floats) on a 256^3
  // grid, row-major always escapes on k-steps and escapes on 1/4 of
  // j-steps, while Z-order escapes on only ~1/16 to ~1/8 of steps on any
  // axis.
  std::mt19937 rng(53);
  std::uniform_int_distribution<std::uint32_t> dist(1, 254);
  const std::uint64_t n = 256;
  const std::uint64_t block = 1024;  // elements per 4 KiB block of floats
  std::uint64_t cross_z = 0, cross_row = 0;
  const int samples = 60000;
  for (int s = 0; s < samples; ++s) {
    const std::uint32_t x = dist(rng), y = dist(rng), z = dist(rng);
    const int axis = static_cast<int>(rng() % 3);
    const std::uint32_t nx2 = x + (axis == 0), ny2 = y + (axis == 1), nz2 = z + (axis == 2);
    cross_z += (core::morton_encode_3d(x, y, z) / block) !=
               (core::morton_encode_3d(nx2, ny2, nz2) / block);
    const std::uint64_t ra = x + n * (y + n * z);
    const std::uint64_t rb = nx2 + n * (ny2 + n * nz2);
    cross_row += (ra / block) != (rb / block);
  }
  const double fz = static_cast<double>(cross_z) / samples;
  const double fr = static_cast<double>(cross_row) / samples;
  EXPECT_LT(fz, 0.5 * fr);
}

TEST(MortonConstexpr, UsableAtCompileTime) {
  static_assert(core::morton_encode_3d(3, 1, 2) ==
                ((0b11ull & 1) | ((0b1ull & 1) << 1) | ((0b10ull & 1) << 2) |
                 (((3ull >> 1) & 1) << 3) | (((1ull >> 1) & 1) << 4) | (((2ull >> 1) & 1) << 5)));
  static_assert(core::morton_decode_3d(core::morton_encode_3d(5, 6, 7)) ==
                core::MortonCoord3D{5, 6, 7});
  SUCCEED();
}

TEST(MortonStep, SignedStepMatchesReencode) {
  std::mt19937 rng(54);
  std::uniform_int_distribution<std::uint32_t> coord(64, (1u << 21) - 65);
  std::uniform_int_distribution<std::int32_t> delta(-64, 64);
  for (int n = 0; n < 10000; ++n) {
    const std::uint32_t x = coord(rng), y = coord(rng), z = coord(rng);
    const std::int32_t d = delta(rng);
    const auto m = core::morton_encode_3d(x, y, z);
    EXPECT_EQ(core::morton_step_x(m, d), core::morton_encode_3d(x + d, y, z));
    EXPECT_EQ(core::morton_step_y(m, d), core::morton_encode_3d(x, y + d, z));
    EXPECT_EQ(core::morton_step_z(m, d), core::morton_encode_3d(x, y, z + d));
  }
}

TEST(MortonStep, SignedStepWrapsModulo21Bits) {
  // Axis arithmetic is modulo 2^21, like coordinate arithmetic on the
  // dilated axis field: stepping past either end wraps, and inverse steps
  // cancel wherever they land.
  constexpr std::uint32_t kMask = (1u << 21) - 1;
  const auto m = core::morton_encode_3d(5, 10, 20);
  EXPECT_EQ(core::morton_step_x(m, -6), core::morton_encode_3d((5 - 6) & kMask, 10, 20));
  EXPECT_EQ(core::morton_step_z(core::morton_encode_3d(0, 0, kMask), 1),
            core::morton_encode_3d(0, 0, 0));
  std::mt19937 rng(56);
  std::uniform_int_distribution<std::uint32_t> dist(0, kMask);
  std::uniform_int_distribution<std::int32_t> delta(-100000, 100000);
  for (int n = 0; n < 2000; ++n) {
    const auto z = core::morton_encode_3d(dist(rng), dist(rng), dist(rng));
    const std::int32_t d = delta(rng);
    EXPECT_EQ(core::morton_step_x(core::morton_step_x(z, d), -d), z);
    EXPECT_EQ(core::morton_step_y(core::morton_step_y(z, d), -d), z);
    EXPECT_EQ(core::morton_step_z(core::morton_step_z(z, d), -d), z);
  }
}

TEST(MortonStep, WraparoundAt21BitBoundaryAllAxes) {
  // The hard case for the dilated-add trick: incrementing 2^21-1 must carry
  // through all 21 interleaved bit positions, wrap the stepped axis to 0,
  // and leave the other two axis fields untouched — even when those fields
  // are all-ones too (their bits are exactly the ones a leaked carry would
  // flip).
  constexpr std::uint32_t kMax = (1u << 21) - 1;
  for (const std::uint32_t other : {0u, 1u, 0x155555u, kMax}) {
    SCOPED_TRACE(other);
    const auto x_hi = core::morton_encode_3d(kMax, other, other);
    const auto y_hi = core::morton_encode_3d(other, kMax, other);
    const auto z_hi = core::morton_encode_3d(other, other, kMax);
    const auto x_lo = core::morton_encode_3d(0, other, other);
    const auto y_lo = core::morton_encode_3d(other, 0, other);
    const auto z_lo = core::morton_encode_3d(other, other, 0);
    // Ascending across the boundary: max -> 0 via step(+1).
    EXPECT_EQ(core::morton_step_x(x_hi, 1), x_lo);
    EXPECT_EQ(core::morton_step_y(y_hi, 1), y_lo);
    EXPECT_EQ(core::morton_step_z(z_hi, 1), z_lo);
    // Descending across the boundary: 0 -> max via step(-1).
    EXPECT_EQ(core::morton_step_x(x_lo, -1), x_hi);
    EXPECT_EQ(core::morton_step_y(y_lo, -1), y_hi);
    EXPECT_EQ(core::morton_step_z(z_lo, -1), z_hi);
  }
  // All three axes saturated at once: each increment wraps only its own
  // axis and the other two all-ones fields survive the full carry ripple.
  const auto all_max = core::morton_encode_3d(kMax, kMax, kMax);
  EXPECT_EQ(core::morton_step_x(all_max, 1), core::morton_encode_3d(0, kMax, kMax));
  EXPECT_EQ(core::morton_step_y(all_max, 1), core::morton_encode_3d(kMax, 0, kMax));
  EXPECT_EQ(core::morton_step_z(all_max, 1), core::morton_encode_3d(kMax, kMax, 0));
  // Multi-unit signed steps straddling the boundary in both directions.
  EXPECT_EQ(core::morton_step_x(core::morton_encode_3d(kMax - 2, 7, 9), 5),
            core::morton_encode_3d(2, 7, 9));
  EXPECT_EQ(core::morton_step_y(core::morton_encode_3d(7, 3, 9), -10),
            core::morton_encode_3d(7, (3u - 10u) & kMax, 9));
  EXPECT_EQ(core::morton_step_z(core::morton_encode_3d(7, 9, kMax), 2),
            core::morton_encode_3d(7, 9, 1));
}
