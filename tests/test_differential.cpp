// Tests for the sfcvis::verify differential-testing subsystem: the ULP /
// tolerance-tier machinery, the DiffReport oracle's first-divergence
// pinpointing, the deterministic fuzz RNG, and a fixed set of fuzz and
// metamorphic seeds run end-to-end (the CI fuzz gate runs many more
// through tools/fuzz_layouts; these pin a reproducible sample into ctest).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/render/image.hpp"
#include "sfcvis/verify/diff.hpp"
#include "sfcvis/verify/fuzz.hpp"
#include "sfcvis/verify/rng.hpp"

namespace core = sfcvis::core;
namespace render = sfcvis::render;
namespace verify = sfcvis::verify;

// ---------------------------------------------------------------------------
// ULP distance and tolerance tiers
// ---------------------------------------------------------------------------

TEST(UlpDistance, IdenticalAndSignedZero) {
  EXPECT_EQ(verify::ulp_distance(1.0f, 1.0f), 0u);
  EXPECT_EQ(verify::ulp_distance(0.0f, -0.0f), 0u);
  EXPECT_EQ(verify::ulp_distance(-3.5f, -3.5f), 0u);
}

TEST(UlpDistance, CountsRepresentableSteps) {
  const float one_up = std::nextafter(1.0f, 2.0f);
  EXPECT_EQ(verify::ulp_distance(1.0f, one_up), 1u);
  EXPECT_EQ(verify::ulp_distance(one_up, 1.0f), 1u);
  const float two_up = std::nextafter(one_up, 2.0f);
  EXPECT_EQ(verify::ulp_distance(1.0f, two_up), 2u);
  // Crossing zero: distance is the sum of steps on both sides.
  const float pos = std::nextafter(0.0f, 1.0f);
  const float neg = std::nextafter(-0.0f, -1.0f);
  EXPECT_EQ(verify::ulp_distance(neg, pos), 2u);
}

TEST(UlpDistance, NanIsMaximallyDistant) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(verify::ulp_distance(nan, 1.0f), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(verify::ulp_distance(1.0f, nan), std::numeric_limits<std::uint64_t>::max());
}

TEST(Tolerance, Tiers) {
  const float one_up = std::nextafter(1.0f, 2.0f);
  EXPECT_TRUE(verify::Tolerance::bit_identical().accepts(1.0f, 1.0f));
  EXPECT_FALSE(verify::Tolerance::bit_identical().accepts(1.0f, one_up));
  EXPECT_TRUE(verify::Tolerance::ulps(1).accepts(1.0f, one_up));
  EXPECT_FALSE(verify::Tolerance::ulps(1).accepts(1.0f, std::nextafter(one_up, 2.0f)));
  EXPECT_TRUE(verify::Tolerance::absolute(0.1f).accepts(1.0f, 1.05f));
  EXPECT_FALSE(verify::Tolerance::absolute(0.1f).accepts(1.0f, 1.2f));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(verify::Tolerance::absolute(0.1f).accepts(nan, nan));
}

// ---------------------------------------------------------------------------
// The DiffReport oracle
// ---------------------------------------------------------------------------

TEST(DiffReport, PinsFirstDivergentVoxelAcrossLayouts) {
  const core::Extents3D e{7, 5, 4};
  core::Grid3D<float, core::ArrayOrderLayout> a(e);
  a.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i + 10 * j + 100 * k);
  });
  auto z = core::convert_layout<core::GeneralizedMortonLayout>(a);

  // Identical contents compare clean under the strictest tier.
  const auto clean = verify::compare_grids(a, z, verify::Tolerance::bit_identical(), "clean");
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(clean.compared, e.size());
  EXPECT_EQ(clean.mismatches, 0u);

  // An injected single-voxel "layout bug" is pinned exactly: coordinates,
  // both values, and the mismatch count.
  z.at(3, 1, 2) += 0.5f;
  const auto report = verify::compare_grids(a, z, verify::Tolerance::bit_identical(), "bug");
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.mismatches, 1u);
  EXPECT_EQ(report.i, 3u);
  EXPECT_EQ(report.j, 1u);
  EXPECT_EQ(report.k, 2u);
  EXPECT_EQ(report.expected, a.at(3, 1, 2));
  EXPECT_EQ(report.actual, a.at(3, 1, 2) + 0.5f);
  EXPECT_NE(report.to_string().find("bug"), std::string::npos);
  EXPECT_NE(report.to_string().find("(3,1,2)"), std::string::npos);

  // The same divergence vanishes under a tier that allows it.
  EXPECT_TRUE(verify::compare_grids(a, z, verify::Tolerance::absolute(0.6f), "loose").ok);
}

TEST(DiffReport, FirstDivergenceIsInArrayOrder) {
  const core::Extents3D e{4, 4, 4};
  core::Grid3D<float, core::ArrayOrderLayout> a(e), b(e);
  b.at(2, 3, 1) = 1.0f;  // later in array order (i fastest)
  b.at(3, 0, 2) = 1.0f;  // larger k: even later
  b.at(1, 3, 1) = 1.0f;  // the earliest of the three
  const auto report = verify::compare_grids(a, b, verify::Tolerance::bit_identical(), "order");
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.mismatches, 3u);
  EXPECT_EQ(report.i, 1u);
  EXPECT_EQ(report.j, 3u);
  EXPECT_EQ(report.k, 1u);
}

TEST(DiffReport, ExtentsMismatchIsFailureNotUb) {
  core::Grid3D<float, core::ArrayOrderLayout> a(core::Extents3D{4, 4, 4});
  core::Grid3D<float, core::ArrayOrderLayout> b(core::Extents3D{4, 4, 5});
  const auto report = verify::compare_grids(a, b, verify::Tolerance::bit_identical(), "size");
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.context.find("extents mismatch"), std::string::npos);
}

TEST(DiffReport, MirroredImageComparison) {
  render::Image a(6, 2);
  render::Image b(6, 2);
  a.at(1, 0).r = 0.25f;
  b.at(4, 0).r = 0.25f;  // the x-mirror position of (1, 0)
  EXPECT_TRUE(verify::compare_images_mirrored_x(a, b, verify::Tolerance::bit_identical(),
                                                "mirror")
                  .ok);
  // The same pair compared unmirrored diverges at the first of the two
  // pixels, channel r (= 0).
  const auto direct =
      verify::compare_images(a, b, verify::Tolerance::bit_identical(), "direct");
  EXPECT_FALSE(direct.ok);
  EXPECT_EQ(direct.mismatches, 2u);
  EXPECT_EQ(direct.i, 1u);
  EXPECT_EQ(direct.j, 0u);
  EXPECT_EQ(direct.k, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

TEST(SplitMix64, MatchesPublishedVectors) {
  // Known-answer outputs of SplitMix64 from seed 0 (Steele, Lea & Flood
  // 2014; the same vectors the xoshiro reference code ships). If these
  // ever fail, fuzz seeds stop reproducing across machines.
  verify::SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, DerivedDrawsStayInRange) {
  verify::SplitMix64 rng(123);
  for (int n = 0; n < 1000; ++n) {
    const float u = rng.unit_float();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
    EXPECT_LT(rng.below(7), 7u);
    const auto r = rng.range(3, 9);
    EXPECT_GE(r, 3u);
    EXPECT_LE(r, 9u);
    const float f = rng.uniform(-1.5f, 2.5f);
    EXPECT_GE(f, -1.5f);
    EXPECT_LT(f, 2.5f);
  }
}

TEST(HashCoord, DeterministicAndCoordinateSensitive) {
  EXPECT_EQ(verify::hash_coord(42, 1, 2, 3), verify::hash_coord(42, 1, 2, 3));
  EXPECT_NE(verify::hash_coord(42, 1, 2, 3), verify::hash_coord(42, 2, 1, 3));
  EXPECT_NE(verify::hash_coord(42, 1, 2, 3), verify::hash_coord(43, 1, 2, 3));
  const float u = verify::hash_unit(7, 5, 6, 7);
  EXPECT_GE(u, 0.0f);
  EXPECT_LT(u, 1.0f);
}

// ---------------------------------------------------------------------------
// End-to-end fuzz and metamorphic seeds
// ---------------------------------------------------------------------------

namespace {

void expect_summary_clean(const verify::FuzzSummary& summary) {
  EXPECT_TRUE(summary.ok()) << "seed " << summary.seed << " (" << summary.description
                            << ") produced " << summary.failures.size() << " divergences";
  for (const auto& failure : summary.failures) {
    ADD_FAILURE() << failure.to_string();
  }
  EXPECT_GT(summary.checks, 0u);
}

}  // namespace

TEST(DifferentialFuzz, FixedQuickSeedsAreDivergenceFree) {
  const verify::FuzzOptions opts{.quick = true};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    expect_summary_clean(verify::run_fuzz_case(seed, opts));
  }
}

TEST(DifferentialFuzz, MetamorphicSeedsHoldInvariants) {
  const verify::FuzzOptions opts{.quick = true};
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_summary_clean(verify::run_metamorphic_case(seed, opts));
  }
}

TEST(DifferentialFuzz, CasesAreReproducible) {
  const verify::FuzzOptions opts{.quick = true};
  const auto first = verify::run_fuzz_case(17, opts);
  const auto second = verify::run_fuzz_case(17, opts);
  EXPECT_EQ(first.description, second.description);
  EXPECT_EQ(first.checks, second.checks);
  EXPECT_EQ(first.extents, second.extents);
  const auto meta1 = verify::run_metamorphic_case(17, opts);
  const auto meta2 = verify::run_metamorphic_case(17, opts);
  EXPECT_EQ(meta1.description, meta2.description);
  EXPECT_EQ(meta1.checks, meta2.checks);
}

TEST(DifferentialFuzz, DistinctSeedsGenerateDistinctCases) {
  const verify::FuzzOptions opts{.quick = true};
  // Not a tautology: a seeding bug (e.g. ignoring the seed) would make
  // every case identical and silently collapse the fuzz space to one case.
  int distinct = 0;
  const auto base = verify::run_fuzz_case(0, opts);
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    if (verify::run_fuzz_case(seed, opts).description != base.description) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0);
}
