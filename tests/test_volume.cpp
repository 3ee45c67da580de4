// core::AnyVolume / LayoutKind facade: the one place the four concrete
// Grid3D instantiations are spelled. Everything here pins the dispatch
// behaviour the rest of the codebase now relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <variant>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"

namespace {

using namespace sfcvis;
using core::AnyVolume;
using core::Extents3D;
using core::LayoutKind;

float field(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return static_cast<float>(i) + 0.25f * static_cast<float>(j) -
         0.5f * static_cast<float>(k);
}

TEST(LayoutKind, ToStringMatchesLayoutNames) {
  EXPECT_STREQ(core::to_string(LayoutKind::kArray), "array-order");
  EXPECT_STREQ(core::to_string(LayoutKind::kZOrder), "z-order");
  EXPECT_STREQ(core::to_string(LayoutKind::kTiled), "tiled");
  EXPECT_STREQ(core::to_string(LayoutKind::kHilbert), "hilbert");
  EXPECT_STREQ(core::to_string(LayoutKind::kGMorton), "gmorton");
}

TEST(LayoutKind, ParseRoundTripsAllKinds) {
  for (const auto kind : core::kAllLayoutKinds) {
    EXPECT_EQ(core::parse_layout_kind(core::to_string(kind)), kind);
  }
}

TEST(LayoutKind, ParseAcceptsAliases) {
  EXPECT_EQ(core::parse_layout_kind("array"), LayoutKind::kArray);
  EXPECT_EQ(core::parse_layout_kind("a-order"), LayoutKind::kArray);
  EXPECT_EQ(core::parse_layout_kind("zorder"), LayoutKind::kZOrder);
  EXPECT_EQ(core::parse_layout_kind("morton"), LayoutKind::kZOrder);
  EXPECT_EQ(core::parse_layout_kind("generalized-morton"), LayoutKind::kGMorton);
}

TEST(LayoutKind, ParseRejectsUnknown) {
  EXPECT_THROW((void)core::parse_layout_kind("row-major"), std::invalid_argument);
  EXPECT_THROW((void)core::parse_layout_kind(""), std::invalid_argument);
}

TEST(LayoutKind, ParseFailureListsValidNamesAndInterleaveSyntax) {
  // The error message is the CLI's only documentation at the point of
  // failure: it must enumerate every accepted name and show the
  // "gmorton:<pattern>" syntax.
  try {
    (void)core::parse_layout_kind("row-major");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("row-major"), std::string::npos) << msg;
    for (const auto kind : core::kAllLayoutKinds) {
      EXPECT_NE(msg.find(core::to_string(kind)), std::string::npos) << msg;
    }
    EXPECT_NE(msg.find("gmorton:<pattern>"), std::string::npos) << msg;
  }
}

TEST(LayoutSpec, ParsesPlainKindsAndGMortonPattern) {
  EXPECT_EQ(core::parse_layout_spec("tiled").kind, LayoutKind::kTiled);
  EXPECT_TRUE(core::parse_layout_spec("tiled").interleave.empty());

  const core::LayoutSpec spec = core::parse_layout_spec("gmorton:zyxzyx");
  EXPECT_EQ(spec.kind, LayoutKind::kGMorton);
  EXPECT_EQ(spec.interleave, "zyxzyx");

  // Plain "gmorton" means the canonical pattern is chosen at make_volume
  // time (it depends on the extents).
  EXPECT_EQ(core::parse_layout_spec("gmorton").kind, LayoutKind::kGMorton);
  EXPECT_TRUE(core::parse_layout_spec("gmorton").interleave.empty());
}

TEST(LayoutSpec, RejectsArgumentsOnOtherKindsAndEmptyPattern) {
  EXPECT_THROW((void)core::parse_layout_spec("tiled:8"), std::invalid_argument);
  EXPECT_THROW((void)core::parse_layout_spec("gmorton:"), std::invalid_argument);
  EXPECT_THROW((void)core::parse_layout_spec("bogus:zyx"), std::invalid_argument);
}

TEST(MakeVolume, KindAndNameMatchRequest) {
  const Extents3D e{12, 7, 5};
  for (const auto kind : core::kAllLayoutKinds) {
    const AnyVolume v = core::make_volume(kind, e);
    // An unpatterned gmorton request is the canonical pattern: z-order.
    const LayoutKind want = kind == LayoutKind::kGMorton ? LayoutKind::kZOrder : kind;
    EXPECT_EQ(v.kind(), want);
    EXPECT_STREQ(v.layout_name(), core::to_string(want));
    EXPECT_EQ(v.extents().nx, e.nx);
    EXPECT_EQ(v.size(), e.size());
  }
}

TEST(MakeVolume, CapacitiesMatchDirectLayouts) {
  const Extents3D e{20, 7, 5};
  EXPECT_EQ(core::make_volume(LayoutKind::kArray, e).capacity(),
            core::ArrayOrderLayout(e).required_capacity());
  EXPECT_EQ(core::make_volume(LayoutKind::kZOrder, e).capacity(),
            core::GeneralizedMortonLayout(e).required_capacity());
  EXPECT_EQ(core::make_volume(LayoutKind::kHilbert, e).capacity(),
            core::HilbertLayout(e).required_capacity());
  core::VolumeOpts opts;
  opts.tile = 4;
  EXPECT_EQ(core::make_volume(LayoutKind::kTiled, e, opts).capacity(),
            core::TiledLayout(e, 4).required_capacity());
}

TEST(AnyVolume, KindOfGMortonVolumeFollowsItsPattern) {
  // Z-order is the canonical generalized-Morton pattern: a gmorton volume
  // reports z-order exactly when its pattern is canonical for its extents.
  const Extents3D e{12, 7, 5};
  const AnyVolume canonical{core::GMortonVolume(core::GeneralizedMortonLayout(e))};
  EXPECT_EQ(canonical.kind(), LayoutKind::kZOrder);
  EXPECT_STREQ(canonical.layout_name(), "z-order");
  core::VolumeOpts opts;
  opts.interleave = core::InterleavePattern::canonical(e).str();
  EXPECT_EQ(core::make_volume(LayoutKind::kGMorton, e, opts).kind(), LayoutKind::kZOrder);

  const AnyVolume tuned{core::GMortonVolume(
      core::GeneralizedMortonLayout(e, core::InterleavePattern::array_order(e)))};
  EXPECT_EQ(tuned.kind(), LayoutKind::kGMorton);
  EXPECT_STREQ(tuned.layout_name(), "gmorton");
}

TEST(AnyVolume, FillAndAtAgreeAcrossLayouts) {
  const Extents3D e{9, 6, 5};
  for (const auto kind : core::kAllLayoutKinds) {
    AnyVolume v = core::make_volume(kind, e);
    v.fill_from(field);
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(v.at(i, j, k), field(i, j, k))
              << core::to_string(kind) << " at " << i << "," << j << "," << k;
        }
      }
    }
  }
}

TEST(AnyVolume, AsReturnsConcreteGridOrThrows) {
  AnyVolume v = core::make_volume(LayoutKind::kZOrder, Extents3D::cube(8));
  EXPECT_NO_THROW((void)v.as<core::GeneralizedMortonLayout>());
  EXPECT_THROW((void)v.as<core::ArrayOrderLayout>(), std::bad_variant_access);
  auto& grid = v.as<core::GeneralizedMortonLayout>();
  grid.at(1, 2, 3) = 7.0f;
  EXPECT_EQ(v.at(1, 2, 3), 7.0f);
}

TEST(AnyVolume, VisitReturnsValues) {
  AnyVolume v = core::make_volume(LayoutKind::kTiled, Extents3D::cube(8));
  const std::size_t cap = v.visit([](const auto& g) { return g.capacity(); });
  EXPECT_EQ(cap, v.capacity());
}

TEST(AnyVolume, ConvertToPreservesContentsAcrossAllKinds) {
  const Extents3D e{10, 6, 7};
  AnyVolume src = core::make_volume(LayoutKind::kArray, e);
  src.fill_from(field);
  for (const auto kind : core::kAllLayoutKinds) {
    const AnyVolume dst = src.convert_to(kind);
    EXPECT_EQ(dst.kind(), kind == LayoutKind::kGMorton ? LayoutKind::kZOrder : kind);
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(dst.at(i, j, k), field(i, j, k)) << core::to_string(kind);
        }
      }
    }
  }
}

TEST(AnyVolume, CopyFromAnyLayoutPair) {
  const Extents3D e{8, 5, 6};
  AnyVolume src = core::make_volume(LayoutKind::kHilbert, e);
  src.fill_from(field);
  AnyVolume dst = core::make_volume(LayoutKind::kZOrder, e);
  dst.copy_from(src);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(dst.at(i, j, k), field(i, j, k));
      }
    }
  }
}

TEST(AnyVolume, DefaultAllocReportIsInert) {
  const AnyVolume v = core::make_volume(LayoutKind::kArray, Extents3D::cube(8));
  const core::AllocReport& report = v.alloc_report();
  EXPECT_FALSE(report.huge_pages_requested);
  EXPECT_FALSE(report.first_touch_requested);
  EXPECT_FALSE(report.huge_page_fallback());
  EXPECT_TRUE(report.message.empty());
}

}  // namespace
