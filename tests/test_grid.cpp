// Tests for Grid3D, layout conversion, and the plain/traced views.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"

namespace core = sfcvis::core;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;
using core::HilbertLayout;
using core::TiledLayout;

namespace {

/// Unique value per coordinate for fill/readback checks.
float tag(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return static_cast<float>(i) + 1000.0f * static_cast<float>(j) +
         1000000.0f * static_cast<float>(k);
}

}  // namespace

template <class L>
class GridTypedTest : public ::testing::Test {};

using AllLayouts =
    ::testing::Types<ArrayOrderLayout, GeneralizedMortonLayout, TiledLayout, HilbertLayout>;
TYPED_TEST_SUITE(GridTypedTest, AllLayouts);

TYPED_TEST(GridTypedTest, FillAndReadBack) {
  Grid3D<float, TypeParam> g(Extents3D{12, 9, 7});
  g.fill_from(tag);
  g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(g.at(i, j, k), tag(i, j, k));
  });
}

TYPED_TEST(GridTypedTest, ZeroInitialized) {
  const Grid3D<float, TypeParam> g(Extents3D::cube(8));
  g.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(g.at(i, j, k), 0.0f);
  });
}

TYPED_TEST(GridTypedTest, ClampedAccessAtBorders) {
  Grid3D<float, TypeParam> g(Extents3D{4, 4, 4});
  g.fill_from(tag);
  EXPECT_EQ(g.at_clamped(-1, 0, 0), tag(0, 0, 0));
  EXPECT_EQ(g.at_clamped(0, -5, 0), tag(0, 0, 0));
  EXPECT_EQ(g.at_clamped(0, 0, -1), tag(0, 0, 0));
  EXPECT_EQ(g.at_clamped(4, 0, 0), tag(3, 0, 0));
  EXPECT_EQ(g.at_clamped(0, 9, 0), tag(0, 3, 0));
  EXPECT_EQ(g.at_clamped(1, 2, 100), tag(1, 2, 3));
  EXPECT_EQ(g.at_clamped(-3, 7, 9), tag(0, 3, 3));
}

TYPED_TEST(GridTypedTest, CapacityMatchesLayout) {
  const Extents3D e{10, 6, 3};
  const Grid3D<float, TypeParam> g(e);
  EXPECT_EQ(g.capacity(), g.layout().required_capacity());
  EXPECT_EQ(g.size(), e.size());
}

TYPED_TEST(GridTypedTest, StorageIsCacheLineAligned) {
  const Grid3D<float, TypeParam> g(Extents3D::cube(8));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.data()) % core::kCacheLineBytes, 0u);
}

TEST(GridConvert, ArrayToZPreservesContents) {
  Grid3D<float, ArrayOrderLayout> a(Extents3D{16, 8, 4});
  a.fill_from(tag);
  const auto z = core::convert_layout<GeneralizedMortonLayout>(a);
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(z.at(i, j, k), tag(i, j, k));
  });
}

TEST(GridConvert, RoundTripThroughAllLayouts) {
  Grid3D<float, ArrayOrderLayout> a(Extents3D{9, 5, 6});
  a.fill_from(tag);
  const auto z = core::convert_layout<GeneralizedMortonLayout>(a);
  const auto t = core::convert_layout<TiledLayout>(z);
  const auto h = core::convert_layout<HilbertLayout>(t);
  const auto back = core::convert_layout<ArrayOrderLayout>(h);
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    ASSERT_EQ(back.at(i, j, k), tag(i, j, k));
  });
}

TEST(GridArrayOrder, DataIsRowMajorContiguous) {
  Grid3D<float, ArrayOrderLayout> g(Extents3D{4, 3, 2});
  g.fill_from(tag);
  const float* p = g.data();
  std::size_t n = 0;
  for (std::uint32_t k = 0; k < 2; ++k) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(p[n++], tag(i, j, k));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

namespace {

/// Test sink capturing the raw access stream.
struct RecordingSink {
  std::vector<std::uint64_t> addrs;
  std::vector<std::uint32_t> sizes;
  void access(std::uint64_t addr, std::uint32_t bytes) {
    addrs.push_back(addr);
    sizes.push_back(bytes);
  }
};

static_assert(core::AccessSink<RecordingSink>);
static_assert(core::ReadView3D<core::PlainView<float, ArrayOrderLayout>>);
static_assert(core::ReadView3D<core::TracedView<float, GeneralizedMortonLayout, RecordingSink>>);

}  // namespace

TEST(PlainView, ForwardsReads) {
  Grid3D<float, GeneralizedMortonLayout> g(Extents3D::cube(8));
  g.fill_from(tag);
  const core::PlainView<float, GeneralizedMortonLayout> v(g);
  EXPECT_EQ(v.at(1, 2, 3), tag(1, 2, 3));
  EXPECT_EQ(v.at_clamped(-1, 2, 3), tag(0, 2, 3));
  EXPECT_EQ(v.extents(), g.extents());
}

TEST(TracedView, RecordsEveryAccessRebasedToSyntheticOrigin) {
  // Reported addresses are kTracedBase + the element's byte offset in the
  // grid's storage — never the real heap address, so the modeled counters
  // cannot depend on where the allocator happened to place the volume.
  Grid3D<float, GeneralizedMortonLayout> g(Extents3D::cube(8));
  g.fill_from(tag);
  RecordingSink sink;
  const core::TracedView<float, GeneralizedMortonLayout, RecordingSink> v(g, sink);
  constexpr std::uint64_t base =
      core::TracedView<float, GeneralizedMortonLayout, RecordingSink>::kTracedBase;

  EXPECT_EQ(v.at(3, 4, 5), tag(3, 4, 5));
  EXPECT_EQ(v.at(0, 0, 0), tag(0, 0, 0));
  EXPECT_EQ(v.at_clamped(-2, 0, 0), tag(0, 0, 0));

  ASSERT_EQ(sink.addrs.size(), 3u);
  EXPECT_EQ(sink.addrs[0], base + g.layout().index(3, 4, 5) * sizeof(float));
  EXPECT_EQ(sink.addrs[1], base);  // element (0,0,0) sits at the grid base
  EXPECT_EQ(sink.addrs[2], sink.addrs[1]);  // clamped to the same voxel
  for (const auto s : sink.sizes) {
    EXPECT_EQ(s, sizeof(float));
  }
}

TEST(TracedView, AddressDeltaReflectsLayout) {
  // The traced stream must expose layout locality: a y-step in array order
  // jumps nx*sizeof(float) bytes; in Z-order (8-cube) it jumps 2 elements.
  Grid3D<float, ArrayOrderLayout> a(Extents3D::cube(8));
  Grid3D<float, GeneralizedMortonLayout> z(Extents3D::cube(8));
  RecordingSink sa, sz;
  const core::TracedView va(a, sa);
  const core::TracedView vz(z, sz);
  (void)va.at(0, 0, 0);
  (void)va.at(0, 1, 0);
  (void)vz.at(0, 0, 0);
  (void)vz.at(0, 1, 0);
  EXPECT_EQ(sa.addrs[1] - sa.addrs[0], 8 * sizeof(float));
  EXPECT_EQ(sz.addrs[1] - sz.addrs[0], 2 * sizeof(float));
}
