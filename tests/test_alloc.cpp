// core/align.hpp AlignedBuffer: cache-line alignment, value-initialization
// (padding included), the byte-count overflow check, copy and move.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "sfcvis/core/align.hpp"
#include "sfcvis/core/volume.hpp"

namespace {

using namespace sfcvis;
using core::AlignedBuffer;

bool is_aligned(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(AlignedBufferTest, DefaultPolicyIsCacheLineAlignedAndZeroed) {
  const AlignedBuffer<float> buf(1000);
  ASSERT_EQ(buf.size(), 1000U);
  EXPECT_TRUE(is_aligned(buf.data(), core::kCacheLineBytes));
  for (std::size_t n = 0; n < buf.size(); ++n) {
    ASSERT_EQ(buf[n], 0.0f) << "element " << n;
  }
}

TEST(AlignedBufferTest, EveryFacadeVolumeIsCacheLineAligned) {
  for (const auto kind : core::kAllLayoutKinds) {
    const core::AnyVolume v = core::make_volume(kind, core::Extents3D{20, 7, 5});
    EXPECT_TRUE(is_aligned(v.data(), core::kCacheLineBytes)) << core::to_string(kind);
  }
}

TEST(AlignedBufferTest, PaddingIsValueInitialized) {
  // Z-order pads 20x7x5 up to the enclosing power-of-two box; the padding
  // beyond the logical size must read as zero (memsim and the zsweep
  // drivers walk the padded curve).
  const core::AnyVolume v = core::make_volume(core::LayoutKind::kZOrder,
                                              core::Extents3D{20, 7, 5});
  ASSERT_GT(v.capacity(), v.size());
  for (std::size_t n = 0; n < v.capacity(); ++n) {
    ASSERT_EQ(v.data()[n], 0.0f) << "element " << n;
  }
}

TEST(AlignedBufferTest, OverflowingCountThrowsBadAlloc) {
  // count * sizeof(float) does not fit in size_t: the buffer must refuse
  // instead of allocating the wrapped byte count and zeroing past its end.
  EXPECT_THROW((AlignedBuffer<float>(SIZE_MAX / 2)), std::bad_alloc);
  // This count wraps to a 4-byte allocation without the check.
  EXPECT_THROW((AlignedBuffer<float>(SIZE_MAX / sizeof(float) + 2)), std::bad_alloc);
}

TEST(AlignedBufferTest, CopyAndMovePreserveContentsAndAlignment) {
  AlignedBuffer<float> src(64);
  for (std::size_t n = 0; n < src.size(); ++n) {
    src[n] = static_cast<float>(n);
  }
  const AlignedBuffer<float> copy(src);
  ASSERT_EQ(copy.size(), 64U);
  EXPECT_TRUE(is_aligned(copy.data(), core::kCacheLineBytes));
  for (std::size_t n = 0; n < copy.size(); ++n) {
    ASSERT_EQ(copy[n], static_cast<float>(n));
  }
  const AlignedBuffer<float> moved(std::move(src));
  ASSERT_EQ(moved.size(), 64U);
  EXPECT_EQ(moved[63], 63.0f);
  EXPECT_EQ(src.size(), 0U);  // NOLINT(bugprone-use-after-move): moved-from state is pinned
}

}  // namespace
