// Tests for the runtime Indexer facade (paper Sec. III-C) and extents
// helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/indexer.hpp"
#include "sfcvis/core/layout.hpp"

namespace core = sfcvis::core;

using core::Extents3D;
using core::Indexer;
using core::Order;

TEST(IndexerTest, ArrayOrderMatchesLayout) {
  const Extents3D e{24, 12, 6};
  const Indexer idx(Order::kArray, e);
  const core::ArrayOrderLayout layout(e);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(idx.getIndex(i, j, k), layout.index(i, j, k));
      }
    }
  }
  EXPECT_EQ(idx.required_capacity(), e.size());
}

TEST(IndexerTest, ZOrderMatchesLayout) {
  const Extents3D e{24, 12, 6};
  const Indexer idx(Order::kZ, e);
  const core::GeneralizedMortonLayout layout(e);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(idx.getIndex(i, j, k), layout.index(i, j, k));
      }
    }
  }
  EXPECT_EQ(idx.required_capacity(), layout.required_capacity());
}

TEST(IndexerTest, ZOrderIsInjective) {
  const Extents3D e{9, 7, 5};
  const Indexer idx(Order::kZ, e);
  std::vector<bool> seen(idx.required_capacity(), false);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const auto v = idx.getIndex(i, j, k);
        ASSERT_LT(v, seen.size());
        ASSERT_FALSE(seen[v]);
        seen[v] = true;
      }
    }
  }
}

TEST(IndexerTest, OrderAndExtentsAccessors) {
  const Extents3D e{8, 8, 8};
  EXPECT_EQ(Indexer(Order::kArray, e).order(), Order::kArray);
  EXPECT_EQ(Indexer(Order::kZ, e).order(), Order::kZ);
  EXPECT_EQ(Indexer(Order::kZ, e).extents(), e);
}

TEST(IndexerTest, ThrowsOnInvalidExtents) {
  EXPECT_THROW(Indexer(Order::kArray, Extents3D{0, 1, 1}), std::invalid_argument);
  EXPECT_THROW(Indexer(Order::kZ, Extents3D{1, 0, 1}), std::invalid_argument);
}

TEST(IndexerTest, ToStringMatchesFigureLabels) {
  EXPECT_EQ(core::to_string(Order::kArray), "a-order");
  EXPECT_EQ(core::to_string(Order::kZ), "z-order");
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
