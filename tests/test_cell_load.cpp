// The border-clamped 2x2x2 cell load (Grid3D::cell_clamped, view.cell):
// on every layout and backend it must return exactly the eight values of
// the eight at_clamped reads it replaces, in the corner order c000, c100,
// c010, c110, c001, c101, c011, c111 — and the traced views must report
// the same eight addresses in the same order, so the modeled-cache,
// locality and brick-cache streams stay what eight separate reads make.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/verify/rng.hpp"

namespace core = sfcvis::core;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::Grid3D;
using core::HilbertLayout;
using core::TiledLayout;

namespace {

/// Unique, exactly representable value per voxel (shapes below 2^24 / 1e6).
float tag(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return static_cast<float>(i) + 1000.0f * static_cast<float>(j) +
         1000000.0f * static_cast<float>(k);
}

/// Brick edge of the packed test volumes below.
constexpr std::uint32_t kBrickEdge = 8;

/// Per-axis probe coordinates: below the volume, the low border, the last
/// voxel of the first brick (its +1 neighbour lies in the next brick), the
/// interior, the last two voxels (n - 1 clamps its +1 neighbour) and past
/// the end. Their product covers interior, face, edge and corner cells,
/// and cells that cross a brick face, edge or corner.
std::vector<std::int64_t> probes(std::uint32_t n) {
  const auto m = static_cast<std::int64_t>(n);
  return {-1, 0, kBrickEdge - 1, m / 2, m - 2, m - 1, m + 2};
}

/// The eight reads a cell load replaces, spelled out in corner order.
template <class View>
std::array<float, 8> eight_taps(const View& v, std::int64_t i, std::int64_t j, std::int64_t k) {
  return {v.at_clamped(i, j, k),         v.at_clamped(i + 1, j, k),
          v.at_clamped(i, j + 1, k),     v.at_clamped(i + 1, j + 1, k),
          v.at_clamped(i, j, k + 1),     v.at_clamped(i + 1, j, k + 1),
          v.at_clamped(i, j + 1, k + 1), v.at_clamped(i + 1, j + 1, k + 1)};
}

/// Expected cell from the logical field alone (no layout involved).
std::array<float, 8> expected_cell(const Extents3D& e, std::int64_t i, std::int64_t j,
                                   std::int64_t k) {
  const auto c = [](std::int64_t v, std::uint32_t n) {
    return static_cast<std::uint32_t>(v < 0 ? 0 : (v >= n ? n - 1 : v));
  };
  std::array<float, 8> out{};
  for (int n = 0; n < 8; ++n) {
    out[n] = tag(c(i + (n & 1), e.nx), c(j + ((n >> 1) & 1), e.ny), c(k + ((n >> 2) & 1), e.nz));
  }
  return out;
}

/// Calls check(i, j, k) on every probe cell of `e`.
template <class Fn>
void for_each_probe(const Extents3D& e, Fn&& check) {
  for (const std::int64_t k : probes(e.nz)) {
    for (const std::int64_t j : probes(e.ny)) {
      for (const std::int64_t i : probes(e.nx)) {
        check(i, j, k);
      }
    }
  }
}

struct RecordingSink {
  std::vector<std::uint64_t> addrs;
  void access(std::uint64_t addr, std::uint32_t /*bytes*/) { addrs.push_back(addr); }
};

const Extents3D kOdd{37, 21, 13};
const Extents3D kCube = Extents3D::cube(16);

/// Grid, plain-view and traced-view cell loads against the eight reads.
template <class L>
void expect_grid_cells_match(const L& layout, const std::string& what) {
  Grid3D<float, L> g(layout);
  g.fill_from(tag);
  const core::PlainView<float, L> plain(g);
  RecordingSink cell_sink, tap_sink;
  const core::TracedView<float, L, RecordingSink> traced_cell(g, cell_sink);
  const core::TracedView<float, L, RecordingSink> traced_taps(g, tap_sink);
  const Extents3D& e = g.extents();
  for_each_probe(e, [&](std::int64_t i, std::int64_t j, std::int64_t k) {
    const auto want = expected_cell(e, i, j, k);
    ASSERT_EQ(eight_taps(g, i, j, k), want) << what << " reference at " << i << "," << j
                                            << "," << k;
    EXPECT_EQ(g.cell_clamped(i, j, k), want) << what << " grid at " << i << "," << j << ","
                                             << k;
    EXPECT_EQ(plain.cell(i, j, k), want) << what << " plain at " << i << "," << j << "," << k;
    EXPECT_EQ(traced_cell.cell(i, j, k), want)
        << what << " traced at " << i << "," << j << "," << k;
    (void)eight_taps(traced_taps, i, j, k);
  });
  EXPECT_EQ(cell_sink.addrs, tap_sink.addrs) << what;
  EXPECT_EQ(cell_sink.addrs.size(), 8 * probes(e.nx).size() * probes(e.ny).size() *
                                        probes(e.nz).size())
      << what;
}

}  // namespace

TEST(CellLoad, ArrayOrderMatchesEightTaps) {
  expect_grid_cells_match(ArrayOrderLayout(kOdd), "array 37x21x13");
  expect_grid_cells_match(ArrayOrderLayout(kCube), "array 16^3");
}

TEST(CellLoad, ZOrderMatchesEightTaps) {
  expect_grid_cells_match(GeneralizedMortonLayout(kOdd), "z-order 37x21x13");
  expect_grid_cells_match(GeneralizedMortonLayout(kCube), "z-order 16^3");
}

TEST(CellLoad, TunedGMortonPatternMatchesEightTaps) {
  // Non-canonical interleaves: 6 x, 5 y and 4 z bit-planes for the padded
  // 64x32x16 shape, 4 of each for the cube.
  expect_grid_cells_match(GeneralizedMortonLayout(kOdd, "zyzyxzyxzyxxyxx"),
                          "gmorton zyzyxzyxzyxxyxx");
  expect_grid_cells_match(GeneralizedMortonLayout(kCube, "zzyyxxzyxzyx"),
                          "gmorton zzyyxxzyxzyx");
}

TEST(CellLoad, TiledMatchesEightTaps) {
  expect_grid_cells_match(TiledLayout(kOdd), "tiled 8^3 37x21x13");
  expect_grid_cells_match(TiledLayout(kOdd, 4, 2, 8), "tiled 4x2x8 37x21x13");
  expect_grid_cells_match(TiledLayout(kCube), "tiled 8^3 16^3");
}

TEST(CellLoad, HilbertMatchesEightTaps) {
  expect_grid_cells_match(HilbertLayout(kOdd), "hilbert 37x21x13");
  expect_grid_cells_match(HilbertLayout(kCube), "hilbert 16^3");
}

TEST(CellLoad, SeparableOffsetsSumToIndex) {
  const auto check = [](const auto& layout, const char* what) {
    const Extents3D& e = layout.extents();
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(layout.x_offset(i) + layout.y_offset(j) + layout.z_offset(k),
                    layout.index(i, j, k))
              << what << " at " << i << "," << j << "," << k;
        }
      }
    }
  };
  check(ArrayOrderLayout(kOdd), "array");
  check(GeneralizedMortonLayout(kOdd), "z-order");
  check(GeneralizedMortonLayout(kOdd, "zyzyxzyxzyxxyxx"), "gmorton");
  check(TiledLayout(kOdd, 4, 2, 8), "tiled");
}

namespace {

/// Packs a tag-filled volume into a temp SFCBRK01 file; removes it on scope
/// exit.
struct TempBricks {
  std::filesystem::path path;

  TempBricks(const Extents3D& e, core::LayoutKind inner) {
    static int serial = 0;
    path = std::filesystem::temp_directory_path() /
           ("sfcvis_test_cell_load_" + std::to_string(::getpid()) + "_" +
            std::to_string(serial++) + ".sfcbrk");
    core::AnyVolume src = core::make_volume(core::LayoutKind::kArray, e);
    src.fill_from(tag);
    core::BrickPackOptions opts;
    opts.brick_edge = kBrickEdge;
    opts.inner_kind = inner;
    core::pack_brick_file(path.string(), src, opts);
  }
  ~TempBricks() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  TempBricks(const TempBricks&) = delete;
  TempBricks& operator=(const TempBricks&) = delete;
};

/// Byte budget of a 4-slot stream cache over the test files.
constexpr std::size_t kFourBricks = std::size_t{4} * kBrickEdge * kBrickEdge * kBrickEdge * 4;

}  // namespace

TEST(CellLoad, BrickedViewsMatchEightTaps) {
  for (const Extents3D& e : {kOdd, kCube}) {
    for (const auto inner : {core::LayoutKind::kArray, core::LayoutKind::kZOrder}) {
      const TempBricks file(e, inner);
      for (const std::size_t cache : {std::size_t{0}, kFourBricks}) {
        core::BrickOpenOptions opts;
        opts.cache_bytes = cache;  // 0 = mmap; else a 4-brick stream cache
        const auto vol = core::BrickedVolume::open(file.path.string(), opts);
        const std::string what = std::to_string(e.nx) + "x" + std::to_string(e.ny) + "x" +
                                 std::to_string(e.nz) + " inner " +
                                 std::to_string(static_cast<int>(inner)) + " cache " +
                                 std::to_string(cache);
        const auto plain = core::make_read_view(vol);
        RecordingSink cell_sink, tap_sink;
        const auto traced_cell = core::make_traced_view(vol, cell_sink);
        const auto traced_taps = core::make_traced_view(vol, tap_sink);
        for_each_probe(e, [&](std::int64_t i, std::int64_t j, std::int64_t k) {
          const auto want = expected_cell(e, i, j, k);
          ASSERT_EQ(eight_taps(plain, i, j, k), want) << what;
          EXPECT_EQ(plain.cell(i, j, k), want)
              << what << " plain at " << i << "," << j << "," << k;
          EXPECT_EQ(traced_cell.cell(i, j, k), want)
              << what << " traced at " << i << "," << j << "," << k;
          (void)eight_taps(traced_taps, i, j, k);
        });
        EXPECT_EQ(cell_sink.addrs, tap_sink.addrs) << what;
        EXPECT_FALSE(cell_sink.addrs.empty()) << what;
      }
    }
  }
}

TEST(CellLoad, BrickedCellKeepsTheBrickCacheStreamOfEightTaps) {
  // Two opens of one file get two independent caches: one serves view.cell,
  // the other the eight at_clamped reads, over the same cell sequence. A
  // random walk with occasional jumps revisits bricks through the view's
  // 8-entry ring and the 4-slot LRU alike, crossing brick faces on the way.
  const TempBricks file(kOdd, core::LayoutKind::kZOrder);
  for (const std::size_t cache : {std::size_t{0}, kFourBricks}) {
    core::BrickOpenOptions opts;
    opts.cache_bytes = cache;  // 0 = mmap, where every acquire counts a hit
    opts.prefetch_depth = 0;
    const auto cell_vol = core::BrickedVolume::open(file.path.string(), opts);
    const auto taps_vol = core::BrickedVolume::open(file.path.string(), opts);
    const auto cell_view = core::make_read_view(cell_vol);
    const auto taps_view = core::make_read_view(taps_vol);
    sfcvis::verify::SplitMix64 rng(20);
    const auto coord = [&](std::uint32_t n) {
      return static_cast<std::int64_t>(rng.below(n + 2)) - 1;  // [-1, n]
    };
    std::int64_t i = 0, j = 0, k = 0;
    for (int step = 0; step < 4000; ++step) {
      if (rng.chance(5)) {
        i = coord(kOdd.nx);
        j = coord(kOdd.ny);
        k = coord(kOdd.nz);
      } else {
        i = std::clamp<std::int64_t>(i + static_cast<std::int64_t>(rng.below(5)) - 2, -1, kOdd.nx);
        j = std::clamp<std::int64_t>(j + static_cast<std::int64_t>(rng.below(5)) - 2, -1, kOdd.ny);
        k = std::clamp<std::int64_t>(k + static_cast<std::int64_t>(rng.below(5)) - 2, -1, kOdd.nz);
      }
      ASSERT_EQ(cell_view.cell(i, j, k), eight_taps(taps_view, i, j, k))
          << "cache " << cache << " at " << i << "," << j << "," << k;
    }
    const core::BrickCacheReport a = cell_vol.cache_report();
    const core::BrickCacheReport b = taps_vol.cache_report();
    EXPECT_EQ(a.hits, b.hits) << cache;
    EXPECT_EQ(a.misses, b.misses) << cache;
    EXPECT_EQ(a.evictions, b.evictions) << cache;
    EXPECT_EQ(a.overflow_bricks, b.overflow_bricks) << cache;
    EXPECT_EQ(cell_vol.eviction_log(), taps_vol.eviction_log()) << cache;
    if (cache != 0) {
      EXPECT_GT(a.evictions, 0u) << "the walk must cycle the 4-slot cache";
    }
  }
}
