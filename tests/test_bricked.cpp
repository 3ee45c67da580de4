// Out-of-core bricked backend: SFC neighbour-finding on the brick grid,
// the LRU stream cache, and the fault-injection paths of
// core/brick_file.hpp + core/bricked.hpp.
//
// Three contracts pinned here:
//  * brick-grid hops via morton_step_* agree with the decode-recompute
//    oracle on pow2, non-pow2, and anisotropic grids, including the
//    21-bit coordinate boundary, and gather_row hops bricks on every
//    inner layout;
//  * the stream cache evicts least-recently-used, never evicts a pinned
//    brick (overflow instead), keeps the exact acquire/miss/eviction
//    stream of a 1-thread kernel pass, serves concurrent views the source
//    values while hits, loads, prefetch and overflow race, counts
//    hits/misses into the metrics registry via
//    exec::publish_brick_cache_metrics, and degrades — with a recorded
//    reason — rather than failing on an impossible budget;
//  * corrupt files are reported errors at open(), and IO failures after
//    open yield zeroed data plus a sticky io_error, never a crash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/trace/trace.hpp"
#include "sfcvis/verify/rng.hpp"

namespace {

using namespace sfcvis;
using core::AnyVolume;
using core::BrickedVolume;
using core::BrickFileInfo;
using core::BrickOpenOptions;
using core::BrickPackOptions;
using core::Extents3D;
using core::LayoutKind;

float field(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return static_cast<float>(i) * 1.0f + static_cast<float>(j) * 0.015625f -
         static_cast<float>(k) * 3.5f;
}

AnyVolume make_source(const Extents3D& e) {
  AnyVolume v = core::make_volume(LayoutKind::kArray, e);
  v.fill_from(field);
  return v;
}

/// Packs `source` (by default the `field` volume of `extents`) into a
/// fresh temp brick file; removes it on scope exit.
struct TempBrickFile {
  std::filesystem::path path;
  BrickFileInfo info;

  TempBrickFile(const Extents3D& extents, const BrickPackOptions& opts)
      : TempBrickFile(make_source(extents), opts) {}
  TempBrickFile(const AnyVolume& source, const BrickPackOptions& opts) {
    static int serial = 0;
    path = std::filesystem::temp_directory_path() /
           ("sfcvis_test_bricked_" + std::to_string(::getpid()) + "_" +
            std::to_string(serial++) + ".sfcbrk");
    info = core::pack_brick_file(path.string(), source, opts);
  }
  ~TempBrickFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  TempBrickFile(const TempBrickFile&) = delete;
  TempBrickFile& operator=(const TempBrickFile&) = delete;

  [[nodiscard]] std::string str() const { return path.string(); }
};

/// Overwrites `len` bytes at `offset` of an existing file.
void poke_bytes(const std::filesystem::path& p, std::uint64_t offset,
                const void* bytes, std::size_t len) {
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(len));
  ASSERT_TRUE(f.good());
}

void poke_u32(const std::filesystem::path& p, std::uint64_t offset, std::uint32_t v) {
  poke_bytes(p, offset, &v, sizeof(v));
}

// ---------------------------------------------------------------------------
// Satellite: SFC neighbour-finding on the brick grid
// ---------------------------------------------------------------------------

TEST(BrickNeighborFinding, StepMatchesDecodeRecomputeOracle) {
  // Brick-grid shapes a bricked volume actually produces: pow2 cube,
  // non-pow2 cube, strongly anisotropic. Every in-range hop of |d| <= 3
  // along every axis must agree with encode(decode(m) + d).
  const Extents3D grids[] = {{8, 8, 8}, {5, 7, 3}, {33, 4, 17}};
  for (const Extents3D& g : grids) {
    for (std::uint32_t z = 0; z < g.nz; ++z) {
      for (std::uint32_t y = 0; y < g.ny; ++y) {
        for (std::uint32_t x = 0; x < g.nx; ++x) {
          const std::uint64_t m = core::morton_encode_3d(x, y, z);
          for (std::int32_t d = -3; d <= 3; ++d) {
            const std::int64_t tx = static_cast<std::int64_t>(x) + d;
            const std::int64_t ty = static_cast<std::int64_t>(y) + d;
            const std::int64_t tz = static_cast<std::int64_t>(z) + d;
            if (tx >= 0 && tx < static_cast<std::int64_t>(g.nx)) {
              EXPECT_EQ(core::morton_step_x(m, d),
                        core::morton_encode_3d(static_cast<std::uint32_t>(tx), y, z))
                  << "x step " << d << " from (" << x << "," << y << "," << z << ")";
            }
            if (ty >= 0 && ty < static_cast<std::int64_t>(g.ny)) {
              EXPECT_EQ(core::morton_step_y(m, d),
                        core::morton_encode_3d(x, static_cast<std::uint32_t>(ty), z));
            }
            if (tz >= 0 && tz < static_cast<std::int64_t>(g.nz)) {
              EXPECT_EQ(core::morton_step_z(m, d),
                        core::morton_encode_3d(x, y, static_cast<std::uint32_t>(tz)));
            }
          }
        }
      }
    }
  }
}

TEST(BrickNeighborFinding, TwentyOneBitBoundary) {
  // Axis arithmetic is modulo 2^21 (kMortonMaxBits3D); hops at the top of
  // the coordinate range must ripple correctly and wrap as documented.
  const std::uint32_t max = (1u << core::kMortonMaxBits3D) - 1;
  const std::uint64_t m = core::morton_encode_3d(max, 5, 9);
  EXPECT_EQ(core::morton_decode_3d(m), (core::MortonCoord3D{max, 5, 9}));
  EXPECT_EQ(core::morton_step_x(m, -1), core::morton_encode_3d(max - 1, 5, 9));
  // +1 from the max coordinate wraps that axis to 0, other axes untouched.
  EXPECT_EQ(core::morton_step_x(m, 1), core::morton_encode_3d(0, 5, 9));
  // ...and wraps back.
  EXPECT_EQ(core::morton_step_x(core::morton_encode_3d(0, 5, 9), -1), m);
  // A carry that ripples across every x bit: 0x0fffff + 1.
  const std::uint32_t half = (1u << 20) - 1;
  EXPECT_EQ(core::morton_step_x(core::morton_encode_3d(half, max, max), 1),
            core::morton_encode_3d(half + 1, max, max));
  // Large |d| in one hop, near the boundary.
  EXPECT_EQ(core::morton_step_y(core::morton_encode_3d(3, max - 7, 11), 7),
            core::morton_encode_3d(3, max, 11));
  EXPECT_EQ(core::morton_step_z(core::morton_encode_3d(3, 11, max), -1000),
            core::morton_encode_3d(3, 11, max - 1000));
}

TEST(BrickNeighborFinding, ViewCrossesBrickBoundariesEveryDirection) {
  // 20^3 at edge 8 -> a 3^3 non-pow2 brick grid. A serpentine walk and an
  // explicit +-x/+-y/+-z boundary-straddling stencil must both read the
  // source field exactly, through a streaming cache smaller than the
  // working set (so hops also exercise eviction + reload).
  const Extents3D e{20, 20, 20};
  BrickPackOptions popts;
  popts.brick_edge = 8;
  popts.inner_kind = LayoutKind::kZOrder;
  TempBrickFile file(e, popts);

  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = 3 * file.info.brick_bytes();  // 27-brick grid, 3 slots
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);
  const auto view = core::make_read_view(vol);

  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      const bool rev = ((j + k) & 1u) != 0;
      for (std::uint32_t n = 0; n < e.nx; ++n) {
        const std::uint32_t i = rev ? e.nx - 1 - n : n;
        ASSERT_EQ(view.at(i, j, k), field(i, j, k)) << i << "," << j << "," << k;
      }
    }
  }
  // Stencil taps that straddle the brick seam at 8 and 16 in each axis.
  for (const std::uint32_t c : {7u, 8u, 15u, 16u}) {
    EXPECT_EQ(view.at(c, 10, 10), field(c, 10, 10));
    EXPECT_EQ(view.at(10, c, 10), field(10, c, 10));
    EXPECT_EQ(view.at(10, 10, c), field(10, 10, c));
  }
  // Clamped accesses outside the volume hit the boundary voxel.
  EXPECT_EQ(view.at_clamped(-3, 5, 5), field(0, 5, 5));
  EXPECT_EQ(view.at_clamped(25, 5, 5), field(19, 5, 5));
  EXPECT_EQ(view.at_clamped(5, -1, 30), field(5, 0, 19));
}

TEST(BrickNeighborFinding, GatherRowHopsBricksOnAnisotropicGrid) {
  // 40x8x24 at edge 8 -> a 5x1x3 brick grid; rows along every axis cross
  // multiple bricks via the morton_step_* hop in gather_row, on every
  // inner layout a brick can hold.
  const Extents3D e{40, 8, 24};
  struct Inner {
    LayoutKind kind;
    const char* interleave;
  };
  const Inner inners[] = {{LayoutKind::kArray, ""},
                          {LayoutKind::kZOrder, ""},
                          {LayoutKind::kTiled, ""},
                          {LayoutKind::kHilbert, ""},
                          {LayoutKind::kGMorton, "zyxzxyxyz"}};
  for (const Inner& inner : inners) {
    SCOPED_TRACE(core::to_string(inner.kind));
    BrickPackOptions popts;
    popts.brick_edge = 8;
    popts.inner_kind = inner.kind;
    popts.inner_tile = 4;
    popts.interleave = inner.interleave;
    TempBrickFile file(e, popts);
    const BrickedVolume vol = BrickedVolume::open(file.str());

    const auto expect_row = [&vol](core::Axis3 axis, std::uint32_t i, std::uint32_t j,
                                   std::uint32_t k, std::uint32_t n) {
      std::vector<float> row(n);
      core::gather_row(vol, axis, i, j, k, n, row.data());
      for (std::uint32_t l = 0; l < n; ++l) {
        const std::uint32_t ii = axis == core::Axis3::kX ? i + l : i;
        const std::uint32_t jj = axis == core::Axis3::kY ? j + l : j;
        const std::uint32_t kk = axis == core::Axis3::kZ ? k + l : k;
        ASSERT_EQ(row[l], field(ii, jj, kk))
            << "axis " << static_cast<int>(axis) << " at " << ii << "," << jj << "," << kk;
      }
    };
    expect_row(core::Axis3::kX, 0, 3, 9, e.nx);
    expect_row(core::Axis3::kY, 17, 0, 21, e.ny);
    expect_row(core::Axis3::kZ, 33, 5, 0, e.nz);
    // Rows that start and end inside a brick.
    expect_row(core::Axis3::kX, 3, 3, 9, e.nx - 5);
    expect_row(core::Axis3::kY, 17, 3, 21, e.ny - 5);
    expect_row(core::Axis3::kZ, 33, 5, 3, e.nz - 5);
  }
}

// ---------------------------------------------------------------------------
// Pack / open round trip
// ---------------------------------------------------------------------------

TEST(BrickFile, RoundTripsBitIdenticalAcrossInnerLayouts) {
  const Extents3D shapes[] = {{16, 16, 16}, {20, 12, 9}};
  struct Inner {
    LayoutKind kind;
    const char* interleave;
  };
  const Inner inners[] = {{LayoutKind::kArray, ""},
                          {LayoutKind::kZOrder, ""},
                          {LayoutKind::kTiled, ""},
                          {LayoutKind::kHilbert, ""},
                          {LayoutKind::kGMorton, "zyxzyxzxyxyz"}};
  for (const Extents3D& e : shapes) {
    for (const Inner& inner : inners) {
      BrickPackOptions popts;
      popts.brick_edge = 16;
      popts.inner_kind = inner.kind;
      popts.inner_tile = 4;
      popts.interleave = inner.interleave;
      TempBrickFile file(e, popts);
      const BrickedVolume vol = BrickedVolume::open(file.str());
      ASSERT_EQ(vol.extents().nx, e.nx);
      const auto view = core::make_read_view(vol);
      for (std::uint32_t k = 0; k < e.nz; ++k) {
        for (std::uint32_t j = 0; j < e.ny; ++j) {
          for (std::uint32_t i = 0; i < e.nx; ++i) {
            ASSERT_EQ(view.at(i, j, k), field(i, j, k))
                << core::to_string(inner.kind) << " " << e.nx << "x" << e.ny << "x"
                << e.nz << " at " << i << "," << j << "," << k;
          }
        }
      }
    }
  }
}

TEST(BrickFile, HeaderRoundTripsThroughReader) {
  BrickPackOptions popts;
  popts.brick_edge = 8;
  popts.inner_kind = LayoutKind::kGMorton;
  popts.interleave = "zyxzyxzyx";
  TempBrickFile file({20, 12, 9}, popts);
  const BrickFileInfo read = core::read_brick_file_header(file.str());
  EXPECT_EQ(read.extents.nx, 20u);
  EXPECT_EQ(read.extents.ny, 12u);
  EXPECT_EQ(read.extents.nz, 9u);
  EXPECT_EQ(read.brick_edge, 8u);
  EXPECT_EQ(read.inner_kind, LayoutKind::kGMorton);
  EXPECT_EQ(read.interleave, "zyxzyxzyx");
  EXPECT_EQ(read.brick_count, file.info.brick_count);
  EXPECT_EQ(read.expected_file_size(), std::filesystem::file_size(file.path));
}

TEST(BrickFile, PackRejectsImpossibleOptions) {
  const AnyVolume src = make_source({8, 8, 8});
  const auto tmp = (std::filesystem::temp_directory_path() / "sfcvis_reject.sfcbrk").string();
  BrickPackOptions bad_edge;
  bad_edge.brick_edge = 12;  // not a power of two
  EXPECT_THROW((void)core::pack_brick_file(tmp, src, bad_edge), std::invalid_argument);
  BrickPackOptions bad_inner;
  bad_inner.inner_kind = LayoutKind::kBricked;  // bricks of bricks
  EXPECT_THROW((void)core::pack_brick_file(tmp, src, bad_inner), std::invalid_argument);
  std::error_code ec;
  std::filesystem::remove(tmp, ec);
}

// ---------------------------------------------------------------------------
// Satellite: LRU stream cache
// ---------------------------------------------------------------------------

// 16x16x8 at edge 8 -> a 2x2x1 brick grid: codes 0, 1, 2, 3.
BrickPackOptions four_brick_opts() {
  BrickPackOptions popts;
  popts.brick_edge = 8;
  popts.inner_kind = LayoutKind::kZOrder;
  return popts;
}

TEST(BrickLruCache, EvictsLeastRecentlyUsed) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = 2 * file.info.brick_bytes();  // two slots
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  const auto touch = [&](std::uint64_t code) {
    const BrickedVolume::BrickRef ref = vol.acquire_brick(code);
    vol.release_brick(ref.slot);
  };
  touch(0);
  touch(1);
  touch(3);  // full; 0 is least recent -> evicted
  touch(1);  // refresh 1 so 3 is now least recent
  touch(2);  // -> evicts 3, not 1

  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_EQ(rep.slot_count, 2u);
  EXPECT_FALSE(rep.mmapped);
  const std::vector<std::uint64_t> log = vol.eviction_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 0u);
  EXPECT_EQ(log[1], 3u);
  EXPECT_EQ(rep.evictions, 2u);
}

TEST(BrickLruCache, DoubleReleaseLeavesTheLruOrderIntact) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = 2 * file.info.brick_bytes();  // two slots
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  const auto touch = [&](std::uint64_t code) {
    const BrickedVolume::BrickRef ref = vol.acquire_brick(code);
    vol.release_brick(ref.slot);
  };
  // One release too many must leave brick 0's slot as it was: resident,
  // unpinned and evictable. A slot it corrupted would stop being an LRU
  // candidate, and the evictions below would take other bricks.
  const BrickedVolume::BrickRef a = vol.acquire_brick(0);
  vol.release_brick(a.slot);
  vol.release_brick(a.slot);
  touch(1);
  touch(3);  // -> evicts 0, the least recent
  touch(1);  // a hit
  touch(2);  // -> evicts 3

  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_EQ(rep.hits, 1u);
  EXPECT_EQ(rep.misses, 4u);
  EXPECT_EQ(rep.overflow_bricks, 0u);
  EXPECT_EQ(vol.eviction_log(), (std::vector<std::uint64_t>{0, 3}));
}

/// FNV-1a over the little-endian bytes of `codes`.
std::uint64_t fnv1a_codes(const std::vector<std::uint64_t>& codes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t c : codes) {
    for (int b = 0; b < 8; ++b) {
      h ^= (c >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(BrickLruCache, OneThreadKernelPassKeepsItsCacheStream) {
  // With one worker and no prefetch thread, a kernel pass makes one fixed
  // sequence of acquires and releases, so its hits, misses and evictions
  // per stage, and the order of the evictions, are a pure function of the
  // LRU policy. The values were recorded with a cache that took its mutex
  // on every acquire and release; how the cache synchronizes must not
  // change them.
  const Extents3D e{64, 64, 64};
  AnyVolume source = core::make_volume(LayoutKind::kArray, e);
  data::CombustionParams params;
  params.seed = 1;
  data::fill_combustion(source, params);
  BrickPackOptions popts;
  popts.brick_edge = 8;
  popts.inner_kind = LayoutKind::kZOrder;
  const TempBrickFile file(source, popts);  // 512 bricks

  exec::ExecOptions xopts;
  xopts.threads = 1;
  xopts.memory.brick_cache_bytes = e.size() * sizeof(float) / 4;  // 128 slots
  exec::ExecutionContext ctx(xopts);
  const AnyVolume vol = ctx.open_bricked(file.str(), 0);
  const BrickedVolume& bricked = vol.as_bricked();
  ASSERT_EQ(bricked.cache_report().slot_count, 128u);

  struct Counts {
    std::uint64_t hits, misses, evictions;
  };
  std::vector<Counts> stages;
  const auto drain = [&] {
    const core::BrickCacheReport d = bricked.drain_cache_deltas();
    EXPECT_EQ(d.overflow_bricks, 0u);
    stages.push_back({d.hits, d.misses, d.evictions});
  };

  core::ArrayVolume gradient(e);
  filters::gradient_magnitude(vol, gradient, ctx);
  drain();
  const render::MacrocellGrid cells = render::MacrocellGrid::build(vol, 8, &ctx);
  drain();
  render::RenderConfig cfg;
  cfg.image_width = cfg.image_height = 64;
  cfg.use_macrocells = true;
  cfg.macrocell_size = 8;
  const render::TransferFunction tf = render::TransferFunction::flame();
  for (const unsigned view : {0u, 2u}) {
    const render::Camera cam = render::orbit_camera(view, 8, 64.0f, 64.0f, 64.0f);
    (void)render::raycast_parallel(vol, cam, tf, cfg, ctx, &cells);
    drain();
  }

  const std::vector<Counts> expected = {
      {29792, 512, 384},    // gradient
      {29658, 1384, 1384},  // macrocell build
      {5434, 216, 216},     // view 0
      {5016, 252, 252},     // view 2
  };
  ASSERT_EQ(stages.size(), expected.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    EXPECT_EQ(stages[s].hits, expected[s].hits) << "stage " << s;
    EXPECT_EQ(stages[s].misses, expected[s].misses) << "stage " << s;
    EXPECT_EQ(stages[s].evictions, expected[s].evictions) << "stage " << s;
  }
  const std::vector<std::uint64_t> log = bricked.eviction_log();
  EXPECT_EQ(log.size(), 1024u);  // capped; the first 1,024 evictions
  EXPECT_EQ(fnv1a_codes(log), 0xed71ad268243d2edull);
  EXPECT_TRUE(bricked.cache_report().io_error.empty());
}

TEST(BrickLruCache, ConcurrentViewsReadTheSourceWhileTheCacheChurns) {
  // 32x32x16 at edge 8 -> 32 bricks in 12 slots, prefetch 2. Four workers
  // can pin 4 x 8 bricks in their views' rings, more than there are slots,
  // so resident hits, slot claims, waits on a loading slot, prefetch loads
  // and overflow bricks all race with each other.
  const Extents3D e{32, 32, 16};
  const TempBrickFile file(e, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = 12 * file.info.brick_bytes();
  oopts.prefetch_depth = 2;
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);
  ASSERT_EQ(vol.cache_report().slot_count, 12u);

  constexpr unsigned kWorkers = 4;
  constexpr int kReads = 20000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const core::BrickedView view(vol);
      verify::SplitMix64 rng(1000 + w);
      for (int n = 0; n < kReads; ++n) {
        const auto i = static_cast<std::uint32_t>(rng.below(e.nx));
        const auto j = static_cast<std::uint32_t>(rng.below(e.ny));
        const auto k = static_cast<std::uint32_t>(rng.below(e.nz));
        if (view.at(i, j, k) != field(i, j, k)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  const core::BrickCacheReport raced = vol.cache_report();
  EXPECT_GT(raced.hits, 0u);
  EXPECT_GT(raced.evictions, 0u);
  EXPECT_TRUE(raced.io_error.empty()) << raced.io_error;

  // The views are gone, so every pin they took must be gone too. Walk all
  // 32 bricks holding up to 11 at once: the prefetch thread keeps at most
  // one more slot busy, so with no leaked pin every acquire finds a slot.
  std::deque<BrickedVolume::BrickRef> held;
  const Extents3D grid = file.info.brick_grid();
  for (std::uint32_t bk = 0; bk < grid.nz; ++bk) {
    for (std::uint32_t bj = 0; bj < grid.ny; ++bj) {
      for (std::uint32_t bi = 0; bi < grid.nx; ++bi) {
        if (held.size() == 11) {
          vol.release_brick(held.front().slot);
          held.pop_front();
        }
        held.push_back(vol.acquire_brick(core::morton_encode_3d(bi, bj, bk)));
      }
    }
  }
  for (const BrickedVolume::BrickRef& ref : held) {
    vol.release_brick(ref.slot);
  }
  const core::BrickCacheReport after = vol.cache_report();
  EXPECT_EQ(after.overflow_bricks, raced.overflow_bricks);
  EXPECT_TRUE(after.io_error.empty()) << after.io_error;
}

TEST(BrickLruCache, PinnedBricksOverflowInsteadOfEvicting) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = file.info.brick_bytes();  // one slot
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  // Hold the only slot pinned, then demand a different brick: the load
  // must succeed out-of-arena and the pinned data must stay valid.
  const BrickedVolume::BrickRef a = vol.acquire_brick(0);
  ASSERT_NE(a.data, nullptr);
  const float a_first = a.data[0];
  const BrickedVolume::BrickRef b = vol.acquire_brick(3);
  ASSERT_NE(b.data, nullptr);
  EXPECT_NE(a.data, b.data);
  EXPECT_EQ(a.data[0], a_first);  // pin survived the second load

  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_GE(rep.overflow_bricks, 1u);
  EXPECT_TRUE(vol.eviction_log().empty());  // nothing was evicted

  vol.release_brick(b.slot);
  vol.release_brick(a.slot);
}

TEST(BrickLruCache, HitMissCountersReachMetricsRegistry) {
  auto& tracer = trace::Tracer::instance();
  tracer.reset_metrics();

  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = file.info.brick_bytes();  // one slot
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  const auto touch = [&](std::uint64_t code) {
    const BrickedVolume::BrickRef ref = vol.acquire_brick(code);
    vol.release_brick(ref.slot);
  };
  touch(0);  // miss
  touch(0);  // hit
  touch(1);  // miss (+ evict 0)

  const core::BrickCacheReport delta = exec::publish_brick_cache_metrics(vol);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 2u);
  EXPECT_EQ(delta.evictions, 1u);

  const trace::MetricsSnapshot snap = tracer.metrics_snapshot();
  EXPECT_EQ(snap.total("bricked.cache_hit"), 1u);
  EXPECT_EQ(snap.total("bricked.cache_miss"), 2u);
  EXPECT_EQ(snap.total("bricked.evictions"), 1u);

  // The publisher drains deltas: publishing again adds nothing.
  const core::BrickCacheReport again = exec::publish_brick_cache_metrics(vol);
  EXPECT_EQ(again.hits, 0u);
  EXPECT_EQ(again.misses, 0u);
  EXPECT_EQ(tracer.metrics_snapshot().total("bricked.cache_miss"), 2u);
  tracer.reset_metrics();
}

TEST(BrickLruCache, BudgetBelowOneBrickDegradesWithReason) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = 7;  // far below one brick
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_EQ(rep.slot_count, 1u);  // degraded to the one-slot minimum
  EXPECT_FALSE(rep.degrade.empty());

  // ...and it still reads correctly.
  const auto view = core::make_read_view(vol);
  EXPECT_EQ(view.at(0, 0, 0), field(0, 0, 0));
  EXPECT_EQ(view.at(15, 15, 7), field(15, 15, 7));
}

TEST(BrickLruCache, MmapModeUsesNoSlots) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  const BrickedVolume vol = BrickedVolume::open(file.str());
  if (!vol.mmapped()) {
    // The OS refused the mapping: the degrade reason must say so.
    EXPECT_FALSE(vol.cache_report().degrade.empty());
    return;
  }
  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_EQ(rep.slot_count, 0u);
  EXPECT_TRUE(rep.mmapped);
  const auto view = core::make_read_view(vol);
  EXPECT_EQ(view.at(9, 14, 3), field(9, 14, 3));
}

// ---------------------------------------------------------------------------
// Satellite: fault injection
// ---------------------------------------------------------------------------

TEST(BrickFaultInjection, MissingFileThrows) {
  EXPECT_THROW((void)BrickedVolume::open("/nonexistent/no_such.sfcbrk"),
               std::runtime_error);
  EXPECT_THROW((void)core::read_brick_file_header("/nonexistent/no_such.sfcbrk"),
               std::runtime_error);
}

TEST(BrickFaultInjection, TruncatedFileRejectedAtOpen) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  std::filesystem::resize_file(file.path, file.info.expected_file_size() - 4);
  EXPECT_THROW((void)core::read_brick_file_header(file.str()), std::runtime_error);
  EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
}

TEST(BrickFaultInjection, OversizedFileRejectedAtOpen) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  std::filesystem::resize_file(file.path, file.info.expected_file_size() + 64);
  EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
}

TEST(BrickFaultInjection, CorruptMagicRejected) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  poke_bytes(file.path, 0, "XFCBRK01", 8);
  EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
}

TEST(BrickFaultInjection, CorruptHeaderFieldsRejected) {
  {
    TempBrickFile file({16, 16, 8}, four_brick_opts());
    poke_u32(file.path, 8, 99);  // unknown version
    EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
  }
  {
    TempBrickFile file({16, 16, 8}, four_brick_opts());
    poke_u32(file.path, 24, 12);  // non-pow2 brick edge
    EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
  }
  {
    TempBrickFile file({16, 16, 8}, four_brick_opts());
    poke_u32(file.path, 28, 7);  // LayoutKind out of range
    EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
  }
  {
    TempBrickFile file({16, 16, 8}, four_brick_opts());
    poke_u32(file.path, 12, 0);  // zero extent
    EXPECT_THROW((void)BrickedVolume::open(file.str()), std::runtime_error);
  }
}

TEST(BrickFaultInjection, ShortReadMidStreamIsReportedNotFatal) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  BrickOpenOptions oopts;
  oopts.force_stream = true;
  oopts.cache_bytes = file.info.brick_bytes();  // one slot: every touch repreads
  const BrickedVolume vol = BrickedVolume::open(file.str(), oopts);

  // The file passes the open-time size check, then loses all but the
  // first brick — the disk lying to us mid-stream.
  const auto view0 = core::make_read_view(vol);
  EXPECT_EQ(view0.at(0, 0, 0), field(0, 0, 0));
  std::filesystem::resize_file(file.path,
                               file.info.payload_offset + file.info.brick_bytes());

  // A voxel in the now-missing last brick: zeroed data, sticky io_error,
  // no crash (and no dirty read of whatever was in the slot before).
  const auto view = core::make_read_view(vol);
  EXPECT_EQ(view.at(15, 15, 7), 0.0f);
  const core::BrickCacheReport rep = vol.cache_report();
  EXPECT_FALSE(rep.io_error.empty());
  // The first brick still reads fine afterwards.
  EXPECT_EQ(view.at(1, 2, 3), field(1, 2, 3));
}

// ---------------------------------------------------------------------------
// Facade + exec integration
// ---------------------------------------------------------------------------

TEST(BrickedFacade, KindParsesAndMakeVolumeRefuses) {
  EXPECT_STREQ(core::to_string(LayoutKind::kBricked), "bricked");
  EXPECT_EQ(core::parse_layout_kind("bricked"), LayoutKind::kBricked);
  // kAllLayoutKinds stays the in-core set: bricked volumes are opened from
  // a packed file, never allocated.
  for (const auto kind : core::kAllLayoutKinds) {
    EXPECT_NE(kind, LayoutKind::kBricked);
  }
  EXPECT_THROW((void)core::make_volume(LayoutKind::kBricked, {8, 8, 8}),
               std::invalid_argument);
}

TEST(BrickedFacade, AnyVolumeForwardsAndStaysReadOnly) {
  TempBrickFile file({16, 16, 8}, four_brick_opts());
  // Writable access through either mode is a reported logic error. A write
  // would fault on the read-only map, or land in the shared stream cache
  // where later reads would return it.
  for (const std::size_t cache : {std::size_t{0}, 2 * file.info.brick_bytes()}) {
    BrickOpenOptions opts;
    opts.cache_bytes = cache;  // 0 = mmap, else a two-slot stream cache
    AnyVolume written{BrickedVolume::open(file.str(), opts)};
    EXPECT_THROW((void)written.at(3, 0, 0), std::logic_error) << cache;
    EXPECT_THROW((void)written.as_bricked().at(3, 0, 0), std::logic_error) << cache;
    EXPECT_EQ(std::as_const(written).at(3, 0, 0), field(3, 0, 0)) << cache;
  }

  AnyVolume vol{BrickedVolume::open(file.str())};
  EXPECT_EQ(vol.kind(), LayoutKind::kBricked);
  EXPECT_STREQ(vol.layout_name(), "bricked");
  EXPECT_EQ(vol.extents().nx, 16u);
  EXPECT_EQ(vol.size(), std::size_t{16 * 16 * 8});
  EXPECT_EQ(std::as_const(vol).at(4, 9, 2), field(4, 9, 2));
  // Writes through the facade are a reported logic error.
  EXPECT_THROW(vol.fill_from([](auto, auto, auto) { return 0.0f; }), std::logic_error);

  // Reading out (layout conversion / copy) works: bricked is a source.
  const AnyVolume converted = vol.convert_to(LayoutKind::kZOrder);
  AnyVolume copied = core::make_volume(LayoutKind::kArray, vol.extents());
  copied.copy_from(vol);
  for (std::uint32_t k = 0; k < 8; ++k) {
    for (std::uint32_t j = 0; j < 16; ++j) {
      for (std::uint32_t i = 0; i < 16; ++i) {
        ASSERT_EQ(converted.at(i, j, k), field(i, j, k));
        ASSERT_EQ(copied.at(i, j, k), field(i, j, k));
      }
    }
  }
}

TEST(BrickedExec, OpenBrickedHonorsMemoryPolicyAndKernelsMatch) {
  const Extents3D e{24, 20, 16};
  BrickPackOptions popts;
  popts.brick_edge = 8;
  popts.inner_kind = LayoutKind::kGMorton;
  popts.interleave = "zyxzyxzxy";
  TempBrickFile file(e, popts);

  exec::ExecOptions xopts;
  xopts.threads = 4;
  xopts.memory.brick_cache_bytes = 2 * file.info.brick_bytes();
  exec::ExecutionContext ctx(xopts);

  core::AnyVolume bricked = ctx.open_bricked(file.str());
  ASSERT_EQ(bricked.kind(), LayoutKind::kBricked);
  // brick_cache_bytes > 0 means stream mode, per the policy.
  EXPECT_FALSE(bricked.as_bricked().mmapped());
  EXPECT_EQ(bricked.as_bricked().cache_report().slot_count, 2u);

  // A multi-threaded kernel over the bricked source must be bit-identical
  // to the same kernel over the in-core source.
  const AnyVolume in_core = make_source(e);
  core::ArrayVolume out_bricked(e);
  core::ArrayVolume out_core(e);
  filters::gradient_magnitude(bricked, out_bricked, ctx);
  filters::gradient_magnitude(in_core, out_core, ctx);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(out_bricked.at(i, j, k), out_core.at(i, j, k))
            << i << "," << j << "," << k;
      }
    }
  }
  // The run generated cache traffic we can publish.
  const core::BrickCacheReport delta =
      exec::publish_brick_cache_metrics(bricked.as_bricked());
  EXPECT_GT(delta.misses, 0u);
}

}  // namespace
