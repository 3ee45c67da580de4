// Tests for the cache model and hierarchy (src/sfcvis/memsim/*).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/memsim/cache.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/memsim/platforms.hpp"

namespace core = sfcvis::core;
namespace memsim = sfcvis::memsim;

using memsim::Cache;
using memsim::CacheConfig;
using memsim::Hierarchy;
using memsim::PlatformSpec;

// ---------------------------------------------------------------------------
// Single cache
// ---------------------------------------------------------------------------

TEST(CacheModel, ColdMissThenHit) {
  Cache c(CacheConfig{"t", 1024, 64, 2});
  EXPECT_FALSE(c.access(100));
  EXPECT_TRUE(c.access(100));
  EXPECT_TRUE(c.access(100));
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits(), 2u);
}

TEST(CacheModel, DistinctLinesMissIndependently) {
  Cache c(CacheConfig{"t", 4096, 64, 4});
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_FALSE(c.access(line));
  }
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_TRUE(c.access(line));
  }
}

TEST(CacheModel, LruEvictionOrder) {
  // 2-way, 8 sets: lines 0, 8, 16 all map to set 0.
  Cache c(CacheConfig{"t", 1024, 64, 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(8));
  EXPECT_TRUE(c.access(0));    // 0 becomes MRU; 8 is LRU
  EXPECT_FALSE(c.access(16));  // evicts 8
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(8));  // 8 was evicted
}

TEST(CacheModel, ContainsDoesNotMutate) {
  Cache c(CacheConfig{"t", 1024, 64, 2});
  c.access(42);
  const auto before = c.stats().accesses;
  EXPECT_TRUE(c.contains(42));
  EXPECT_FALSE(c.contains(43));
  EXPECT_EQ(c.stats().accesses, before);
}

TEST(CacheModel, CapacityIsRespected) {
  // 16 lines capacity; touching 17 distinct lines twice must produce
  // at least one second-pass miss, while 16 lines fit entirely.
  Cache fits(CacheConfig{"t", 1024, 64, 2});
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t line = 0; line < 16; ++line) {
      fits.access(line);
    }
  }
  EXPECT_EQ(fits.stats().misses, 16u);

  Cache overflows(CacheConfig{"t", 1024, 64, 2});
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t line = 0; line < 17; ++line) {
      overflows.access(line);
    }
  }
  EXPECT_GT(overflows.stats().misses, 17u);
}

TEST(CacheModel, ResetAndResetStats) {
  Cache c(CacheConfig{"t", 1024, 64, 2});
  c.access(1);
  c.access(1);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.access(1));  // contents stayed warm
  c.reset();
  EXPECT_FALSE(c.access(1));  // cold again
}

TEST(CacheModel, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{"t", 1024, 48, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"t", 1024, 64, 0}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"t", 64, 64, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{"t", 3 * 64, 64, 1}), std::invalid_argument);
}

TEST(CacheModel, MissRate) {
  Cache c(CacheConfig{"t", 1024, 64, 2});
  c.access(0);
  c.access(0);
  c.access(0);
  c.access(1);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

TEST(CacheModel, FullyAssociativeBehaviour) {
  // One set, 16 ways: any 16 lines co-reside regardless of address bits.
  Cache c(CacheConfig{"t", 1024, 64, 16});
  for (std::uint64_t line = 0; line < 16; ++line) {
    c.access(line * 977 + 3);
  }
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_TRUE(c.contains(line * 977 + 3));
  }
}

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

TEST(HierarchyModel, MissFallsThroughLevels) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  h.access(0, 0x1000, 4);
  auto levels = h.level_stats();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].stats.accesses, 1u);  // L1 access, miss
  EXPECT_EQ(levels[0].stats.misses, 1u);
  EXPECT_EQ(levels[1].stats.accesses, 1u);  // L2 access, miss
  EXPECT_EQ(levels[2].stats.accesses, 1u);  // LLC access, miss
  EXPECT_EQ(h.memory_fills(), 1u);
}

TEST(HierarchyModel, L1HitStopsPropagation) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  h.access(0, 0x1000, 4);
  h.access(0, 0x1000, 4);
  auto levels = h.level_stats();
  EXPECT_EQ(levels[0].stats.accesses, 2u);
  EXPECT_EQ(levels[1].stats.accesses, 1u);  // second access never left L1
  EXPECT_EQ(levels[2].stats.accesses, 1u);
  EXPECT_EQ(h.memory_fills(), 1u);
}

TEST(HierarchyModel, SameLineAccessesCoalesceInL1) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  // 16 floats on one 64-byte line: 1 miss, 15 hits.
  for (int e = 0; e < 16; ++e) {
    h.access(0, 0x2000 + 4 * static_cast<std::uint64_t>(e), 4);
  }
  EXPECT_EQ(h.level_stats()[0].stats.misses, 1u);
  EXPECT_EQ(h.memory_fills(), 1u);
}

TEST(HierarchyModel, StraddlingAccessTouchesBothLines) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  h.access(0, 0x1000 + 62, 4);  // spans lines 0x1000 and 0x1040
  EXPECT_EQ(h.level_stats()[0].stats.accesses, 2u);
  EXPECT_EQ(h.memory_fills(), 2u);
}

TEST(HierarchyModel, ThreadsHavePrivateL1L2) {
  Hierarchy h(memsim::tiny_test_platform(), 2);
  h.access(0, 0x1000, 4);
  h.access(1, 0x1000, 4);  // same line, other thread: private miss ...
  auto levels = h.level_stats();
  EXPECT_EQ(levels[0].stats.misses, 2u);
  EXPECT_EQ(levels[1].stats.misses, 2u);
  // ... but the second thread hits in the shared LLC.
  EXPECT_EQ(levels[2].stats.accesses, 2u);
  EXPECT_EQ(levels[2].stats.misses, 1u);
  EXPECT_EQ(h.memory_fills(), 1u);
}

TEST(HierarchyModel, NamedCountersMatchLevelStats) {
  Hierarchy h(memsim::tiny_test_platform(), 2);
  std::mt19937 rng(3);
  for (int n = 0; n < 5000; ++n) {
    h.access(rng() % 2, (rng() % 4096) * 4, 4);
  }
  const auto levels = h.level_stats();
  EXPECT_EQ(h.counter("PAPI_L3_TCA"), levels[2].stats.accesses);
  EXPECT_EQ(h.counter("L2_DATA_READ_MISS_MEM_FILL"), levels[1].stats.misses);
  EXPECT_EQ(h.counter("MEM_FILLS"), h.memory_fills());
  EXPECT_EQ(h.counter("PAPI_L3_TCA"), levels[1].stats.misses)
      << "L3 accesses must equal L2 misses by construction";
}

TEST(HierarchyModel, UnknownCounterThrows) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  EXPECT_THROW((void)h.counter("PAPI_TOT_CYC"), std::out_of_range);
}

TEST(HierarchyModel, MicHasNoL3Counter) {
  Hierarchy h(memsim::mic_knc(), 1);
  EXPECT_THROW((void)h.counter("PAPI_L3_TCA"), std::out_of_range);
  h.access(0, 0x1000, 4);
  EXPECT_EQ(h.counter("L2_DATA_READ_MISS_MEM_FILL"), 1u);
  EXPECT_EQ(h.memory_fills(), 1u);
}

TEST(HierarchyModel, PlatformLookup) {
  EXPECT_EQ(memsim::platform_by_name("ivybridge").name, "ivybridge");
  EXPECT_EQ(memsim::platform_by_name("mic").name, "mic");
  EXPECT_EQ(memsim::platform_by_name("tiny").name, "tiny");
  EXPECT_THROW(memsim::platform_by_name("knl"), std::invalid_argument);
}

TEST(HierarchyModel, IvyBridgeGeometry) {
  const auto spec = memsim::ivybridge();
  ASSERT_EQ(spec.private_levels.size(), 2u);
  EXPECT_EQ(spec.private_levels[0].size_bytes, 64u * 1024);
  EXPECT_EQ(spec.private_levels[1].size_bytes, 256u * 1024);
  ASSERT_TRUE(spec.shared_llc.has_value());
  EXPECT_GE(spec.shared_llc->size_bytes, 30ull * 1024 * 1024);
  const auto mic = memsim::mic_knc();
  EXPECT_FALSE(mic.shared_llc.has_value());
  EXPECT_EQ(mic.private_levels[1].size_bytes, 512u * 1024);
}

TEST(HierarchyModel, ModeledCyclesFollowServiceLevel) {
  Hierarchy h(memsim::tiny_test_platform(), 2);
  const auto& spec = h.spec();
  const std::uint64_t l1 = spec.private_levels[0].hit_latency;
  const std::uint64_t l2 = spec.private_levels[1].hit_latency;
  const std::uint64_t l3 = spec.shared_llc->hit_latency;
  const std::uint64_t mem = spec.memory_latency;
  h.access(0, 0x1000, 4);  // cold: misses all levels
  EXPECT_EQ(h.modeled_cycles(0), l1 + l2 + l3 + mem);
  h.access(0, 0x1000, 4);  // L1 hit
  EXPECT_EQ(h.modeled_cycles(0), (l1 + l2 + l3 + mem) + l1);
  h.access(1, 0x1000, 4);  // other thread: private misses, shared LLC hit
  EXPECT_EQ(h.modeled_cycles(1), l1 + l2 + l3);
  EXPECT_EQ(h.modeled_cycles_max(), h.modeled_cycles(0));
  EXPECT_EQ(h.modeled_cycles_total(), h.modeled_cycles(0) + h.modeled_cycles(1));
  h.reset_stats();
  EXPECT_EQ(h.modeled_cycles_total(), 0u);
}

TEST(HierarchyModel, ScaledShrinksCapacitiesPreservingShape) {
  const auto spec = memsim::scaled(memsim::ivybridge(), 16);
  EXPECT_EQ(spec.private_levels[0].size_bytes, 4u * 1024);
  EXPECT_EQ(spec.private_levels[1].size_bytes, 16u * 1024);
  EXPECT_EQ(spec.shared_llc->size_bytes, 2ull * 1024 * 1024);
  EXPECT_EQ(spec.private_levels[0].line_bytes, 64u);
  EXPECT_EQ(spec.private_levels[0].associativity, 8u);
  // Still constructible (set counts remain powers of two).
  EXPECT_NO_THROW(Hierarchy(spec, 2));
}

TEST(HierarchyModel, ScaledClampsToOneSet) {
  // 64 KB L1 / 8-way / 64 B lines has 128 sets; dividing by 1024 would go
  // below one set, so it clamps to line*assoc = 512 bytes.
  const auto spec = memsim::scaled(memsim::ivybridge(), 1024);
  EXPECT_EQ(spec.private_levels[0].size_bytes, 512u);
  EXPECT_NO_THROW(Hierarchy(spec, 1));
}

TEST(HierarchyModel, ScaledRejectsNonPow2AndKeepsIdentity) {
  EXPECT_THROW(memsim::scaled(memsim::ivybridge(), 3), std::invalid_argument);
  EXPECT_THROW(memsim::scaled(memsim::ivybridge(), 0), std::invalid_argument);
  const auto same = memsim::scaled(memsim::ivybridge(), 1);
  EXPECT_EQ(same.name, "ivybridge");
  EXPECT_EQ(same.private_levels[1].size_bytes, 256u * 1024);
}

TEST(HierarchyModel, RejectsInvalidConstruction) {
  EXPECT_THROW(Hierarchy(memsim::tiny_test_platform(), 0), std::invalid_argument);
  PlatformSpec empty;
  empty.name = "empty";
  EXPECT_THROW(Hierarchy(empty, 1), std::invalid_argument);
  PlatformSpec mixed = memsim::tiny_test_platform();
  mixed.shared_llc->line_bytes = 128;
  EXPECT_THROW(Hierarchy(mixed, 1), std::invalid_argument);
}

TEST(HierarchyModel, ResetStatsKeepsWarmContents) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  h.access(0, 0x1000, 4);
  h.reset_stats();
  h.access(0, 0x1000, 4);
  EXPECT_EQ(h.level_stats()[0].stats.misses, 0u);
  EXPECT_EQ(h.memory_fills(), 0u);
  h.reset();
  h.access(0, 0x1000, 4);
  EXPECT_EQ(h.level_stats()[0].stats.misses, 1u);
}

TEST(HierarchyModel, DeterministicReplay) {
  auto run = [] {
    Hierarchy h(memsim::tiny_test_platform(), 4);
    std::mt19937 rng(99);
    for (int n = 0; n < 20000; ++n) {
      h.access(rng() % 4, (rng() % (1 << 16)), 4);
    }
    return std::make_pair(h.counter("PAPI_L3_TCA"), h.memory_fills());
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Prefetcher model
// ---------------------------------------------------------------------------

TEST(Prefetch, InstallDoesNotTouchDemandStats) {
  Cache c(CacheConfig{"t", 1024, 64, 2});
  c.install(7);
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_EQ(c.stats().prefetch_installs, 1u);
  EXPECT_TRUE(c.contains(7));
  c.install(7);  // already resident: no double install
  EXPECT_EQ(c.stats().prefetch_installs, 1u);
}

TEST(Prefetch, NextLineTurnsStreamMissesIntoHits) {
  auto spec = memsim::tiny_test_platform();
  auto count_l2_misses = [&](bool prefetch) {
    spec.prefetch_next_line = prefetch;
    Hierarchy h(spec, 1);
    // Unit-stride line stream: the prefetcher's best case.
    for (std::uint64_t line = 0; line < 256; ++line) {
      h.access(0, line * 64, 4);
    }
    return h.level_stats()[1].stats.misses;
  };
  const auto demand_only = count_l2_misses(false);
  const auto with_prefetch = count_l2_misses(true);
  EXPECT_EQ(demand_only, 256u);
  // Every other miss is absorbed: the L1 still misses but L2 holds the
  // prefetched next line.
  EXPECT_LE(with_prefetch, demand_only / 2 + 1);
}

TEST(Prefetch, UselessForLargeStrides) {
  auto spec = memsim::tiny_test_platform();
  auto fills = [&](bool prefetch) {
    spec.prefetch_next_line = prefetch;
    Hierarchy h(spec, 1);
    // 4 KiB strides: the against-the-grain pattern. Next-line prefetch
    // fetches lines that are never used.
    for (std::uint64_t n = 0; n < 256; ++n) {
      h.access(0, n * 4096, 4);
    }
    return h.memory_fills();
  };
  EXPECT_EQ(fills(true), fills(false));
}

// ---------------------------------------------------------------------------
// Integration with TracedView: the paper's locality claim in miniature
// ---------------------------------------------------------------------------

TEST(HierarchyIntegration, TracedGridSweepProducesExpectedColdMisses) {
  // Array-order x-sweep over 64 floats = 4 lines = 4 cold misses.
  core::Grid3D<float, core::ArrayOrderLayout> g(core::Extents3D{64, 1, 1});
  Hierarchy h(memsim::tiny_test_platform(), 1);
  auto sink = h.sink(0);
  const core::TracedView view(g, sink);
  for (std::uint32_t i = 0; i < 64; ++i) {
    (void)view.at(i, 0, 0);
  }
  EXPECT_EQ(h.level_stats()[0].stats.accesses, 64u);
  EXPECT_EQ(h.memory_fills(), 4u);
}

TEST(HierarchyIntegration, AgainstTheGrainSweepFavoursZOrder) {
  // The paper's core effect, miniaturized: sweep a 32^3 volume in zyx order
  // (z innermost — worst case for array order). The Z-order copy must
  // produce fewer fills from beyond the tiny L2 than the array-order copy.
  const core::Extents3D e = core::Extents3D::cube(32);
  core::Grid3D<float, core::ArrayOrderLayout> ga(e);
  core::Grid3D<float, core::GeneralizedMortonLayout> gz(e);

  auto sweep = [&](const auto& grid) {
    Hierarchy h(memsim::tiny_test_platform(), 1);
    auto sink = h.sink(0);
    const core::TracedView view(grid, sink);
    for (std::uint32_t i = 0; i < e.nx; ++i) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t k = 0; k < e.nz; ++k) {
          (void)view.at(i, j, k);
        }
      }
    }
    return h.counter("L2_DATA_READ_MISS_MEM_FILL");
  };

  const auto fills_array = sweep(ga);
  const auto fills_z = sweep(gz);
  // Every z-step under array order jumps nx*ny*4 = 4 KiB, so each access
  // misses the tiny L2 (32768 fills). Under Z-order consecutive z share a
  // line half the time: at most half the fills.
  EXPECT_LE(fills_z * 2, fills_array)
      << "z-order=" << fills_z << " array=" << fills_array;
}

// ---------------------------------------------------------------------------
// TLB model
// ---------------------------------------------------------------------------

TEST(Tlb, DisabledByDefaultInTinyPlatform) {
  Hierarchy h(memsim::tiny_test_platform(), 1);
  h.access(0, 0x1000, 4);
  EXPECT_EQ(h.tlb_stats().accesses, 0u);
  EXPECT_THROW((void)h.counter("DTLB_MISS"), std::out_of_range);
}

TEST(Tlb, PageLocalityIsCaptured) {
  auto spec = memsim::tiny_test_platform();
  spec.tlb_entries = 4;
  Hierarchy h(spec, 1);
  // 16 accesses within one page: 1 TLB miss.
  for (int a = 0; a < 16; ++a) {
    h.access(0, 0x10000 + 256 * static_cast<std::uint64_t>(a), 4);
  }
  EXPECT_EQ(h.counter("DTLB_MISS"), 1u);
  // 16 accesses striding pages: 16 misses once the 4-entry TLB overflows.
  Hierarchy h2(spec, 1);
  for (int a = 0; a < 16; ++a) {
    h2.access(0, 4096ull * static_cast<std::uint64_t>(a) * 2, 4);
  }
  EXPECT_EQ(h2.counter("DTLB_MISS"), 16u);
}

TEST(Tlb, ReachIsEntriesTimesPageSize) {
  auto spec = memsim::tiny_test_platform();
  spec.tlb_entries = 4;
  Hierarchy h(spec, 1);
  // Working set of exactly 4 pages: only cold misses across repeats.
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t page = 0; page < 4; ++page) {
      h.access(0, page * 4096, 4);
    }
  }
  EXPECT_EQ(h.counter("DTLB_MISS"), 4u);
  // 5 pages cycled with a 4-entry LRU TLB: every access misses.
  Hierarchy h2(spec, 1);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t page = 0; page < 5; ++page) {
      h2.access(0, page * 4096, 4);
    }
  }
  EXPECT_EQ(h2.counter("DTLB_MISS"), 15u);
}

TEST(Tlb, MissAddsPageWalkLatency) {
  auto spec = memsim::tiny_test_platform();
  spec.tlb_entries = 4;
  spec.tlb_miss_latency = 30;
  Hierarchy with_tlb(spec, 1);
  with_tlb.access(0, 0x5000, 4);
  Hierarchy without(memsim::tiny_test_platform(), 1);
  without.access(0, 0x5000, 4);
  EXPECT_EQ(with_tlb.modeled_cycles(0), without.modeled_cycles(0) + 30);
}

TEST(Tlb, EnabledOnPaperPlatformsAndScaled) {
  EXPECT_EQ(memsim::ivybridge().tlb_entries, 64u);
  EXPECT_EQ(memsim::mic_knc().tlb_entries, 64u);
  EXPECT_EQ(memsim::scaled(memsim::ivybridge(), 16).tlb_entries, 8u);
  EXPECT_EQ(memsim::scaled(memsim::ivybridge(), 64).tlb_entries, 8u);  // floor
  Hierarchy h(memsim::ivybridge(), 2);
  h.access(0, 0x1000, 4);
  EXPECT_EQ(h.counter("DTLB_MISS"), 1u);
}

TEST(Tlb, AgainstTheGrainSweepThrashesTlbOnlyUnderArrayOrder) {
  // 32^3 floats: a z-innermost sweep under array order touches a new 4 KB
  // page every step (plane = 4 KB); under Z-order consecutive steps stay
  // inside compact bricks.
  auto spec = memsim::tiny_test_platform();
  spec.tlb_entries = 8;
  const core::Extents3D e = core::Extents3D::cube(32);
  core::Grid3D<float, core::ArrayOrderLayout> ga(e);
  core::Grid3D<float, core::GeneralizedMortonLayout> gz(e);
  auto sweep = [&](const auto& grid) {
    Hierarchy h(spec, 1);
    auto sink = h.sink(0);
    const core::TracedView view(grid, sink);
    for (std::uint32_t i = 0; i < e.nx; ++i) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t k = 0; k < e.nz; ++k) {
          (void)view.at(i, j, k);
        }
      }
    }
    return h.counter("DTLB_MISS");
  };
  EXPECT_LT(sweep(gz) * 4, sweep(ga));
}
