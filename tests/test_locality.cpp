// Locality observatory: exact reuse-distance engine, SHARDS sampling, and
// the kernel-replay profiler (src/sfcvis/locality/).
//
// Contracts pinned here:
//  * ReuseStack implements LRU stack distance exactly — checked against
//    hand-computed oracles on sequential, constant-stride, two-pass,
//    tiled, and Morton-order walks, including streams long enough to
//    force timestamp compaction;
//  * the miss-ratio curve follows from those distances (an LRU cache of C
//    granules hits iff distance < C), is monotone nonincreasing, and
//    carries the cold misses at every capacity;
//  * SHARDS sampling at rate 1/1 reproduces the exact curve bit-for-bit,
//    is deterministic at every rate, and agrees with the exact curve
//    within a pinned tolerance on real kernel replays over all six
//    AnyVolume backends (array, tiled, z-order, hilbert, gmorton,
//    bricked);
//  * published profiles land in the run report's "locality" section and
//    pass tools/sfcreport.py validate --require locality.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/locality/profile.hpp"
#include "sfcvis/locality/reuse.hpp"

namespace {

using namespace sfcvis;
using core::Extents3D;
using locality::LocalityConfig;
using locality::LocalityProfiler;
using locality::ReuseStack;
using locality::SampledReuseStack;

constexpr std::uint64_t kBase = 1ull << 30;  // TracedView's synthetic origin

double miss_at(const trace::LocalityGranularity& g, std::uint64_t capacity_bytes) {
  for (const trace::LocalityMissPoint& p : g.mrc) {
    if (p.capacity_bytes == capacity_bytes) {
      return p.miss_ratio;
    }
  }
  ADD_FAILURE() << "capacity " << capacity_bytes << " not on the ladder";
  return -1.0;
}

std::uint64_t hist_at(const trace::LocalityGranularity& g, std::size_t bucket) {
  return bucket < g.reuse_log2.size() ? g.reuse_log2[bucket] : 0;
}

// ---------------------------------------------------------------------------
// ReuseStack: exact LRU stack distances.
// ---------------------------------------------------------------------------

TEST(ReuseStack, HandComputedDistances) {
  ReuseStack stack;
  EXPECT_EQ(stack.touch(10), ReuseStack::kCold);
  EXPECT_EQ(stack.touch(10), 0u);  // nothing else touched in between
  EXPECT_EQ(stack.touch(20), ReuseStack::kCold);
  EXPECT_EQ(stack.touch(10), 1u);  // one distinct granule (20) in between
  EXPECT_EQ(stack.touch(20), 1u);
  EXPECT_EQ(stack.touch(30), ReuseStack::kCold);
  EXPECT_EQ(stack.touch(10), 2u);  // 20 and 30 since 10's last access
  EXPECT_EQ(stack.distinct(), 3u);
}

TEST(ReuseStack, MultiPassSurvivesCompaction) {
  // 3000 granules x 4 passes burns through >= 12000 timestamps, forcing
  // several compactions of the initial 1024-slot Fenwick tree. Every
  // non-cold distance must still be exactly W-1.
  constexpr std::uint64_t kW = 3000;
  ReuseStack stack;
  for (std::uint64_t g = 0; g < kW; ++g) {
    EXPECT_EQ(stack.touch(g), ReuseStack::kCold);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t g = 0; g < kW; ++g) {
      ASSERT_EQ(stack.touch(g), kW - 1) << "pass " << pass << " granule " << g;
    }
  }
  EXPECT_EQ(stack.distinct(), kW);
}

TEST(ReuseStack, SampledRateOneMatchesExact) {
  // rate_log2 = 0 samples every granule with weight 1: the sampled stack
  // must be the exact stack.
  ReuseStack exact;
  SampledReuseStack sampled(0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t granule = (i * 37) % 501;  // cyclic, many reuses
    const std::uint64_t want = exact.touch(granule);
    const SampledReuseStack::Sample got = sampled.touch(granule);
    ASSERT_TRUE(got.sampled);
    ASSERT_EQ(got.cold, want == ReuseStack::kCold);
    if (!got.cold) {
      ASSERT_EQ(got.distance, want);
    }
  }
  EXPECT_EQ(sampled.weight(), 1u);
  EXPECT_EQ(sampled.sampled_distinct(), exact.distinct());
}

// ---------------------------------------------------------------------------
// LocalityProfiler: analytic walk oracles.
// ---------------------------------------------------------------------------

TEST(LocalityOracle, SequentialWalk) {
  // 4096 sequential floats: each 64B line is touched 16x back-to-back, so
  // every non-cold distance is 0, every fetched byte is used, and the MRC
  // is flat at the cold ratio for any capacity.
  LocalityProfiler profiler;
  constexpr std::uint64_t kN = 4096;
  for (std::uint64_t i = 0; i < kN; ++i) {
    profiler.access(kBase + i * 4, 4);
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "sequential");
  EXPECT_EQ(p.accesses, kN);
  EXPECT_EQ(p.bytes, kN * 4);
  EXPECT_EQ(p.line.distinct, kN * 4 / 64);  // 256 lines
  EXPECT_EQ(p.line.cold, p.line.distinct);
  EXPECT_EQ(hist_at(p.line, 0), kN - p.line.distinct);  // all reuses at distance 0
  EXPECT_DOUBLE_EQ(p.line.utilization, 1.0);
  const double cold_ratio = static_cast<double>(p.line.distinct) / static_cast<double>(kN);
  for (const trace::LocalityMissPoint& point : p.line.mrc) {
    EXPECT_DOUBLE_EQ(point.miss_ratio, cold_ratio);
  }
  EXPECT_EQ(p.page.distinct, kN * 4 / 4096);  // 4 pages
  EXPECT_EQ(p.page.utilization, -1.0);        // untracked at page granularity
}

TEST(LocalityOracle, ConstantStrideOnePerLine) {
  // Stride-64B walk, one 4-byte read per line, never revisited: every
  // access is a cold miss at every capacity and only 4 of each fetched
  // 64 bytes are used.
  LocalityProfiler profiler;
  constexpr std::uint64_t kN = 512;
  for (std::uint64_t i = 0; i < kN; ++i) {
    profiler.access(kBase + i * 64, 4);
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "stride64");
  EXPECT_EQ(p.line.distinct, kN);
  EXPECT_EQ(p.line.cold, kN);
  for (const trace::LocalityMissPoint& point : p.line.mrc) {
    EXPECT_DOUBLE_EQ(point.miss_ratio, 1.0);
  }
  EXPECT_DOUBLE_EQ(p.line.utilization, 4.0 / 64.0);
}

TEST(LocalityOracle, TwoPassWorkingSetStepsTheCurve) {
  // Two passes over 100 lines: pass 2 re-touches each line at distance 99
  // (the 99 other lines in between). A 4KB model holds 64 lines -> pass-2
  // accesses all miss (ratio 1.0); 8KB holds 128 -> they all hit and only
  // the cold misses remain (ratio 0.5).
  LocalityProfiler profiler;
  constexpr std::uint64_t kW = 100;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < kW; ++i) {
      profiler.access(kBase + i * 64, 4);
    }
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "two-pass");
  EXPECT_EQ(p.accesses, 2 * kW);
  EXPECT_EQ(p.line.distinct, kW);
  EXPECT_EQ(p.line.cold, kW);
  EXPECT_EQ(hist_at(p.line, 7), kW);  // distance 99 lands in bucket [64,128)
  EXPECT_DOUBLE_EQ(miss_at(p.line, 4 << 10), 1.0);
  EXPECT_DOUBLE_EQ(miss_at(p.line, 8 << 10), 0.5);
  EXPECT_DOUBLE_EQ(miss_at(p.line, 64 << 20), 0.5);
}

TEST(LocalityOracle, TiledWalkSharesLinesAcrossTilePairs) {
  // 64x64 row-major floats walked in 8x8 tiles. A 64B line spans two
  // horizontally adjacent tiles, so each line sees: 8 touches in the left
  // tile (1 cold + 7 at distance 0), then 8 in the right tile (1 at
  // distance 7 — the 7 other lines of the left tile — + 7 at distance 0).
  LocalityProfiler profiler;
  constexpr std::uint64_t kEdge = 64;
  for (std::uint64_t ty = 0; ty < kEdge / 8; ++ty) {
    for (std::uint64_t tx = 0; tx < kEdge / 8; ++tx) {
      for (std::uint64_t y = 0; y < 8; ++y) {
        for (std::uint64_t x = 0; x < 8; ++x) {
          const std::uint64_t index = (ty * 8 + y) * kEdge + tx * 8 + x;
          profiler.access(kBase + index * 4, 4);
        }
      }
    }
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "tiled");
  constexpr std::uint64_t kLines = kEdge * kEdge * 4 / 64;  // 256
  EXPECT_EQ(p.accesses, kEdge * kEdge);
  EXPECT_EQ(p.line.distinct, kLines);
  EXPECT_EQ(p.line.cold, kLines);
  EXPECT_EQ(hist_at(p.line, 0), kLines * 14);  // 14 distance-0 reuses per line
  EXPECT_EQ(hist_at(p.line, 3), kLines);       // distance 7 -> bucket [4,8)
  EXPECT_DOUBLE_EQ(p.line.utilization, 1.0);
  // Distance 7 hits even the smallest modeled cache: flat at cold ratio.
  const double cold_ratio =
      static_cast<double>(kLines) / static_cast<double>(p.accesses);
  EXPECT_DOUBLE_EQ(miss_at(p.line, 4 << 10), cold_ratio);
}

TEST(LocalityOracle, MortonWalkOverRowMajorStorage) {
  // An x-y-z loop over a Z-order-stored 32^3 volume touches address
  // morton_encode(i,j,k)*4: all cells exactly once, so the working set
  // and utilization match a sequential walk, but the access *order*
  // scatters — a 64B line spans two z-slabs (z0 is a low Morton bit), and
  // between a line's k=2c and k=2c+1 touches the scan walks the slab's
  // ~128 other lines, past the 64 a 4KB model holds. Any capacity >= the
  // 128KB working set restores the flat cold ratio.
  LocalityProfiler profiler;
  constexpr std::uint32_t kEdge = 32;
  for (std::uint32_t k = 0; k < kEdge; ++k) {
    for (std::uint32_t j = 0; j < kEdge; ++j) {
      for (std::uint32_t i = 0; i < kEdge; ++i) {
        profiler.access(kBase + core::morton_encode_3d(i, j, k) * 4, 4);
      }
    }
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "morton-walk");
  constexpr std::uint64_t kN = kEdge * kEdge * kEdge;
  EXPECT_EQ(p.accesses, kN);
  EXPECT_EQ(p.line.distinct, kN * 4 / 64);  // 256 lines, every byte touched
  EXPECT_EQ(p.line.cold, p.line.distinct);
  EXPECT_DOUBLE_EQ(p.line.utilization, 1.0);
  const double cold_ratio =
      static_cast<double>(p.line.distinct) / static_cast<double>(kN);
  EXPECT_GT(miss_at(p.line, 4 << 10), cold_ratio);  // scatter penalty is visible
  EXPECT_DOUBLE_EQ(miss_at(p.line, 256 << 10), cold_ratio);
  EXPECT_DOUBLE_EQ(miss_at(p.line, 64 << 20), cold_ratio);
  // Monotone nonincreasing along the whole ladder.
  for (std::size_t i = 1; i < p.line.mrc.size(); ++i) {
    EXPECT_LE(p.line.mrc[i].miss_ratio, p.line.mrc[i - 1].miss_ratio + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Profiler plumbing: sinks and configuration checks.
// ---------------------------------------------------------------------------

TEST(LocalityProfiler, SinkProviderFunnelsIntoOneStream) {
  LocalityConfig config;
  config.threads = 3;
  LocalityProfiler profiler(config);
  EXPECT_EQ(profiler.num_threads(), 3u);
  for (unsigned tid = 0; tid < 3; ++tid) {
    auto sink = profiler.sink(tid);
    sink.access(kBase + tid * 64, 4);
  }
  const trace::LocalityProfile p = profiler.profile("oracle", "sinks");
  EXPECT_EQ(p.accesses, 3u);
  EXPECT_EQ(p.line.distinct, 3u);
}

TEST(LocalityProfiler, RejectsBadConfigs) {
  LocalityConfig bad_line;
  bad_line.line_bytes = 48;  // not a power of two
  EXPECT_THROW((void)LocalityProfiler(bad_line), std::invalid_argument);
  LocalityConfig bad_page;
  bad_page.page_bytes = 32;  // smaller than the line
  EXPECT_THROW((void)LocalityProfiler(bad_page), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel replays over every backend: exact vs SHARDS agreement.
// ---------------------------------------------------------------------------

locality::WorkloadConfig replay_workload() {
  locality::WorkloadConfig workload;
  workload.kernel = "bilateral";
  workload.threads = 2;
  workload.trace_items = 32;
  return workload;
}

trace::LocalityProfile replay_profile(const core::AnyVolume& volume,
                                      const std::string& label,
                                      std::uint32_t sample_rate_log2) {
  LocalityConfig config;
  config.sample_rate_log2 = sample_rate_log2;
  return locality::profile_workload(volume, label, replay_workload(), config);
}

double max_mrc_gap(const trace::LocalityProfile& p) {
  double worst = 0.0;
  for (const trace::LocalityMissPoint& exact : p.line.mrc) {
    for (const trace::LocalityMissPoint& sampled : p.sampled.mrc) {
      if (sampled.capacity_bytes == exact.capacity_bytes) {
        worst = std::max(worst, std::abs(exact.miss_ratio - sampled.miss_ratio));
      }
    }
  }
  return worst;
}

void expect_shards_agreement(const core::AnyVolume& volume, const std::string& label) {
  // Rate 1/1 must reproduce the exact curve bit-for-bit.
  const trace::LocalityProfile full = replay_profile(volume, label, 0);
  ASSERT_TRUE(full.sampled_available) << label;
  EXPECT_EQ(full.sampled.distinct, full.line.distinct) << label;
  EXPECT_DOUBLE_EQ(max_mrc_gap(full), 0.0) << label;

  // Rate 1/4 on the same replay: the pinned agreement tolerance the
  // acceptance criteria gate. ~1/4 of a few hundred lines is plenty of
  // samples; 0.08 holds with slack on every backend (worst observed ~0.03).
  const trace::LocalityProfile sampled = replay_profile(volume, label, 2);
  EXPECT_LE(max_mrc_gap(sampled), 0.08) << label;

  // Determinism: SHARDS is hash-filtered, not random — bit-identical reruns.
  const trace::LocalityProfile again = replay_profile(volume, label, 2);
  ASSERT_EQ(again.sampled.mrc.size(), sampled.sampled.mrc.size());
  for (std::size_t i = 0; i < sampled.sampled.mrc.size(); ++i) {
    EXPECT_DOUBLE_EQ(again.sampled.mrc[i].miss_ratio,
                     sampled.sampled.mrc[i].miss_ratio)
        << label;
  }
  EXPECT_EQ(again.sampled.distinct, sampled.sampled.distinct) << label;
}

TEST(LocalityAgreement, InCoreBackends) {
  const Extents3D extents = Extents3D::cube(32);
  for (const char* spec_string :
       {"array-order", "tiled", "z-order", "hilbert", "gmorton"}) {
    SCOPED_TRACE(spec_string);
    const core::LayoutSpec spec = core::parse_layout_spec(spec_string);
    core::VolumeOpts vopts;
    vopts.interleave = spec.interleave;
    core::AnyVolume volume = core::make_volume(spec.kind, extents, vopts);
    locality::fill_workload_volume(volume, "bilateral");
    expect_shards_agreement(volume, spec_string);
  }
}

TEST(LocalityAgreement, BrickedBackend) {
  const Extents3D extents = Extents3D::cube(32);
  core::AnyVolume source = core::make_volume(core::LayoutKind::kArray, extents);
  locality::fill_workload_volume(source, "bilateral");

  const auto path = std::filesystem::temp_directory_path() /
                    ("sfcvis_test_locality_" + std::to_string(::getpid()) + ".sfcbrk");
  core::BrickPackOptions popts;
  popts.brick_edge = 8;
  (void)core::pack_brick_file(path.string(), source, popts);
  {
    core::AnyVolume volume(core::BrickedVolume::open(path.string()));
    expect_shards_agreement(volume, "bricked");
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(LocalityAgreement, RaycastReplayAgreesToo) {
  const Extents3D extents = Extents3D::cube(32);
  core::AnyVolume volume = core::make_volume(core::LayoutKind::kZOrder, extents);
  locality::fill_workload_volume(volume, "raycast");
  locality::WorkloadConfig workload;
  workload.kernel = "raycast";
  workload.threads = 2;
  workload.trace_items = 16;
  workload.trace_image = 16;
  LocalityConfig config;
  config.sample_rate_log2 = 0;
  const trace::LocalityProfile full =
      locality::profile_workload(volume, "z-order", workload, config);
  ASSERT_TRUE(full.sampled_available);
  EXPECT_DOUBLE_EQ(max_mrc_gap(full), 0.0);
  EXPECT_GT(full.accesses, 0u);
}

// ---------------------------------------------------------------------------
// Run-report integration.
// ---------------------------------------------------------------------------

TEST(LocalityReport, PublishedProfilesLandInRunReport) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("sfcvis_test_locality_report_" + std::to_string(::getpid()) +
                     ".json");
  {
    exec::TraceSession session("", path.string(), false);
    LocalityProfiler profiler;
    for (std::uint64_t i = 0; i < 256; ++i) {
      profiler.access(kBase + i * 4, 4);
    }
    EXPECT_TRUE(locality::publish_profile(profiler.profile("test", "array-order")));
    session.finish();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (const char* needle :
       {"\"locality\":", "\"available\":true", "\"kernel\":\"test\"",
        "\"layout\":\"array-order\"", "\"mrc\":[", "\"reuse_log2\":["}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(LocalityReport, PublishWithoutSessionReportsFalse) {
  LocalityProfiler profiler;
  profiler.access(kBase, 4);
  EXPECT_FALSE(locality::publish_profile(profiler.profile("test", "nowhere")));
}

}  // namespace
