// Job-system lifecycle and parity suite (exec::KernelJob / JobGraph).
//
// Pins the contracts of kernel jobs:
//  * a builder's job run on the graph is bit-identical to the synchronous
//    driver call (every kernel family, every volume backend incl.
//    out-of-core);
//  * cancellation (pre-start and mid-run), zero-tile jobs;
//  * a macrocell render without a caller grid builds one for the volume
//    as it is when the job runs, so an in-place rewrite renders like dense;
//  * traced replay (JobGraph::replay) runs the native job itself: the
//    serial macrocell build a replay context prepares matches the
//    context-parallel one, every kernel's replay output matches its native
//    run on every backend with deterministic counters and capped records,
//    and the gather paths refuse traced views.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gaussian.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/filters/median.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/verify/diff.hpp"

namespace {

using namespace sfcvis;
using core::AnyVolume;
using core::ArrayVolume;
using core::Extents3D;
using core::LayoutKind;
using exec::ExecutionContext;
using exec::JobDispatch;
using exec::JobState;
using exec::KernelJob;

float field(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return 0.5f + 0.2f * static_cast<float>((i + 2 * j + 3 * k) % 7) / 7.0f +
         0.01f * static_cast<float>(i) - 0.005f * static_cast<float>(j) +
         0.002f * static_cast<float>(k);
}

ExecutionContext make_ctx(unsigned threads) { return ExecutionContext(threads); }

KernelJob noop_job(JobDispatch dispatch, std::size_t tiles) {
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = dispatch;
  job.tiles = tiles;
  job.tile = [](void*, std::size_t, unsigned) {};
  return job;
}

// -----------------------------------------------------------------------------
// Lifecycle edges

TEST(JobGraph, TilesWithoutBodyRejectedAtSubmit) {
  auto ctx = make_ctx(2);
  KernelJob job;
  job.kernel = "test.noop";
  job.tiles = 4;  // no tile body
  EXPECT_THROW(ctx.jobs().run(std::move(job)), std::invalid_argument);
}

TEST(JobGraph, ZeroTileJobCompletesAsDone) {
  auto ctx = make_ctx(2);
  const auto id = ctx.jobs().run(noop_job(JobDispatch::kStatic, 0));
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(record->tiles, 0u);
  EXPECT_EQ(record->tiles_run, 0u);
}

TEST(JobGraph, ZeroTileRegionNeverInvokesTheBody) {
  // Zero-extent volumes are rejected by Extents3D itself, so the job-level
  // shape of an empty region is a decomposer that produced zero tiles: the
  // job must run as a recorded no-op without touching its tile body or
  // per-worker state factory.
  auto ctx = make_ctx(2);
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kStatic;
  job.tiles = 0;
  int state_makes = 0;
  int runs = 0;
  job.make_state = [&](unsigned) -> std::shared_ptr<void> {
    ++state_makes;
    return nullptr;
  };
  job.tile = [&](void*, std::size_t, unsigned) { ++runs; };
  const auto id = ctx.jobs().run(std::move(job));
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(record->tiles_run, 0u);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(state_makes, 0);
}

TEST(JobGraph, CancelBeforeStartRunsNothing) {
  auto ctx = make_ctx(2);
  int runs = 0;
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kStatic;
  job.tiles = 8;
  job.tile = [&](void*, std::size_t, unsigned) { ++runs; };
  job.cancel.request_cancel();
  const auto id = ctx.jobs().run(std::move(job));
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->tiles_run, 0u);
  EXPECT_EQ(runs, 0);
}

TEST(JobGraph, CancelMidRunStopsBetweenTiles) {
  auto ctx = make_ctx(1);
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kStatic;
  job.tiles = 8;
  const auto cancel = job.cancel;
  int runs = 0;
  job.tile = [&](void*, std::size_t t, unsigned) {
    ++runs;
    if (t == 2) {
      cancel.request_cancel();
    }
  };
  const auto id = ctx.jobs().run(std::move(job));
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->tiles_run, 3u);  // tiles 0..2 ran; the cancel is sticky
  EXPECT_EQ(runs, 3);
}

TEST(JobGraph, ReplayNeedsReplayContext) {
  auto ctx = make_ctx(2);
  EXPECT_THROW((void)ctx.jobs().replay(noop_job(JobDispatch::kStatic, 1)), std::logic_error);
  EXPECT_FALSE(ctx.has_pool());
}

// -----------------------------------------------------------------------------
// Built jobs vs driver calls: bit-identity, all volume backends

TEST(JobParity, QueuedJobsBitIdenticalToDriverCallsAllLayouts) {
  const Extents3D e = Extents3D::cube(12);
  filters::BilateralParams params;
  params.radius = 1;
  for (const LayoutKind kind : core::kAllLayoutKinds) {
    AnyVolume src = core::make_volume(kind, e);
    src.fill_from(field);
    auto ctx_direct = make_ctx(3);
    auto ctx_built = make_ctx(3);
    // Direct: the synchronous driver wrappers.
    ArrayVolume direct_grad(e), direct_med(e), direct_gauss(e), direct_bilat(e),
        direct_sweep(e);
    filters::gradient_magnitude(src, direct_grad, ctx_direct);
    filters::median_filter(src, direct_med, 1, ctx_direct);
    filters::gaussian_convolve(src, direct_gauss, 1, 1.0f, ctx_direct);
    filters::bilateral_parallel(src, direct_bilat, params, ctx_direct);
    filters::bilateral_zsweep(src, direct_sweep, params, ctx_direct);
    // Built: each builder's job run back-to-back on one graph.
    ArrayVolume q_grad(e), q_med(e), q_gauss(e), q_bilat(e), q_sweep(e);
    auto& graph = ctx_built.jobs();
    graph.run(filters::gradient_job(src, q_grad));
    graph.run(filters::median_job(src, q_med, 1));
    graph.run(filters::gaussian_job(src, q_gauss, 1, 1.0f));
    graph.run(filters::bilateral_job(src, q_bilat, params));
    graph.run(filters::bilateral_zsweep_job(src, q_sweep, params, ctx_built));
    const std::string tag = std::string(core::to_string(kind));
    const std::vector<std::tuple<const ArrayVolume*, const ArrayVolume*, const char*>>
        pairs = {{&direct_grad, &q_grad, "gradient"},
                 {&direct_med, &q_med, "median"},
                 {&direct_gauss, &q_gauss, "gaussian"},
                 {&direct_bilat, &q_bilat, "bilateral"},
                 {&direct_sweep, &q_sweep, "bilateral.zsweep"}};
    for (const auto& [expected, actual, name] : pairs) {
      const auto report =
          verify::compare_grids(*expected, *actual, verify::Tolerance::bit_identical(),
                                name + (" [" + tag + "]"));
      EXPECT_TRUE(report.ok) << report.to_string();
    }
    const auto records = graph.records();
    ASSERT_EQ(records.size(), 5u) << tag;
    for (const auto& r : records) {
      EXPECT_EQ(r.state, JobState::kDone) << tag << " " << r.kernel;
      EXPECT_EQ(r.tiles_run, r.tiles) << tag << " " << r.kernel;
    }
  }
}

TEST(JobParity, QueuedRaycastBitIdenticalToDriverCall) {
  const Extents3D e = Extents3D::cube(16);
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, e);
  vol.fill_from(field);
  const render::Camera cam({24, 20, 28}, {8, 8, 8}, {0, 1, 0}, 40.0f,
                           render::Projection::kPerspective);
  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config;
  config.image_width = 48;
  config.image_height = 48;
  config.tile_size = 16;
  for (const bool macrocells : {false, true}) {
    config.use_macrocells = macrocells;
    auto ctx_direct = make_ctx(3);
    auto ctx_built = make_ctx(3);
    const render::Image direct =
        render::raycast_parallel(vol, cam, tf, config, ctx_direct);
    render::Image built(config.image_width, config.image_height);
    ctx_built.jobs().run(render::raycast_job(vol, cam, tf, config, built));
    const auto report = verify::compare_images(
        direct, built, verify::Tolerance::bit_identical(),
        macrocells ? "raycast job [macrocell]" : "raycast job [dense]");
    EXPECT_TRUE(report.ok) << report.to_string();
  }
}

TEST(JobParity, OutOfCoreBrickedBackendMatchesInMemory) {
  const Extents3D e{16, 12, 8};
  AnyVolume packed_src = core::make_volume(LayoutKind::kZOrder, e);
  packed_src.fill_from(field);
  const auto path = (std::filesystem::temp_directory_path() / "sfcvis_jobs_bricked.sfcbrk")
                        .string();
  core::BrickPackOptions popts;
  popts.brick_edge = 8;
  (void)core::pack_brick_file(path, packed_src, popts);
  auto ctx = make_ctx(2);
  const AnyVolume bricked = ctx.open_bricked(path, 0);
  ArrayVolume from_bricked(e);
  filters::gradient_magnitude(bricked, from_bricked, ctx);
  ArrayVolume reference(e);
  filters::gradient_magnitude(packed_src, reference, ctx);
  const auto report =
      verify::compare_grids(reference, from_bricked, verify::Tolerance::bit_identical(),
                            "gradient [bricked vs in-memory]");
  EXPECT_TRUE(report.ok) << report.to_string();
  std::filesystem::remove(path);
}

// -----------------------------------------------------------------------------
// A render without a caller grid builds its own in job.prepare

TEST(RaycastJob, InPlaceRewriteRendersLikeDense) {
  // All zeros: flame() is transparent there, so every macrocell skips.
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, Extents3D::cube(16));
  const render::Camera cam({24, 20, 28}, {8, 8, 8}, {0, 1, 0}, 40.0f,
                           render::Projection::kPerspective);
  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config;
  config.image_width = 32;
  config.image_height = 32;
  auto ctx = make_ctx(2);
  const auto render_on_ctx = [&](bool macrocells) {
    config.use_macrocells = macrocells;
    render::Image image(config.image_width, config.image_height);
    ctx.jobs().run(render::raycast_job(vol, cam, tf, config, image));
    return image;
  };
  (void)render_on_ctx(true);
  // Rewritten in place, the volume is visible everywhere; the next job on
  // the same context must skip by the new values, not the old ones.
  vol.fill_from([](std::uint32_t, std::uint32_t, std::uint32_t) { return 0.8f; });
  const render::Image skipped = render_on_ctx(true);
  const render::Image dense = render_on_ctx(false);
  ASSERT_GT(dense.at(16, 16).a, 0.0f);
  const auto report = verify::compare_images(dense, skipped, verify::Tolerance::bit_identical(),
                                             "rewritten volume [macrocells vs dense]");
  EXPECT_TRUE(report.ok) << report.to_string();
}

// -----------------------------------------------------------------------------
// Traced replay: the native job, replayed through JobGraph::replay

TEST(TracedDrift, SerialMacrocellBuildMatchesContextParallelBuild) {
  // A replay context builds the macrocell grid serially in the raycast
  // job's prepare stage; a native context builds it in parallel there.
  // Both must produce identical grids or traced and native skipping
  // diverge.
  const Extents3D e{20, 13, 9};
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, e);
  vol.fill_from(field);
  auto ctx = make_ctx(3);
  const auto serial = render::MacrocellGrid::build(vol, 8);
  const auto parallel = render::MacrocellGrid::build(vol, 8, &ctx);
  ASSERT_EQ(serial.cell_extents().size(), parallel.cell_extents().size());
  const auto ce = serial.cell_extents();
  for (std::uint32_t ck = 0; ck < ce.nz; ++ck) {
    for (std::uint32_t cj = 0; cj < ce.ny; ++cj) {
      for (std::uint32_t ci = 0; ci < ce.nx; ++ci) {
        const auto a = serial.range(ci, cj, ck);
        const auto b = parallel.range(ci, cj, ck);
        ASSERT_EQ(a.min, b.min) << ci << "," << cj << "," << ck;
        ASSERT_EQ(a.max, b.max) << ci << "," << cj << "," << ck;
      }
    }
  }
}

/// Counters and record of one traced replay of build(ctx, views, out) on a
/// fresh replay context of three logical workers.
struct ReplayRun {
  std::uint64_t accesses = 0;
  std::uint64_t fills = 0;
  std::uint64_t cycles = 0;
  exec::JobRecord record;
  bool pool_created = false;
};

template <class Build, class Out>
ReplayRun replay_once(const Build& build, Out& out, std::size_t max_items = SIZE_MAX) {
  memsim::Hierarchy h(memsim::tiny_test_platform(), 3);
  ExecutionContext replay_ctx = exec::make_replay_context(h.num_threads());
  const exec::JobId id =
      replay_ctx.jobs().replay(build(replay_ctx, core::traced_views(h), out), max_items);
  ReplayRun run;
  run.accesses = h.total_accesses();
  run.fills = h.memory_fills();
  run.cycles = h.modeled_cycles_max();
  run.record = *replay_ctx.jobs().find_record(id);
  run.pool_created = replay_ctx.has_pool();
  return run;
}

bool identical(const ArrayVolume& a, const ArrayVolume& b) {
  return verify::compare_grids(a, b, verify::Tolerance::bit_identical(), "replay").ok;
}

bool identical(const render::Image& a, const render::Image& b) {
  return verify::compare_images(a, b, verify::Tolerance::bit_identical(), "replay").ok;
}

/// The replay contract of one job builder: the native run and a replay
/// write the same output bit for bit, two replays give the same counters,
/// a capped replay records exactly its cap as done (what
/// `sfcreport.py validate` requires of a jobs entry), and no replay
/// creates a worker pool.
template <class Build, class MakeOut>
void expect_replay_contract(const std::string& what, const Build& build,
                            const MakeOut& make_out) {
  auto ctx = make_ctx(3);
  auto native = make_out();
  exec::run_job(ctx, build(ctx, core::ReadViews{}, native));
  auto traced = make_out();
  auto again = make_out();
  const ReplayRun first = replay_once(build, traced);
  const ReplayRun second = replay_once(build, again);
  EXPECT_TRUE(identical(native, traced)) << what;
  EXPECT_GT(first.accesses, 0u) << what;
  EXPECT_EQ(std::tie(first.accesses, first.fills, first.cycles),
            std::tie(second.accesses, second.fills, second.cycles))
      << what;
  EXPECT_FALSE(first.pool_created) << what;
  EXPECT_EQ(first.record.state, JobState::kDone) << what;
  EXPECT_EQ(first.record.tiles_run, first.record.tiles) << what;

  constexpr std::size_t kCap = 4;
  auto capped_out = make_out();
  const ReplayRun capped = replay_once(build, capped_out, kCap);
  EXPECT_EQ(capped.record.state, JobState::kDone) << what;
  EXPECT_EQ(capped.record.tiles, kCap) << what;
  EXPECT_EQ(capped.record.tiles_run, kCap) << what;
  EXPECT_LT(capped.accesses, first.accesses) << what;
  EXPECT_FALSE(capped.pool_created) << what;
}

TEST(TracedDrift, TracedReplayMatchesNativeOutputs) {
  // Every kernel's counter run is its native job replayed with traced
  // views, on every in-memory layout and the out-of-core bricked backend.
  const Extents3D e{12, 10, 9};
  std::vector<std::pair<std::string, AnyVolume>> volumes;
  for (const LayoutKind kind : core::kAllLayoutKinds) {
    AnyVolume volume = core::make_volume(kind, e);
    volume.fill_from(field);
    volumes.emplace_back(std::string(core::to_string(kind)), std::move(volume));
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "sfcvis_jobs_replay.sfcbrk").string();
  core::BrickPackOptions popts;
  popts.brick_edge = 8;
  (void)core::pack_brick_file(path, volumes.front().second, popts);
  auto open_ctx = make_ctx(1);
  volumes.emplace_back("bricked", open_ctx.open_bricked(path, 0));

  filters::BilateralParams params;
  params.radius = 1;
  render::RenderConfig config;
  config.image_width = 24;
  config.image_height = 24;
  config.tile_size = 8;
  const render::Camera cam({20, 16, 22}, {6, 5, 4.5f}, {0, 1, 0}, 40.0f,
                           render::Projection::kPerspective);
  const auto tf = render::TransferFunction::flame();
  const auto volume_out = [&] { return ArrayVolume(e); };
  const auto image_out = [&] { return render::Image(config.image_width, config.image_height); };
  for (const auto& entry : volumes) {
    const std::string& name = entry.first;
    const AnyVolume& src = entry.second;
    expect_replay_contract(
        name + " bilateral",
        [&](ExecutionContext&, auto views, ArrayVolume& out) {
          return filters::bilateral_job(src, out, params, views);
        },
        volume_out);
    expect_replay_contract(
        name + " bilateral.zsweep",
        [&](ExecutionContext& ctx, auto views, ArrayVolume& out) {
          return filters::bilateral_zsweep_job(src, out, params, ctx, views);
        },
        volume_out);
    expect_replay_contract(
        name + " gaussian",
        [&](ExecutionContext&, auto views, ArrayVolume& out) {
          return filters::gaussian_job(src, out, 1, 1.0f, views);
        },
        volume_out);
    expect_replay_contract(
        name + " median",
        [&](ExecutionContext&, auto views, ArrayVolume& out) {
          return filters::median_job(src, out, 1, views);
        },
        volume_out);
    expect_replay_contract(
        name + " gradient",
        [&](ExecutionContext&, auto views, ArrayVolume& out) {
          return filters::gradient_job(src, out, views);
        },
        volume_out);
    for (const bool macrocells : {false, true}) {
      render::RenderConfig rc = config;
      rc.use_macrocells = macrocells;
      expect_replay_contract(
          name + (macrocells ? " raycast [macrocell]" : " raycast [dense]"),
          [&](ExecutionContext&, auto views, render::Image& out) {
            return render::raycast_job(src, cam, tf, rc, out, nullptr, false, views);
          },
          image_out);
    }
  }
  std::filesystem::remove(path);
}

TEST(TracedDrift, GatherPathsRejectTracedViews) {
  // The bilateral gather fast path reads storage through core::gather_row,
  // past any view: a traced factory would silently drop those reads, so the
  // builder refuses it. The native factory keeps the gather path.
  const Extents3D e = Extents3D::cube(8);
  AnyVolume src = core::make_volume(LayoutKind::kZOrder, e);
  src.fill_from(field);
  ArrayVolume dst(e);
  memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
  filters::BilateralParams params;
  params.use_gather = true;
  EXPECT_THROW((void)filters::bilateral_job(src, dst, params, core::traced_views(h)),
               std::invalid_argument);
  EXPECT_NO_THROW((void)filters::bilateral_job(src, dst, params));
}

}  // namespace
