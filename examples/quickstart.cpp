// Quickstart: the sfcvis public API in ~80 lines.
//
//   1. build a Z-order volume through the runtime facade and fill it,
//   2. use the paper-style runtime Indexer (getIndex) directly,
//   3. run the bilateral filter and the raycaster on it,
//   4. collect memory-system counters with the cache simulator.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "sfcvis/core/indexer.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/render/raycast.hpp"

int main() {
  using namespace sfcvis;

  // -- 1. A 64^3 volume stored along the Z-order space-filling curve. ------
  // make_volume is the one place the layout is chosen; everything below is
  // layout-agnostic and dispatches at runtime through core::AnyVolume.
  const core::Extents3D extents = core::Extents3D::cube(64);
  core::AnyVolume volume = core::make_volume(core::LayoutKind::kZOrder, extents);
  volume.visit([](auto& grid) { data::fill_combustion(grid); });
  std::printf("volume: %ux%ux%u, layout=%s, capacity=%zu elements\n", extents.nx,
              extents.ny, extents.nz, volume.layout_name(), volume.capacity());

  // -- 2. The paper's runtime indexing facade (Sec. III-C). ----------------
  // Both orders cost three table loads + two adds; only the layout differs.
  const core::Indexer a_idx(core::Order::kArray, extents);
  const core::Indexer z_idx(core::Order::kZ, extents);
  std::printf("getIndex(3,5,7): array-order=%zu  z-order=%zu\n",
              a_idx.getIndex(3, 5, 7), z_idx.getIndex(3, 5, 7));

  // -- 3a. Bilateral filter (structured access). ---------------------------
  // The ExecutionContext owns the thread count, the pthread worker pool and
  // scheduling for every kernel.
  core::ArrayVolume denoised(extents);
  exec::ExecutionContext ctx(4);
  const filters::BilateralParams params{/*radius=*/2, /*sigma_spatial=*/1.5f,
                                        /*sigma_range=*/0.1f};
  filters::bilateral_parallel(volume, denoised, params, ctx);
  std::printf("bilateral filter: done (radius %u, %zu voxels)\n", params.radius,
              extents.size());

  // -- 3b. Raycasting volume renderer (semi-structured access). ------------
  const auto camera = render::orbit_camera(/*viewpoint=*/2, /*of=*/8, 64, 64, 64);
  const auto tf = render::TransferFunction::flame();
  const render::RenderConfig config{256, 256, 32, 0.5f, 0.98f};
  const render::Image image = render::raycast_parallel(volume, camera, tf, config, ctx);
  render::write_ppm("quickstart.ppm", image);
  std::printf("renderer: wrote quickstart.ppm (%ux%u)\n", image.width(), image.height());

  // -- 4. Memory-system counters via the cache simulator. ------------------
  // Replay the renderer's exact access stream through a modeled Ivy Bridge
  // node and read the paper's PAPI_L3_TCA metric.
  // The replay runs the renderer's own job over 4 logical threads on this
  // one, reading the volume through traced views.
  memsim::Hierarchy hierarchy(memsim::scaled(memsim::ivybridge(), 16), /*threads=*/4);
  const render::RenderConfig small{96, 96, 16, 0.5f, 0.98f};
  render::Image traced(small.image_width, small.image_height);
  exec::ExecutionContext replay_ctx = exec::make_replay_context(hierarchy.num_threads());
  replay_ctx.jobs().replay(render::raycast_job(volume, camera, tf, small, traced, nullptr, false,
                                               core::traced_views(hierarchy)));
  std::printf("traced render: %llu accesses, PAPI_L3_TCA=%llu, mem fills=%llu\n",
              static_cast<unsigned long long>(hierarchy.total_accesses()),
              static_cast<unsigned long long>(hierarchy.counter("PAPI_L3_TCA")),
              static_cast<unsigned long long>(hierarchy.memory_fills()));
  for (const auto& level : hierarchy.level_stats()) {
    std::printf("  %-6s accesses=%-10llu miss-rate=%.3f\n", level.name.c_str(),
                static_cast<unsigned long long>(level.stats.accesses),
                level.stats.miss_rate());
  }
  return 0;
}
