// Ablation F: work-assignment strategies for the renderer.
//
// The paper justifies raw threads by the superiority of the dynamic
// worker-pool model for raycasting, whose tile costs are wildly uneven
// (empty-space tiles finish early, flame-sheet tiles are slow). This bench
// measures the identical render under the pool's two schedulers:
//   pool static   — round-robin pencil-style assignment,
//   pool dynamic  — the worker-pool model (the paper's best).
#include "common.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::uint32_t image = opts.get_u32("image", quick ? 96 : 256);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", 3);

  std::printf("== Ablation F: scheduler comparison (renderer, %u threads) ==\n", nthreads);
  std::printf("volume %u^3, image %ux%u\n\n", size, image, image);

  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const render::RenderConfig config{image, image, 32, 0.5f, 0.98f};
  const auto fsize = static_cast<float>(size);
  // Viewpoint 1: oblique view -> strongly uneven tile costs.
  const auto camera = render::orbit_camera(1, 8, fsize, fsize, fsize);
  const render::TileDecomposition tiles(image, image, config.tile_size);
  const core::PlainView<float, core::GeneralizedMortonLayout> view(
      pair.z.as<core::GeneralizedMortonLayout>());

  render::Image img(image, image);
  auto tile_job = [&](std::size_t t, unsigned) {
    render::render_tile(view, camera, tf, config, img, tiles.bounds(t));
  };

  threads::Pool pool(nthreads);
  const std::vector<std::string> rows = {"pool static", "pool dynamic"};
  const double times[] = {
      bench_util::min_time_of(
          reps, [&] { threads::parallel_for_static(pool, tiles.count(), tile_job); }),
      bench_util::min_time_of(
          reps, [&] { threads::parallel_for_dynamic(pool, tiles.count(), tile_job); }),
  };

  bench_util::ResultTable table("render wall time by scheduler", rows,
                                {"seconds", "vs pool dynamic"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    table.set(r, 0, times[r]);
    table.set(r, 1, times[r] / times[1]);
  }
  bench::emit_table(table, opts, "abl_scheduler.csv", 4);
  return 0;
}
