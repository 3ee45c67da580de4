// Ablation A: sensitivity of the renderer to the image-tile size.
//
// The paper fixes 32x32 tiles, citing Bethel & Howison 2012's finding that
// the choice has a profound runtime impact and that 32x32 was consistently
// good. This bench sweeps the tile edge for both layouts at an
// against-the-grain viewpoint.
#include "common.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : 128);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", 1);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 16);
  const auto tile_sizes = opts.get_u32_list("tiles", {8, 16, 32, 64});

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation A: image-tile size (paper fixes 32x32)", size, platform);

  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const auto fsize = static_cast<float>(size);
  const auto camera = render::orbit_camera(2, 8, fsize, fsize, fsize);
  exec::ExecutionContext pool(nthreads);

  std::vector<std::string> cols;
  for (const auto t : tile_sizes) {
    cols.push_back(std::to_string(t) + "x" + std::to_string(t));
  }
  bench_util::ResultTable runtime("native runtime (seconds) by tile size",
                                  {"a-order", "z-order"}, cols);
  bench_util::ResultTable escapes("L2 escapes (traced) by tile size",
                                  {"a-order", "z-order"}, cols);

  for (std::size_t c = 0; c < tile_sizes.size(); ++c) {
    const render::RenderConfig config{image, image, tile_sizes[c], 0.5f, 0.98f};
    runtime.set(0, c, bench_util::min_time_of(reps, [&] {
      (void)render::raycast_parallel(pair.array, camera, tf, config, pool);
    }));
    runtime.set(1, c, bench_util::min_time_of(reps, [&] {
      (void)render::raycast_parallel(pair.z, camera, tf, config, pool);
    }));
    memsim::Hierarchy ha(platform, nthreads);
    render::Image image_a(config.image_width, config.image_height);
    auto replay_a = exec::make_replay_context(ha.num_threads());
    replay_a.jobs().replay(render::raycast_job(pair.array, camera, tf, config, image_a, nullptr,
                                               false, core::traced_views(ha)));
    escapes.set(0, c, static_cast<double>(ha.counter("L2_DATA_READ_MISS_MEM_FILL")));
    memsim::Hierarchy hz(platform, nthreads);
    render::Image image_z(config.image_width, config.image_height);
    auto replay_z = exec::make_replay_context(hz.num_threads());
    replay_z.jobs().replay(render::raycast_job(pair.z, camera, tf, config, image_z, nullptr,
                                               false, core::traced_views(hz)));
    escapes.set(1, c, static_cast<double>(hz.counter("L2_DATA_READ_MISS_MEM_FILL")));
  }

  bench::emit_table(runtime, opts, "abl_tile_runtime.csv", 4);
  bench::emit_table(escapes, opts, "abl_tile_escapes.csv", 0);
  return 0;
}
