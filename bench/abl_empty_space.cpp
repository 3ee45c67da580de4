// Ablation E: empty-space skipping with the macrocell min-max grid.
//
// The flame transfer function classifies most of the combustion volume to
// zero opacity, so a large fraction of the raycaster's trilinear taps are
// provably wasted. This bench quantifies what the macrocell DDA recovers:
// for each macrocell block size and orbit viewpoint it reports dense vs
// skipping runtime, the speedup, and the fraction of samples skipped —
// for both layouts, since the skip path changes the access pattern the
// layouts are competing on (surviving samples cluster around the flame
// sheet instead of marching the whole ray).
//
// Extra knobs: --blocks=a,b,c (macrocell edge), --views=a,b,c (orbit
// stops of 8). Grid build happens once per layout/block outside the
// timing loop; build seconds are printed separately.
#include "common.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : 128);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", quick ? 1 : 3);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 16);
  const auto blocks = opts.get_u32_list("blocks", quick ? std::vector<std::uint32_t>{8}
                                                        : std::vector<std::uint32_t>{4, 8, 16});
  const auto views = opts.get_u32_list("views", {0, 2, 5});

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation E: empty-space skipping (macrocell min-max grid)", size,
                        platform);

  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const auto fsize = static_cast<float>(size);
  exec::ExecutionContext pool(nthreads);

  std::vector<std::string> view_cols;
  view_cols.reserve(views.size());
  for (const auto v : views) {
    view_cols.push_back("view " + std::to_string(v));
  }

  // Row sets: one dense row plus one per block size, for each layout.
  std::vector<std::string> runtime_rows;
  std::vector<std::string> gain_rows;
  for (const char* layout : {"a-order", "z-order"}) {
    runtime_rows.push_back(std::string(layout) + " dense");
    for (const auto b : blocks) {
      runtime_rows.push_back(std::string(layout) + " skip b=" + std::to_string(b));
      gain_rows.push_back(std::string(layout) + " b=" + std::to_string(b));
    }
  }
  bench_util::ResultTable runtime("native runtime (seconds) by viewpoint", runtime_rows,
                                  view_cols);
  bench_util::ResultTable speedup("speedup over dense (x)", gain_rows, view_cols);
  bench_util::ResultTable skiprate("samples skipped (%)", gain_rows, view_cols);

  const std::size_t per_layout = 1 + blocks.size();
  const auto run_layout = [&](const auto& volume, std::size_t layout_idx) {
    // Grids are view-independent: build once per block size, off the clock.
    std::vector<render::MacrocellGrid> grids;
    grids.reserve(blocks.size());
    for (const auto b : blocks) {
      const double t0 = bench_util::min_time_of(1, [&] {
        grids.push_back(render::MacrocellGrid::build(volume, b, &pool));
      });
      std::printf("  [build] %s b=%u: %.4fs\n", layout_idx == 0 ? "a-order" : "z-order", b,
                  t0);
    }
    for (std::size_t c = 0; c < views.size(); ++c) {
      const auto camera = render::orbit_camera(views[c], 8, fsize, fsize, fsize);
      render::RenderConfig config;
      config.image_width = image;
      config.image_height = image;
      const std::size_t row0 = layout_idx * per_layout;
      const double dense = bench_util::min_time_of(reps, [&] {
        (void)render::raycast_parallel(volume, camera, tf, config, pool);
      });
      runtime.set(row0, c, dense);
      config.use_macrocells = true;
      for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
        config.macrocell_size = blocks[bi];
        const double accel = bench_util::min_time_of(reps, [&] {
          (void)render::raycast_parallel(volume, camera, tf, config, pool, &grids[bi]);
        });
        runtime.set(row0 + 1 + bi, c, accel);
        const std::size_t gain_row = layout_idx * blocks.size() + bi;
        speedup.set(gain_row, c, accel > 0.0 ? dense / accel : 0.0);
        trace::Tracer::instance().reset_metrics();
        (void)render::raycast_parallel(volume, camera, tf, config, pool, &grids[bi],
                                       /*collect_stats=*/true);
        const auto metrics = trace::Tracer::instance().metrics_snapshot();
        skiprate.set(gain_row, c, 100.0 * render::skip_rate(metrics));
      }
    }
  };
  run_layout(pair.array, 0);
  run_layout(pair.z, 1);
  std::printf("\n");

  bench::emit_table(runtime, opts, "abl_empty_runtime.csv", 4);
  bench::emit_table(speedup, opts, "abl_empty_speedup.csv", 2);
  bench::emit_table(skiprate, opts, "abl_empty_skiprate.csv", 1);

  // Counter view: the skipped samples never reach the modeled hierarchy,
  // so the traced access stream (and its L2 escapes) shrinks with them.
  const std::uint32_t trace_block = blocks[blocks.size() / 2];
  bench_util::ResultTable fills("L2 escapes (traced), dense vs skip b=" +
                                    std::to_string(trace_block),
                                {"a-order dense", "a-order skip", "z-order dense",
                                 "z-order skip"},
                                view_cols);
  const auto trace_layout = [&](const auto& volume, std::size_t row0) {
    for (std::size_t c = 0; c < views.size(); ++c) {
      const auto camera = render::orbit_camera(views[c], 8, fsize, fsize, fsize);
      render::RenderConfig config;
      config.image_width = image;
      config.image_height = image;
      memsim::Hierarchy dense_h(platform, nthreads);
      render::Image dense_image(config.image_width, config.image_height);
      auto dense_ctx = exec::make_replay_context(dense_h.num_threads());
      dense_ctx.jobs().replay(render::raycast_job(volume, camera, tf, config, dense_image, nullptr,
                                                  false, core::traced_views(dense_h)));
      fills.set(row0, c, static_cast<double>(dense_h.counter("L2_DATA_READ_MISS_MEM_FILL")));
      config.use_macrocells = true;
      config.macrocell_size = trace_block;
      memsim::Hierarchy accel_h(platform, nthreads);
      render::Image accel_image(config.image_width, config.image_height);
      auto accel_ctx = exec::make_replay_context(accel_h.num_threads());
      accel_ctx.jobs().replay(render::raycast_job(volume, camera, tf, config, accel_image, nullptr,
                                                  false, core::traced_views(accel_h)));
      fills.set(row0 + 1, c,
                static_cast<double>(accel_h.counter("L2_DATA_READ_MISS_MEM_FILL")));
    }
  };
  trace_layout(pair.array, 0);
  trace_layout(pair.z, 2);
  bench::emit_table(fills, opts, "abl_empty_fills.csv", 0);
  return 0;
}
