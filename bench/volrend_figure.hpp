// Shared harness for the volume-rendering figures (Fig. 4: viewpoint line
// plot; Fig. 5: Ivy Bridge ds tables; Fig. 6: MIC ds tables).
//
// Workload follows the paper Sec. IV-B4: a combustion-like volume rendered
// with perspective projection from 8 viewpoints orbiting the dataset
// center; the output image decomposed into tiles consumed by a dynamic
// worker pool. Viewpoints 0 and 4 align the rays with the array-order fast
// axis; 2 and 6 are the against-the-grain views.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/exec/execution_context.hpp"

namespace sfcvis::bench {

struct VolrendFigure {
  const char* figure;
  const char* platform;
  const char* counter;
  std::vector<std::uint32_t> default_threads;
  std::uint32_t default_size = 64;        ///< volume edge (paper: 512)
  std::uint32_t default_image = 192;      ///< native-run image edge
  std::uint32_t default_trace_image = 96;  ///< counter-run image edge
  std::uint32_t default_trace_tile = 16;   ///< counter-run tile edge
  std::uint32_t default_cache_scale = 16;
  unsigned num_viewpoints = 8;
  unsigned cores = 0;  ///< physical cores for SMT cache sharing (0 = off)
};

/// Figs. 5 / 6: rows = viewpoints, cols = concurrency; ds tables for
/// native runtime, modeled runtime, and the platform counter.
inline int run_volrend_ds_figure(const VolrendFigure& figure, int argc,
                                 const char* const* argv) {
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : figure.default_size);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : figure.default_image);
  const std::uint32_t trace_image =
      opts.get_u32("trace-image", quick ? 48 : figure.default_trace_image);
  const std::uint32_t trace_tile = opts.get_u32("trace-tile", figure.default_trace_tile);
  const auto thread_counts = opts.get_u32_list(
      "threads", quick ? std::vector<std::uint32_t>{2, 4} : figure.default_threads);
  const unsigned reps = opts.get_u32("reps", 1);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", figure.default_cache_scale);

  const auto platform =
      memsim::scaled(memsim::platform_by_name(figure.platform), cache_scale);
  print_preamble(figure.figure, size, platform);

  std::vector<std::string> row_labels, col_labels;
  for (unsigned v = 0; v < figure.num_viewpoints; ++v) {
    row_labels.push_back(std::to_string(v));
  }
  for (const auto t : thread_counts) {
    col_labels.push_back(std::to_string(t));
  }
  bench_util::ResultTable runtime_ds("ds(runtime), native  [positive = z-order faster]",
                                     row_labels, col_labels);
  bench_util::ResultTable modeled_ds("ds(runtime), modeled memory-stall cycles", row_labels,
                                     col_labels);
  bench_util::ResultTable counter_ds("ds(" + std::string(figure.counter) + ")", row_labels,
                                     col_labels);

  const VolumePair pair = make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const render::RenderConfig native_config{image, image, 32, 0.5f, 0.98f};
  const render::RenderConfig trace_config{trace_image, trace_image, trace_tile, 0.5f, 0.98f};
  const auto fsize = static_cast<float>(size);

  for (std::size_t col = 0; col < thread_counts.size(); ++col) {
    const unsigned nthreads = thread_counts[col];
    exec::ExecutionContext pool(nthreads);
    const unsigned tpc =
        (figure.cores != 0 && nthreads % figure.cores == 0) ? nthreads / figure.cores : 1;
    for (unsigned v = 0; v < figure.num_viewpoints; ++v) {
      const auto camera = render::orbit_camera(v, figure.num_viewpoints, fsize, fsize, fsize);

      const double ta = bench_util::min_time_of(reps, [&] {
        (void)render::raycast_parallel(pair.array, camera, tf, native_config, pool);
      });
      const double tz = bench_util::min_time_of(reps, [&] {
        (void)render::raycast_parallel(pair.z, camera, tf, native_config, pool);
      });
      runtime_ds.set(v, col, bench_util::scaled_relative_difference(ta, tz));

      memsim::Hierarchy ha(platform, nthreads, tpc);
      memsim::Hierarchy hz(platform, nthreads, tpc);
      render::Image image(trace_config.image_width, trace_config.image_height);
      auto replay_ctx = exec::make_replay_context(ha.num_threads());
      replay_ctx.jobs().replay(render::raycast_job(pair.array, camera, tf, trace_config, image,
                                                   nullptr, false, core::traced_views(ha)));
      replay_ctx.jobs().replay(render::raycast_job(pair.z, camera, tf, trace_config, image,
                                                   nullptr, false, core::traced_views(hz)));
      modeled_ds.set(v, col,
                     bench_util::scaled_relative_difference(
                         static_cast<double>(ha.modeled_cycles_max()),
                         static_cast<double>(hz.modeled_cycles_max())));
      counter_ds.set(v, col,
                     bench_util::scaled_relative_difference(
                         static_cast<double>(ha.counter(figure.counter)),
                         static_cast<double>(hz.counter(figure.counter))));
    }
    std::printf("  [%u threads] done\n", nthreads);
    std::fflush(stdout);
  }
  std::printf("\n");

  const std::string stem = std::string("volrend_") + figure.platform;
  emit_table(runtime_ds, opts, stem + "_runtime_ds.csv");
  emit_table(modeled_ds, opts, stem + "_modeled_ds.csv");
  emit_table(counter_ds, opts, stem + "_counter_ds.csv");
  return 0;
}

/// Fig. 4: absolute runtime and counter values per viewpoint for both
/// orders at one fixed concurrency — the line-plot view of the same data.
inline int run_volrend_absolute_figure(const VolrendFigure& figure, int argc,
                                       const char* const* argv) {
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : figure.default_size);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : figure.default_image);
  const std::uint32_t trace_image =
      opts.get_u32("trace-image", quick ? 48 : figure.default_trace_image);
  const std::uint32_t trace_tile = opts.get_u32("trace-tile", figure.default_trace_tile);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", 1);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", figure.default_cache_scale);

  const auto platform =
      memsim::scaled(memsim::platform_by_name(figure.platform), cache_scale);
  print_preamble(figure.figure, size, platform);
  std::printf("fixed concurrency: %u threads\n\n", nthreads);

  std::vector<std::string> col_labels;
  for (unsigned v = 0; v < figure.num_viewpoints; ++v) {
    col_labels.push_back(std::to_string(v));
  }
  bench_util::ResultTable runtime_abs("runtime (seconds) per viewpoint",
                                      {"a-order", "z-order"}, col_labels);
  bench_util::ResultTable counter_abs(std::string(figure.counter) + " per viewpoint",
                                      {"a-order", "z-order"}, col_labels);

  const VolumePair pair = make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const render::RenderConfig native_config{image, image, 32, 0.5f, 0.98f};
  const render::RenderConfig trace_config{trace_image, trace_image, trace_tile, 0.5f, 0.98f};
  const auto fsize = static_cast<float>(size);
  exec::ExecutionContext pool(nthreads);

  for (unsigned v = 0; v < figure.num_viewpoints; ++v) {
    const auto camera = render::orbit_camera(v, figure.num_viewpoints, fsize, fsize, fsize);
    runtime_abs.set(0, v, bench_util::min_time_of(reps, [&] {
      (void)render::raycast_parallel(pair.array, camera, tf, native_config, pool);
    }));
    runtime_abs.set(1, v, bench_util::min_time_of(reps, [&] {
      (void)render::raycast_parallel(pair.z, camera, tf, native_config, pool);
    }));
    memsim::Hierarchy ha(platform, nthreads);
    memsim::Hierarchy hz(platform, nthreads);
    render::Image image(trace_config.image_width, trace_config.image_height);
    auto replay_ctx = exec::make_replay_context(ha.num_threads());
    replay_ctx.jobs().replay(render::raycast_job(pair.array, camera, tf, trace_config, image,
                                                 nullptr, false, core::traced_views(ha)));
    replay_ctx.jobs().replay(render::raycast_job(pair.z, camera, tf, trace_config, image,
                                                 nullptr, false, core::traced_views(hz)));
    counter_abs.set(0, v, static_cast<double>(ha.counter(figure.counter)));
    counter_abs.set(1, v, static_cast<double>(hz.counter(figure.counter)));
    std::printf("  [viewpoint %u] done\n", v);
    std::fflush(stdout);
  }
  std::printf("\n");

  emit_table(runtime_abs, opts, "volrend_viewpoint_runtime.csv", 4);
  emit_table(counter_abs, opts, "volrend_viewpoint_counter.csv", 0);
  return 0;
}

}  // namespace sfcvis::bench
