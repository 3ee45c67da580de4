// Shared harness for the bilateral-filter figures (Fig. 2: Ivy Bridge,
// Fig. 3: MIC). Rows and semantics follow the paper exactly:
//
//   rows:    r1/r3/r5 stencils x {px xyz, pz zyx} configurations
//   columns: the platform's concurrency sweep
//   cells:   scaled relative difference ds = (a - z) / z   (Eq. 4)
//
// Three tables are produced per figure:
//   1. native runtime   — wall-clock of the actual threaded kernel on this
//                         host (compute-bound at container-scale volumes;
//                         see EXPERIMENTS.md),
//   2. modeled runtime  — memory-stall cycles from the cache model (the
//                         memory-bound shape the paper's runtimes show),
//   3. the platform's counter (PAPI_L3_TCA / L2_DATA_READ_MISS_MEM_FILL).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/exec/execution_context.hpp"

namespace sfcvis::bench {

struct BilateralFigure {
  const char* figure;                        ///< e.g. "Fig. 2: bilateral3d, Ivy Bridge"
  const char* platform;                      ///< memsim platform name
  const char* counter;                       ///< memsim counter name
  std::vector<std::uint32_t> default_threads;
  std::uint32_t default_size = 48;
  std::uint32_t default_cache_scale = 16;
  std::uint32_t default_trace_items = 256;  ///< pencils replayed per counter run
  unsigned cores = 0;  ///< physical cores: thread counts that are a multiple
                       ///< share private caches SMT-style (0 = 1 thread/core)
};

inline int run_bilateral_figure(const BilateralFigure& figure, int argc,
                                const char* const* argv) {
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 24 : figure.default_size);
  const auto thread_counts = opts.get_u32_list(
      "threads", quick ? std::vector<std::uint32_t>{2, 4} : figure.default_threads);
  const unsigned reps = opts.get_u32("reps", 1);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", figure.default_cache_scale);
  const std::uint32_t trace_items =
      opts.get_u32("trace-items", quick ? 64 : figure.default_trace_items);

  const auto platform = memsim::scaled(memsim::platform_by_name(figure.platform), cache_scale);
  print_preamble(figure.figure, size, platform);

  struct Row {
    unsigned radius;
    filters::PencilAxis pencil;
    filters::LoopOrder order;
    const char* label;
  };
  // The paper's six rows: radius "rN" names the stencil half-width.
  const std::vector<Row> rows = {
      {1, filters::PencilAxis::kX, filters::LoopOrder::kXYZ, "r1 px xyz"},
      {1, filters::PencilAxis::kZ, filters::LoopOrder::kZYX, "r1 pz zyx"},
      {3, filters::PencilAxis::kX, filters::LoopOrder::kXYZ, "r3 px xyz"},
      {3, filters::PencilAxis::kZ, filters::LoopOrder::kZYX, "r3 pz zyx"},
      {5, filters::PencilAxis::kX, filters::LoopOrder::kXYZ, "r5 px xyz"},
      {5, filters::PencilAxis::kZ, filters::LoopOrder::kZYX, "r5 pz zyx"},
  };

  std::vector<std::string> row_labels, col_labels;
  for (const auto& r : rows) {
    row_labels.push_back(r.label);
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

  const VolumePair pair = make_mri_pair(size);
  core::ArrayVolume dst(core::Extents3D::cube(size));

  for (std::size_t col = 0; col < thread_counts.size(); ++col) {
    const unsigned nthreads = thread_counts[col];
    exec::ExecutionContext pool(nthreads);
    pool.pool().run([](unsigned) {});  // start the workers before timing
    const unsigned tpc =
        (figure.cores != 0 && nthreads % figure.cores == 0) ? nthreads / figure.cores : 1;
    for (std::size_t row = 0; row < rows.size(); ++row) {
      const auto& r = rows[row];
      const filters::BilateralParams params{r.radius, 1.5f, 0.1f, r.pencil, r.order};

      const double ta = bench_util::min_time_of(
          reps, [&] { filters::bilateral_parallel(pair.array, dst, params, pool); });
      const double tz = bench_util::min_time_of(
          reps, [&] { filters::bilateral_parallel(pair.z, dst, params, pool); });
      runtime_ds.set(row, col, bench_util::scaled_relative_difference(ta, tz));

      memsim::Hierarchy ha(platform, nthreads, tpc);
      memsim::Hierarchy hz(platform, nthreads, tpc);
      auto replay_ctx = exec::make_replay_context(ha.num_threads());
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.array, dst, params, core::traced_views(ha)), trace_items);
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.z, dst, params, core::traced_views(hz)), trace_items);
      modeled_ds.set(row, col,
                     bench_util::scaled_relative_difference(
                         static_cast<double>(ha.modeled_cycles_max()),
                         static_cast<double>(hz.modeled_cycles_max())));
      counter_ds.set(row, col,
                     bench_util::scaled_relative_difference(
                         static_cast<double>(ha.counter(figure.counter)),
                         static_cast<double>(hz.counter(figure.counter))));
      std::printf("  [%s, %u threads] done\n", r.label, nthreads);
      std::fflush(stdout);
    }
  }
  std::printf("\n");

  const std::string stem = std::string(figure.platform);
  emit_table(runtime_ds, opts, "bilateral_" + stem + "_runtime_ds.csv");
  emit_table(modeled_ds, opts, "bilateral_" + stem + "_modeled_ds.csv");
  emit_table(counter_ds, opts, "bilateral_" + stem + "_counter_ds.csv");
  return 0;
}

}  // namespace sfcvis::bench
