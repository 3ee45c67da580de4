// Ablation J: job-dispatch overhead and StructureCache sharing across jobs.
//
// The kernel drivers build exec::KernelJobs and run them with
// ExecutionContext::jobs() instead of calling the thread primitives
// directly (DESIGN.md Sec. 12). This bench pins the cost of that
// indirection three ways:
//   1. modeled counters — the bilateral job replayed with traced views
//      (JobGraph::replay) must drive exactly the access stream of a
//      direct replay loop (hand-rolled here). Deterministic memsim
//      counters; the job/direct ratio row gates at exactly 1.0 — the job
//      layer adds zero modeled work.
//   2. wall clock — the gradient driver (job path) vs the identical tile
//      body dispatched straight on ctx.parallel_static_state. The delta
//      is pure dispatch bookkeeping (record, span, metrics); the
//      acceptance target is <= 2% overhead. Advisory: wall clock never
//      gates in CI.
//   3. cache sharing — two macrocell raycasts run back-to-back on one
//      context: job #1 must build the grid (1 miss), job #2 must reuse it
//      (>= 1 hit, 0 misses), attributed per job in the run report.
//
// The binary hard-fails (exit 1) when the deterministic invariants break,
// so the gate catches regressions even before table comparison.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/threads/schedulers.hpp"
#include "sfcvis/verify/diff.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", quick ? 3 : 5);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 32 : 128);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 64);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : 128);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation J: job dispatch overhead", size, platform);

  const bench::VolumePair pair = bench::make_mri_pair(size);
  const core::Extents3D e = core::Extents3D::cube(size);

  // -- 1. Deterministic replay: job path vs pre-job direct loop ------------
  const filters::BilateralParams params{1, 1.5f, 0.1f};
  core::ArrayVolume dst_direct(e);
  core::ArrayVolume dst_job(e);

  memsim::Hierarchy h_direct(platform, nthreads);
  pair.z.visit([&](const auto& grid) {
    // The reference loop: materialize the round-robin schedule and
    // replay it serially through per-thread sinks.
    const filters::BilateralWeights weights(params.radius, params.sigma_spatial);
    const std::size_t pencils = filters::pencil_count(grid.extents(), params.pencil);
    const threads::StaticRoundRobin rr(pencils, nthreads);
    const std::vector<threads::Assignment> order = rr.replay_order();
    std::vector<memsim::ThreadSink> sinks;
    sinks.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) {
      sinks.push_back(h_direct.sink(t));
    }
    const std::size_t items = std::min(trace_items, order.size());
    for (std::size_t i = 0; i < items; ++i) {
      const threads::Assignment& a = order[i];
      const auto view = core::make_traced_view(grid, sinks[a.tid]);
      filters::bilateral_pencil(view, dst_direct, weights, params, a.item);
    }
  });

  memsim::Hierarchy h_job(platform, nthreads);
  auto replay_ctx = exec::make_replay_context(h_job.num_threads());
  replay_ctx.jobs().replay(
      filters::bilateral_job(pair.z, dst_job, params, core::traced_views(h_job)), trace_items);

  const auto direct_acc = static_cast<double>(h_direct.total_accesses());
  const auto direct_fill =
      static_cast<double>(h_direct.counter("L2_DATA_READ_MISS_MEM_FILL"));
  const auto direct_cyc = static_cast<double>(h_direct.modeled_cycles_max());
  const auto job_acc = static_cast<double>(h_job.total_accesses());
  const auto job_fill = static_cast<double>(h_job.counter("L2_DATA_READ_MISS_MEM_FILL"));
  const auto job_cyc = static_cast<double>(h_job.modeled_cycles_max());

  bench_util::ResultTable model("traced bilateral replay: job path vs direct loop",
                                {"direct loop", "job path", "job / direct"},
                                {"accesses", "mem fills", "modeled cycles"});
  model.set(0, 0, direct_acc);
  model.set(0, 1, direct_fill);
  model.set(0, 2, direct_cyc);
  model.set(1, 0, job_acc);
  model.set(1, 1, job_fill);
  model.set(1, 2, job_cyc);
  model.set(2, 0, job_acc / direct_acc);
  model.set(2, 1, direct_fill > 0.0 ? job_fill / direct_fill : 1.0);
  model.set(2, 2, job_cyc / direct_cyc);
  bench::emit_table(model, opts, "abl_job_model.csv", 4);

  if (h_job.total_accesses() != h_direct.total_accesses() ||
      h_job.counter("L2_DATA_READ_MISS_MEM_FILL") !=
          h_direct.counter("L2_DATA_READ_MISS_MEM_FILL") ||
      h_job.modeled_cycles_max() != h_direct.modeled_cycles_max()) {
    std::fprintf(stderr,
                 "FAIL: job-path replay counters diverge from the direct loop\n");
    return 1;
  }
  const auto out_diff =
      verify::compare_grids(dst_direct, dst_job, verify::Tolerance::bit_identical(),
                            "job vs direct replay output");
  if (!out_diff.ok) {
    std::fprintf(stderr, "FAIL: %s\n", out_diff.to_string().c_str());
    return 1;
  }
  std::printf("replay parity: counters identical, output bit-identical\n\n");

  // -- 2. Wall clock: gradient via job path vs raw ctx dispatch ------------
  exec::ExecutionContext ctx(nthreads);
  ctx.pool().run([](unsigned) {});  // start the workers before timing

  core::ArrayVolume gdst(e);
  const double t_job = bench_util::min_time_of(
      reps, [&] { filters::gradient_magnitude(pair.z, gdst, ctx); });
  const double t_direct = bench_util::min_time_of(reps, [&] {
    pair.z.visit([&](const auto& grid) {
      // The gradient job's exact decomposition and body, dispatched on the
      // context's backend without the JobGraph in between.
      const core::Extents3D ge = grid.extents();
      const std::size_t pencils = static_cast<std::size_t>(ge.ny) * ge.nz;
      ctx.parallel_static_state(
          pencils, [&grid](unsigned) { return core::make_read_view(grid); },
          [&](const auto& view, std::size_t p, unsigned) {
            const auto j = static_cast<std::uint32_t>(p % ge.ny);
            const auto k = static_cast<std::uint32_t>(p / ge.ny);
            for (std::uint32_t i = 0; i < ge.nx; ++i) {
              const auto g = filters::gradient_voxel(view, i, j, k);
              gdst.at(i, j, k) = std::sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2]);
            }
          });
    });
  });

  bench_util::ResultTable wall("gradient dispatch wall time (target: job <= 1.02x)",
                               {"direct ctx dispatch", "job path"},
                               {"seconds", "vs direct"});
  wall.set(0, 0, t_direct);
  wall.set(0, 1, 1.0);
  wall.set(1, 0, t_job);
  wall.set(1, 1, t_job / t_direct);
  bench::emit_table(wall, opts, "abl_job_walltime.csv", 4);

  // -- 3. Back-to-back raycasts share one StructureCache entry -------------
  const bench::VolumePair cpair = bench::make_combustion_pair(size);
  render::RenderConfig rconfig{image, image, 32, 0.5f, 0.98f};
  rconfig.use_macrocells = true;
  const auto fsize = static_cast<float>(size);
  const auto camera = render::orbit_camera(1, 8, fsize, fsize, fsize);
  const auto tf = render::TransferFunction::flame();
  render::Image img1(image, image);
  render::Image img2(image, image);

  exec::ExecutionContext rctx(nthreads);  // fresh context -> cold StructureCache
  exec::JobGraph& graph = rctx.jobs();
  const exec::JobId id1 = graph.run(render::raycast_job(cpair.z, camera, tf, rconfig, img1));
  const exec::JobId id2 = graph.run(render::raycast_job(cpair.z, camera, tf, rconfig, img2));
  const auto rec1 = graph.find_record(id1);
  const auto rec2 = graph.find_record(id2);
  if (!rec1 || !rec2) {
    std::fprintf(stderr, "FAIL: raycast job records missing\n");
    return 1;
  }

  bench_util::ResultTable cache("back-to-back raycasts on one volume: macrocell cache",
                                {"raycast #1", "raycast #2"},
                                {"cache hits", "cache misses"});
  cache.set(0, 0, static_cast<double>(rec1->structure_cache_hits));
  cache.set(0, 1, static_cast<double>(rec1->structure_cache_misses));
  cache.set(1, 0, static_cast<double>(rec2->structure_cache_hits));
  cache.set(1, 1, static_cast<double>(rec2->structure_cache_misses));
  bench::emit_table(cache, opts, "abl_job_cache.csv", 0);

  if (rec1->structure_cache_misses != 1 || rec1->structure_cache_hits != 0 ||
      rec2->structure_cache_hits < 1 || rec2->structure_cache_misses != 0) {
    std::fprintf(stderr,
                 "FAIL: expected raycast #1 to build the macrocell grid "
                 "(1 miss) and #2 to reuse it (>= 1 hit, 0 misses)\n");
    return 1;
  }
  const auto img_diff = verify::compare_images(img1, img2,
                                               verify::Tolerance::bit_identical(),
                                               "back-to-back raycast images");
  if (!img_diff.ok) {
    std::fprintf(stderr, "FAIL: %s\n", img_diff.to_string().c_str());
    return 1;
  }
  std::printf("cache sharing: #1 built the grid, #2 reused it; images identical\n");
  return 0;
}
