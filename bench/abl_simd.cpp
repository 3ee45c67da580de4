// Ablation G: explicit SIMD — the bilateral vector tap loops.
//
// The bilateral gather fast path runs its range/spatial tap loops through
// vfloat batches at the build's native width (core/simd.hpp,
// BilateralParams::simd_taps). This bench times scalar vs simd taps per
// layout (advisory wall clock). It also counts the samples a shaded
// composite raycast over macrocells takes per layout — the configuration
// the paper's volrend figures use — as a *deterministic* gated table: the
// count depends only on the traversal, so any drift is a traversal change,
// not noise.
#include "common.hpp"
#include "sfcvis/core/simd.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/render/raycast.hpp"

namespace {

std::uint64_t samples_total() {
  const auto metrics = sfcvis::trace::Tracer::instance().metrics_snapshot();
  return metrics.total("raycast.samples_taken");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 128);
  const std::uint32_t image = opts.get_u32("image", quick ? 64 : 256);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", quick ? 1 : 3);
  const std::uint32_t radius = opts.get_u32("radius", 1);

  const auto platform = memsim::ivybridge();
  bench::print_preamble("Ablation G: explicit SIMD (vector tap loops)", size, platform);
  std::printf("simd: active ISA %s  |  image %ux%u  |  threads %u  |  reps (min-of) %u\n\n",
              simd::active_isa(), image, image, nthreads, reps);

  exec::ExecutionContext pool(nthreads);
  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const render::TransferFunction tf = render::TransferFunction::flame();
  const render::Camera camera = render::orbit_camera(
      1, 8, static_cast<float>(size), static_cast<float>(size), static_cast<float>(size));
  const std::vector<std::string> layout_rows = {"a-order", "z-order"};

  // --- Raycaster: deterministic sample counts -------------------------
  char title[96];
  std::snprintf(title, sizeof(title), "samples taken (deterministic), %u^3", size);
  bench_util::ResultTable ray_samples(title, layout_rows, {"scalar"});
  render::RenderConfig config;
  config.image_width = image;
  config.image_height = image;
  config.mode = render::RenderMode::kComposite;
  config.shade = true;
  config.use_macrocells = true;
  for (std::size_t row = 0; row < layout_rows.size(); ++row) {
    const core::AnyVolume& volume = row == 0 ? pair.array : pair.z;
    const std::uint64_t before = samples_total();
    (void)render::raycast_parallel(volume, camera, tf, config, pool, nullptr,
                                   /*collect_stats=*/true);
    ray_samples.set(row, 0, static_cast<double>(samples_total() - before));
  }
  bench::emit_table(ray_samples, opts, "abl_simd_samples.csv", 0);

  // --- Bilateral: scalar vs simd tap loops ----------------------------
  std::snprintf(title, sizeof(title), "bilateral gather wall seconds, %u^3 r%u (min of %u)",
                size, radius, reps);
  bench_util::ResultTable bi_ms(title, layout_rows, {"scalar taps", "simd taps", "speedup"});
  core::ArrayVolume dst(core::Extents3D::cube(size));
  for (std::size_t row = 0; row < layout_rows.size(); ++row) {
    const core::AnyVolume& volume = row == 0 ? pair.array : pair.z;
    filters::BilateralParams params;
    params.radius = radius;
    params.use_gather = true;
    params.simd_taps = false;
    const double scalar = bench_util::min_time_of(
        reps, [&] { filters::bilateral_parallel(volume, dst, params, pool); });
    params.simd_taps = true;
    const double simd = bench_util::min_time_of(
        reps, [&] { filters::bilateral_parallel(volume, dst, params, pool); });
    bi_ms.set(row, 0, scalar);
    bi_ms.set(row, 1, simd);
    bi_ms.set(row, 2, scalar / simd);
  }
  bench::emit_table(bi_ms, opts, "abl_simd_bilateral_ms.csv", 4);

  std::printf("reading: the speedup column shows the explicit-SIMD tap-loop gain per\n"
              "layout; the samples table is deterministic and gated. Run with\n"
              "--report-out= to also record the top-down slot breakdown for the whole\n"
              "sweep.\n");
  return 0;
}
