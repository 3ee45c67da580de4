// Ablation G: explicit SIMD.
//
// The bilateral gather fast path runs its tap loop through vfloat batches
// at the build's native width (core/simd.hpp); the bench reports which ISA
// the build selected. Its one table counts the samples a shaded composite
// raycast over macrocells takes per layout — the configuration the paper's
// volrend figures use — as a *deterministic* gated table: the count
// depends only on the traversal, so any drift is a traversal change, not
// noise. The measured tap-loop tiers are recorded in EXPERIMENTS.md
// (Ablation G).
#include "common.hpp"
#include "sfcvis/core/simd.hpp"
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

  const auto platform = memsim::ivybridge();
  bench::print_preamble("Ablation G: explicit SIMD (vector tap loops)", size, platform);
  std::printf("simd: active ISA %s  |  image %ux%u  |  threads %u\n\n", simd::active_isa(),
              image, image, nthreads);

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

  std::printf("reading: the samples table is deterministic and gated. Run with\n"
              "--report-out= to also record the top-down slot breakdown for the whole\n"
              "sweep.\n");
  return 0;
}
