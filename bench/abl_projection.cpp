// Ablation H: orthographic vs perspective projection.
//
// The paper classifies the raycaster as "semi-structured" *because* of
// perspective projection: every ray gets its own slope (Sec. III-B). With
// orthographic projection all rays share one slope, making the access
// pattern structured and maximally favorable to array order at aligned
// viewpoints. This bench measures both projections at an aligned (0) and
// a cross (2) viewpoint, for both layouts.
#include "common.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::uint32_t trace_image = opts.get_u32("trace-image", quick ? 48 : 96);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 16);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation H: orthographic vs perspective projection", size,
                        platform);

  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();
  const render::RenderConfig config{trace_image, trace_image, 16, 0.5f, 0.98f};
  const auto fsize = static_cast<float>(size);

  auto escapes = [&](const auto& volume, unsigned viewpoint, render::Projection proj) {
    const auto camera = render::orbit_camera(viewpoint, 8, fsize, fsize, fsize, proj);
    memsim::Hierarchy h(platform, nthreads);
    render::Image image(config.image_width, config.image_height);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(render::raycast_job(volume, camera, tf, config, image, nullptr,
                                                 false, core::traced_views(h)));
    return static_cast<double>(h.counter("PAPI_L3_TCA"));
  };

  bench_util::ResultTable table(
      "PAPI_L3_TCA by projection and viewpoint",
      {"ortho view 0", "ortho view 2", "persp view 0", "persp view 2"},
      {"a-order", "z-order", "ds"});
  const struct {
    unsigned view;
    render::Projection proj;
  } rows[] = {{0, render::Projection::kOrthographic},
              {2, render::Projection::kOrthographic},
              {0, render::Projection::kPerspective},
              {2, render::Projection::kPerspective}};
  for (std::size_t r = 0; r < 4; ++r) {
    const double a = escapes(pair.array, rows[r].view, rows[r].proj);
    const double z = escapes(pair.z, rows[r].view, rows[r].proj);
    table.set(r, 0, a);
    table.set(r, 1, z);
    table.set(r, 2, bench_util::scaled_relative_difference(a, z));
  }
  bench::emit_table(table, opts, "abl_projection.csv", 1);
  std::printf("reading: orthographic view 0 is array order's structured best case; the\n"
              "paper's semi-structured claim is the perspective rows' larger ds.\n");
  return 0;
}
