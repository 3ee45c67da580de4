// Example: orbiting volume rendering of the combustion-like dataset — the
// paper's second workload (Sec. III-B) as a runnable pipeline.
//
// Renders the 8-viewpoint orbit with both memory layouts, writes one PPM
// per viewpoint (from the Z-order pass; images are pixel-identical by
// construction) and prints the per-viewpoint runtimes so the Fig. 4
// alignment effect can be eyeballed directly. With --macrocell=N (on by
// default at N = 8) each render also runs the empty-space-skipping path
// over an N-voxel macrocell grid and reports the skipping runtime and the
// fraction of samples skipped; the skipped render is bit-identical, so
// the PPMs are unaffected.
//
// Usage: render_combustion [--size=64] [--image=256] [--threads=4]
//                          [--macrocell=8]   (0 disables the skip pass)
//                          [--out-dir=.]
#include <cstdio>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/bench_util/stats.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const std::uint32_t size = opts.get_u32("size", 64);
  const std::uint32_t image_size = opts.get_u32("image", 256);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t macrocell = opts.get_u32("macrocell", 8);
  const std::filesystem::path out_dir = opts.get_string("out-dir", ".");

  std::printf("generating %u^3 combustion field...\n", size);
  const core::Extents3D e = core::Extents3D::cube(size);
  core::AnyVolume vol_a = core::make_volume(core::LayoutKind::kArray, e);
  vol_a.visit([](auto& g) { data::fill_combustion(g); });
  const auto vol_z = vol_a.convert_to(core::LayoutKind::kZOrder);

  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config{image_size, image_size, 32, 0.5f, 0.98f};
  exec::ExecutionContext pool(nthreads);
  pool.pool().run([](unsigned) {});  // start the workers before timing
  const auto fsize = static_cast<float>(size);

  render::MacrocellGrid cells_a, cells_z;
  if (macrocell > 0) {
    cells_a = render::MacrocellGrid::build(vol_a, macrocell, &pool);
    cells_z = render::MacrocellGrid::build(vol_z, macrocell, &pool);
  }

  std::printf("rendering 8-viewpoint orbit at %ux%u, %u threads\n", image_size, image_size,
              nthreads);
  if (macrocell > 0) {
    std::printf("empty-space skipping: %u-voxel macrocells (skip pass is bit-identical)\n",
                macrocell);
    std::printf("%-10s %12s %12s %12s %12s %8s\n", "viewpoint", "a-order (s)", "a-skip (s)",
                "z-order (s)", "z-skip (s)", "skip %");
  } else {
    std::printf("%-10s %14s %14s\n", "viewpoint", "a-order (s)", "z-order (s)");
  }
  for (unsigned v = 0; v < 8; ++v) {
    const auto camera = render::orbit_camera(v, 8, fsize, fsize, fsize);
    config.use_macrocells = false;
    const double ta = bench_util::min_time_of(
        2, [&] { (void)render::raycast_parallel(vol_a, camera, tf, config, pool); });
    render::Image img;
    const double tz = bench_util::min_time_of(
        2, [&] { img = render::raycast_parallel(vol_z, camera, tf, config, pool); });
    const auto path = out_dir / ("combustion_view" + std::to_string(v) + ".ppm");
    render::write_ppm(path, img);
    if (macrocell > 0) {
      config.use_macrocells = true;
      config.macrocell_size = macrocell;
      const double tas = bench_util::min_time_of(2, [&] {
        (void)render::raycast_parallel(vol_a, camera, tf, config, pool, &cells_a);
      });
      const double tzs = bench_util::min_time_of(2, [&] {
        (void)render::raycast_parallel(vol_z, camera, tf, config, pool, &cells_z);
      });
      trace::Tracer::instance().reset_metrics();
      (void)render::raycast_parallel(vol_z, camera, tf, config, pool, &cells_z,
                                     /*collect_stats=*/true);
      const auto metrics = trace::Tracer::instance().metrics_snapshot();
      std::printf("%-10u %12.4f %12.4f %12.4f %12.4f %7.1f%%   -> %s\n", v, ta, tas, tz,
                  tzs, 100.0 * render::skip_rate(metrics), path.string().c_str());
    } else {
      std::printf("%-10u %14.4f %14.4f   -> %s\n", v, ta, tz, path.string().c_str());
    }
  }
  std::printf("note: viewpoints 0 and 4 align rays with the array-order fast axis;\n"
              "      2 and 6 are the against-the-grain views (paper Fig. 4).\n");
  return 0;
}
