// Example: volumes larger than RAM — the out-of-core bricked workflow.
//
// Packs (or takes) an SFCBRK01 brick file, opens it with a brick-cache
// budget far below the volume size, and runs the two paper workloads —
// bilateral filtering and macrocell-accelerated raycasting — straight off
// disk. Before reporting anything it verifies the bricked outputs are
// bit-identical to the same kernels over the fully in-core volume: the
// cache budget changes *when* bricks are resident, never what the kernels
// compute.
//
// Usage: out_of_core [--in=vol.sfcbrk] [--size=64] [--brick-edge=8]
//                    [--cache-bricks=8] [--threads=4] [--image=64]
//                    [--report-out=report.json]
//
// Without --in, a --size^3 MRI phantom is packed to a temp file first
// (tools/brick_pack does the same for real data). With --report-out, the
// run report carries the brick-cache section that
// `tools/sfcreport.py validate --require brick-cache` checks in CI.
#include <cstdio>
#include <filesystem>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  namespace fs = std::filesystem;
  const bench_util::Options opts(argc, argv);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t image_size = opts.get_u32("image", 64);
  std::string in = opts.get_string("in", "");

  // Pack a synthetic volume when no brick file was supplied.
  fs::path packed_tmp;
  if (in.empty()) {
    const std::uint32_t size = opts.get_u32("size", 64);
    core::AnyVolume src =
        core::make_volume(core::LayoutKind::kArray, core::Extents3D::cube(size));
    src.visit([](auto& g) { data::fill_mri_phantom(g); });
    core::BrickPackOptions popts;
    popts.brick_edge = opts.get_u32("brick-edge", 8);
    packed_tmp = fs::temp_directory_path() /
                 ("sfcvis_ooc_example_" + std::to_string(::getpid()) + ".sfcbrk");
    in = packed_tmp.string();
    const core::BrickFileInfo packed = core::pack_brick_file(in, src, popts);
    std::printf("packed %u^3 phantom -> %s (%llu bricks of %u^3)\n", size, in.c_str(),
                static_cast<unsigned long long>(packed.brick_count), popts.brick_edge);
  }

  int rc = 0;
  {
    const core::BrickFileInfo info = core::read_brick_file_header(in);
    const std::uint64_t cache_bricks = opts.get_u32("cache-bricks", 8);
    exec::ExecOptions xopts;
    xopts.threads = nthreads;
    xopts.memory.brick_cache_bytes =
        static_cast<std::size_t>(cache_bricks) * info.brick_bytes();
    xopts.report_out = opts.get_string("report-out", "");
    exec::ExecutionContext ctx(xopts);

    core::AnyVolume vol = ctx.open_bricked(in);
    const core::BrickedVolume& bricked = vol.as_bricked();
    const core::Extents3D e = vol.extents();
    std::printf("streaming %ux%ux%u through a %llu-brick cache (%.1f%% of the "
                "%llu-brick working set)\n",
                e.nx, e.ny, e.nz, static_cast<unsigned long long>(cache_bricks),
                100.0 * static_cast<double>(cache_bricks) /
                    static_cast<double>(info.brick_count),
                static_cast<unsigned long long>(info.brick_count));

    // The fully in-core reference for the bit-identity checks.
    const core::AnyVolume in_core = vol.convert_to(core::LayoutKind::kZOrder);

    // Workload 1: bilateral filter, off disk vs in core.
    const filters::BilateralParams params{2, 1.5f, 0.1f};
    core::ArrayVolume out_disk(e);
    core::ArrayVolume out_core(e);
    filters::bilateral_parallel(vol, out_disk, params, ctx);
    filters::bilateral_parallel(in_core, out_core, params, ctx);
    bool identical = true;
    for (std::size_t i = 0; i < out_disk.size() && identical; ++i) {
      identical = out_disk.data()[i] == out_core.data()[i];
    }
    std::printf("bilateral r2: bricked == in-core: %s\n", identical ? "yes" : "NO");

    // Workload 2: raycast with empty-space skipping — the macrocell grid
    // builds through the same brick views, once per volume, and both
    // renders take their grid as an argument.
    const std::uint32_t mc = 8;
    render::MacrocellGrid cells_disk = render::MacrocellGrid::build(vol, mc, &ctx);
    render::MacrocellGrid cells_core = render::MacrocellGrid::build(in_core, mc, &ctx);
    const auto tf = render::TransferFunction::flame();
    render::RenderConfig config{image_size, image_size, 32, 0.5f, 0.98f};
    config.use_macrocells = true;
    config.macrocell_size = mc;
    const auto fx = static_cast<float>(e.nx);
    const auto camera = render::orbit_camera(2, 8, fx, static_cast<float>(e.ny),
                                             static_cast<float>(e.nz));
    const render::Image img_disk =
        render::raycast_parallel(vol, camera, tf, config, ctx, &cells_disk);
    const render::Image img_core =
        render::raycast_parallel(in_core, camera, tf, config, ctx, &cells_core);
    const bool img_identical = img_disk.pixels() == img_core.pixels();
    std::printf("raycast + skip: bricked == in-core: %s\n",
                img_identical ? "yes" : "NO");

    // Flush the cache counters into the metrics registry (and so into the
    // run report when --report-out was given).
    const core::BrickCacheReport delta = exec::publish_brick_cache_metrics(bricked);
    const core::BrickCacheReport rep = bricked.cache_report();
    std::printf("brick cache: %llu hits / %llu misses, %llu evictions, "
                "%llu overflow, prefetch %llu/%llu hit/issued\n",
                static_cast<unsigned long long>(delta.hits),
                static_cast<unsigned long long>(delta.misses),
                static_cast<unsigned long long>(delta.evictions),
                static_cast<unsigned long long>(delta.overflow_bricks),
                static_cast<unsigned long long>(delta.prefetch_hits),
                static_cast<unsigned long long>(delta.prefetch_issued));
    if (!rep.degrade.empty()) {
      std::printf("degraded: %s\n", rep.degrade.c_str());
    }
    if (!rep.io_error.empty()) {
      std::printf("io error: %s\n", rep.io_error.c_str());
      rc = 1;
    }
    if (!identical || !img_identical) {
      rc = 1;
    }
  }  // ~ExecutionContext writes the run report

  if (!packed_tmp.empty()) {
    std::error_code ec;
    fs::remove(packed_tmp, ec);
  }
  return rc;
}
