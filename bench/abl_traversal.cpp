// Ablation G: traversal order matched to the layout.
//
// The paper varies the layout but keeps axis-aligned pencil traversals.
// The natural extension (Bader 2013 does it for matrices) is to also walk
// the *output* in Z-curve order so a Z-order source is read in nearly
// monotone storage order. This bench compares, for both layouts:
//   pencil sweep (px xyz)   — the paper's with-the-grain traversal,
//   pencil sweep (pz zyx)   — the against-the-grain traversal,
//   curve-order sweep       — bilateral_zsweep.
#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 24 : 48);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned radius = opts.get_u32("radius", 3);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 64);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 32 : 128);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation G: traversal order x layout (bilateral)", size, platform);

  const bench::VolumePair pair = bench::make_mri_pair(size);
  core::ArrayVolume dst(core::Extents3D::cube(size));

  // Traced escape counts per (traversal, layout) cell.
  auto pencil_escapes = [&](const auto& volume, filters::PencilAxis axis,
                            filters::LoopOrder order) {
    const filters::BilateralParams params{radius, 1.5f, 0.1f, axis, order};
    memsim::Hierarchy h(platform, nthreads);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(filters::bilateral_job(volume, dst, params, core::traced_views(h)),
                             trace_items);
    return std::pair{static_cast<double>(h.counter("L2_DATA_READ_MISS_MEM_FILL")) /
                         static_cast<double>(h.total_accesses()),
                     static_cast<double>(h.modeled_cycles_max()) /
                         static_cast<double>(h.total_accesses())};
  };
  auto zsweep_escapes = [&](const auto& volume) {
    const filters::BilateralParams params{radius, 1.5f, 0.1f};
    memsim::Hierarchy h(platform, nthreads);
    auto replay_ctx = exec::make_replay_context(h.num_threads());
    replay_ctx.jobs().replay(filters::bilateral_zsweep_job(volume, dst, params, replay_ctx,
                                                           core::traced_views(h)),
                             trace_items);
    return std::pair{static_cast<double>(h.counter("L2_DATA_READ_MISS_MEM_FILL")) /
                         static_cast<double>(h.total_accesses()),
                     static_cast<double>(h.modeled_cycles_max()) /
                         static_cast<double>(h.total_accesses())};
  };

  bench_util::ResultTable escapes("L2 escapes per access (lower = better locality)",
                                  {"pencil px xyz", "pencil pz zyx", "curve sweep"},
                                  {"a-order", "z-order"});
  bench_util::ResultTable cycles("modeled stall cycles per access",
                                 {"pencil px xyz", "pencil pz zyx", "curve sweep"},
                                 {"a-order", "z-order"});

  const auto a_px = pencil_escapes(pair.array, filters::PencilAxis::kX, filters::LoopOrder::kXYZ);
  const auto z_px = pencil_escapes(pair.z, filters::PencilAxis::kX, filters::LoopOrder::kXYZ);
  const auto a_pz = pencil_escapes(pair.array, filters::PencilAxis::kZ, filters::LoopOrder::kZYX);
  const auto z_pz = pencil_escapes(pair.z, filters::PencilAxis::kZ, filters::LoopOrder::kZYX);
  const auto a_zs = zsweep_escapes(pair.array);
  const auto z_zs = zsweep_escapes(pair.z);

  escapes.set(0, 0, a_px.first);
  escapes.set(0, 1, z_px.first);
  escapes.set(1, 0, a_pz.first);
  escapes.set(1, 1, z_pz.first);
  escapes.set(2, 0, a_zs.first);
  escapes.set(2, 1, z_zs.first);
  cycles.set(0, 0, a_px.second);
  cycles.set(0, 1, z_px.second);
  cycles.set(1, 0, a_pz.second);
  cycles.set(1, 1, z_pz.second);
  cycles.set(2, 0, a_zs.second);
  cycles.set(2, 1, z_zs.second);

  bench::emit_table(escapes, opts, "abl_traversal_escapes.csv", 4);
  bench::emit_table(cycles, opts, "abl_traversal_cycles.csv", 2);
  std::printf("reading: the curve sweep column shows whether matching traversal to the\n"
              "z-order layout beats the best axis-aligned configuration.\n");
  return 0;
}
