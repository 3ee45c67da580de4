// Ablation I: where the layout effect switches on.
//
// The Z-order advantage appears once the traversal's working set exceeds
// the private caches. This bench sweeps the volume edge at a fixed
// modeled hierarchy and reports ds(L2 escapes) for the against-the-grain
// bilateral configuration — locating the crossover the paper's fixed
// 512^3 size sits far beyond.
#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const auto sizes = opts.get_u32_list(
      "sizes", quick ? std::vector<std::uint32_t>{8, 16, 32}
                     : std::vector<std::uint32_t>{8, 16, 24, 32, 48, 64});
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 64);
  const unsigned radius = opts.get_u32("radius", 3);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation I: volume-size sweep (bilateral r3 pz zyx)",
                        sizes.back(), platform);

  std::vector<std::string> cols;
  for (const auto s : sizes) {
    cols.push_back(std::to_string(s) + "^3");
  }
  bench_util::ResultTable table("ds by volume size", {"ds(L2 escapes)", "ds(modeled cycles)"},
                                cols);

  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const std::uint32_t size = sizes[c];
    const bench::VolumePair pair = bench::make_mri_pair(size);
    core::ArrayVolume dst(core::Extents3D::cube(size));
    const filters::BilateralParams params{radius, 1.5f, 0.1f, filters::PencilAxis::kZ,
                                          filters::LoopOrder::kZYX};
    // Full traces at small sizes; capped at larger ones for bounded cost.
    const std::size_t items = size <= 32 ? SIZE_MAX : 256;
    memsim::Hierarchy ha(platform, nthreads);
    memsim::Hierarchy hz(platform, nthreads);
    auto replay_ctx = exec::make_replay_context(ha.num_threads());
    replay_ctx.jobs().replay(
        filters::bilateral_job(pair.array, dst, params, core::traced_views(ha)), items);
    replay_ctx.jobs().replay(
        filters::bilateral_job(pair.z, dst, params, core::traced_views(hz)), items);
    table.set(0, c,
              bench_util::scaled_relative_difference(
                  static_cast<double>(ha.counter("L2_DATA_READ_MISS_MEM_FILL")),
                  static_cast<double>(hz.counter("L2_DATA_READ_MISS_MEM_FILL"))));
    table.set(1, c,
              bench_util::scaled_relative_difference(
                  static_cast<double>(ha.modeled_cycles_max()),
                  static_cast<double>(hz.modeled_cycles_max())));
  }
  bench::emit_table(table, opts, "abl_volume_size.csv");
  std::printf("reading: ds ~ 0 while the volume fits the modeled caches; the crossover\n"
              "is where the against-the-grain working set first exceeds L2.\n");
  return 0;
}
