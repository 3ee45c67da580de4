// Ablation E: does a next-line prefetcher rescue array order?
//
// The paper measures demand locality; real CPUs also prefetch. Array
// order's with-the-grain sweeps are exactly the unit-stride pattern a
// next-line prefetcher accelerates, so the fair question is how much of
// the Z-order advantage survives with prefetching on. (Against-the-grain
// sweeps stride by whole rows/planes, which a next-line prefetcher cannot
// follow — the Z-order advantage there is expected to persist.)
#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 24 : 48);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 64);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 64 : 256);

  auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation E: next-line prefetcher vs the layout gap", size,
                        platform);

  const bench::VolumePair pair = bench::make_mri_pair(size);
  core::ArrayVolume dst(core::Extents3D::cube(size));

  struct Config {
    unsigned radius;
    filters::PencilAxis pencil;
    filters::LoopOrder order;
    const char* label;
  };
  const Config configs[] = {
      {3, filters::PencilAxis::kX, filters::LoopOrder::kXYZ, "r3 px xyz"},
      {3, filters::PencilAxis::kZ, filters::LoopOrder::kZYX, "r3 pz zyx"},
      {5, filters::PencilAxis::kX, filters::LoopOrder::kXYZ, "r5 px xyz"},
      {5, filters::PencilAxis::kZ, filters::LoopOrder::kZYX, "r5 pz zyx"},
  };

  std::vector<std::string> rows;
  for (const auto& c : configs) {
    rows.push_back(c.label);
  }
  bench_util::ResultTable table("ds(modeled cycles): demand-only vs next-line prefetch",
                                rows, {"prefetch off", "prefetch on"});

  for (int prefetch = 0; prefetch < 2; ++prefetch) {
    platform.prefetch_next_line = (prefetch == 1);
    std::size_t row = 0;
    for (const auto& c : configs) {
      const filters::BilateralParams params{c.radius, 1.5f, 0.1f, c.pencil, c.order};
      memsim::Hierarchy ha(platform, nthreads);
      memsim::Hierarchy hz(platform, nthreads);
      auto replay_ctx = exec::make_replay_context(ha.num_threads());
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.array, dst, params, core::traced_views(ha)), trace_items);
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.z, dst, params, core::traced_views(hz)), trace_items);
      table.set(row++, static_cast<std::size_t>(prefetch),
                bench_util::scaled_relative_difference(
                    static_cast<double>(ha.modeled_cycles_max()),
                    static_cast<double>(hz.modeled_cycles_max())));
    }
  }

  bench::emit_table(table, opts, "abl_prefetch.csv");
  std::printf("reading: a shrinking ds from 'off' to 'on' is the share of the\n"
              "z-order advantage a next-line prefetcher recovers for array order.\n");
  return 0;
}
