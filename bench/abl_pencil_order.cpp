// Ablation D: the full pencil-axis x loop-order cross for the bilateral
// filter. The paper (Sec. III-A) notes that "the choice of width, height,
// or depth row assignment of voxels to threads is significant"; its
// figures show only the two extreme configurations (px xyz, pz zyx). This
// bench fills in the whole grid so the transition is visible, reporting
// ds = (a - z)/z of the modeled stall cycles and of the L2-escape count.
#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 24 : 48);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 16);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 64 : 256);
  const unsigned radius = opts.get_u32("radius", 3);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  bench::print_preamble("Ablation D: pencil axis x loop order cross (bilateral)", size,
                        platform);

  const bench::VolumePair pair = bench::make_mri_pair(size);
  core::ArrayVolume dst(core::Extents3D::cube(size));

  const filters::PencilAxis axes[] = {filters::PencilAxis::kX, filters::PencilAxis::kY,
                                      filters::PencilAxis::kZ};
  const filters::LoopOrder orders[] = {filters::LoopOrder::kXYZ, filters::LoopOrder::kZYX};

  std::vector<std::string> rows;
  for (const auto a : axes) {
    for (const auto o : orders) {
      rows.push_back(std::string(filters::to_string(a)) + " " +
                     std::string(filters::to_string(o)));
    }
  }
  bench_util::ResultTable table(
      "ds per configuration (radius " + std::to_string(radius) + ")", rows,
      {"modeled cycles", "L2 escapes"});

  std::size_t row = 0;
  for (const auto axis : axes) {
    for (const auto order : orders) {
      const filters::BilateralParams params{radius, 1.5f, 0.1f, axis, order};
      memsim::Hierarchy ha(platform, nthreads);
      memsim::Hierarchy hz(platform, nthreads);
      auto replay_ctx = exec::make_replay_context(ha.num_threads());
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.array, dst, params, core::traced_views(ha)), trace_items);
      replay_ctx.jobs().replay(
          filters::bilateral_job(pair.z, dst, params, core::traced_views(hz)), trace_items);
      table.set(row, 0,
                bench_util::scaled_relative_difference(
                    static_cast<double>(ha.modeled_cycles_max()),
                    static_cast<double>(hz.modeled_cycles_max())));
      table.set(row, 1,
                bench_util::scaled_relative_difference(
                    static_cast<double>(ha.counter("L2_DATA_READ_MISS_MEM_FILL")),
                    static_cast<double>(hz.counter("L2_DATA_READ_MISS_MEM_FILL"))));
      ++row;
    }
  }

  bench::emit_table(table, opts, "abl_pencil_order.csv");
  return 0;
}
