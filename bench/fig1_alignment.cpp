// Quantitative version of the paper's Fig. 1 cartoon: how well do rays
// align with the memory layout?
//
// For each orbit viewpoint we cast the center row of image rays and count
// the number of *distinct 64-byte cache lines* each ray touches while
// sampling, per layout. Under array order that count is small when rays
// run along x (viewpoints 0, 4) and large when they run along z
// (viewpoints 2, 6); under Z-order it is nearly viewpoint-independent —
// exactly the picture Fig. 1 draws.
#include <unordered_set>

#include "common.hpp"
#include "sfcvis/render/raycast.hpp"

namespace {

using namespace sfcvis;

/// AccessSink collecting the set of distinct cache lines touched.
struct LineSetSink {
  std::unordered_set<std::uint64_t> lines;
  void access(std::uint64_t addr, std::uint32_t) { lines.insert(addr >> 6); }
};

template <core::Layout3D L>
double mean_lines_per_ray(const core::Grid3D<float, L>& volume, unsigned viewpoint,
                          std::uint32_t image, const render::TransferFunction& tf) {
  const auto fsize = static_cast<float>(volume.extents().nx);
  const auto camera = render::orbit_camera(viewpoint, 8, fsize, fsize, fsize);
  const render::RenderConfig config{image, image, 32, 0.5f, 1.1f};  // no early out
  double total = 0;
  for (std::uint32_t px = 0; px < image; ++px) {
    LineSetSink sink;
    const core::TracedView<float, L, LineSetSink> view(volume, sink);
    const auto ray = camera.ray_for_pixel(px, image / 2, image, image);
    (void)render::trace_ray(view, ray, tf, config);
    total += static_cast<double>(sink.lines.size());
  }
  return total / image;
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  const bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::uint32_t image = opts.get_u32("image", quick ? 32 : 96);

  std::printf("== Fig. 1 (quantified): distinct cache lines touched per ray ==\n");
  std::printf("volume: %u^3, %u center-row rays per viewpoint\n\n", size, image);

  const bench::VolumePair pair = bench::make_combustion_pair(size);
  const auto tf = render::TransferFunction::flame();

  std::vector<std::string> cols;
  for (unsigned v = 0; v < 8; ++v) {
    cols.push_back(std::to_string(v));
  }
  bench_util::ResultTable table("mean distinct 64B lines per ray, by viewpoint",
                                {"a-order", "z-order"}, cols);
  for (unsigned v = 0; v < 8; ++v) {
    table.set(0, v, mean_lines_per_ray(pair.array.as<core::ArrayOrderLayout>(), v, image, tf));
    table.set(1, v, mean_lines_per_ray(pair.z.as<core::GeneralizedMortonLayout>(), v, image, tf));
  }
  bench::emit_table(table, opts, "fig1_lines_per_ray.csv", 1);

  // Summary statistic: max/min across viewpoints, per layout — the
  // "alignment sensitivity" the cartoon illustrates.
  auto sensitivity = [&](std::size_t row) {
    double lo = 1e300, hi = 0;
    for (unsigned v = 0; v < 8; ++v) {
      lo = std::min(lo, table.at(row, v));
      hi = std::max(hi, table.at(row, v));
    }
    return hi / lo;
  };
  std::printf("viewpoint sensitivity (max/min lines per ray): a-order %.2fx, z-order %.2fx\n",
              sensitivity(0), sensitivity(1));
  return 0;
}
