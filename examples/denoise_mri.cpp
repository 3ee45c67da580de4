// Example: 3D MRI denoising with the bilateral filter — the paper's first
// workload (Sec. III-A) as a runnable pipeline.
//
//   generate noisy phantom -> denoise (array-order vs Z-order source)
//   -> report fidelity + timing -> write BOV volumes and a slice image.
//
// Usage: denoise_mri [--size=64] [--radius=2] [--sigma-range=0.15]
//                    [--threads=4] [--out-dir=.]
#include <cmath>
#include <cstdio>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/bench_util/stats.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/data/volume_io.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/render/image.hpp"

namespace {

using namespace sfcvis;

double rmse(const core::ArrayVolume& a, const core::ArrayVolume& b) {
  double sum = 0;
  a.for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const double d = a.at(i, j, k) - b.at(i, j, k);
    sum += d * d;
  });
  return std::sqrt(sum / static_cast<double>(a.size()));
}

/// Writes the central z-slice as a grayscale PPM for quick inspection.
void write_slice(const std::filesystem::path& path, const core::ArrayVolume& g) {
  const auto& e = g.extents();
  render::Image img(e.nx, e.ny);
  for (std::uint32_t j = 0; j < e.ny; ++j) {
    for (std::uint32_t i = 0; i < e.nx; ++i) {
      const float v = std::clamp(g.at(i, j, e.nz / 2), 0.0f, 1.0f);
      img.at(i, j) = render::Rgba{v, v, v, 1.0f};
    }
  }
  render::write_ppm(path, img);
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  const std::uint32_t size = opts.get_u32("size", 64);
  const unsigned radius = opts.get_u32("radius", 2);
  const float sigma_range = static_cast<float>(opts.get_double("sigma-range", 0.15));
  const unsigned nthreads = opts.get_u32("threads", 4);
  const std::filesystem::path out_dir = opts.get_string("out-dir", ".");

  const core::Extents3D e = core::Extents3D::cube(size);
  std::printf("generating %u^3 phantom (clean + noisy)...\n", size);
  core::ArrayVolume clean(e), noisy(e), denoised(e);
  data::fill_mri_phantom(clean, {.seed = 11, .texture_amplitude = 0.0f, .noise_sigma = 0.0f});
  data::fill_mri_phantom(noisy,
                         {.seed = 11, .texture_amplitude = 0.01f, .noise_sigma = 0.12f});

  const filters::BilateralParams params{radius, 1.5f, sigma_range};
  exec::ExecutionContext pool(nthreads);
  pool.pool().run([](unsigned) {});  // start the workers before timing

  // Same filter, two source layouts — the paper's transparency property.
  // The facade carries the layout at runtime; the driver call is identical.
  const core::AnyVolume noisy_any(noisy);
  const auto noisy_z = noisy_any.convert_to(core::LayoutKind::kZOrder);
  const double t_array = bench_util::min_time_of(
      2, [&] { filters::bilateral_parallel(noisy_any, denoised, params, pool); });
  const double t_z = bench_util::min_time_of(
      2, [&] { filters::bilateral_parallel(noisy_z, denoised, params, pool); });

  std::printf("bilateral r=%u, sigma_range=%.2f, %u threads\n", radius, sigma_range,
              nthreads);
  std::printf("  runtime: array-order source %.3fs, z-order source %.3fs (ds=%.3f)\n",
              t_array, t_z, bench_util::scaled_relative_difference(t_array, t_z));
  std::printf("  fidelity: RMSE vs clean  noisy=%.4f  denoised=%.4f\n", rmse(noisy, clean),
              rmse(denoised, clean));

  data::save_bov(out_dir / "mri_noisy.bov", data::to_raw(noisy));
  data::save_bov(out_dir / "mri_denoised.bov", data::to_raw(denoised));
  write_slice(out_dir / "mri_noisy_slice.ppm", noisy);
  write_slice(out_dir / "mri_denoised_slice.ppm", denoised);
  std::printf("wrote mri_noisy.bov, mri_denoised.bov and slice images to %s\n",
              out_dir.string().c_str());
  return 0;
}
