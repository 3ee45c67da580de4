// Ablation F: sliding-window gather fast path for the bilateral filter.
//
// The legacy pencil kernel pays one layout index computation per stencil
// tap — W^3 per voxel at stencil width W = 2r+1. The gather path
// (filters/bilateral.hpp, BilateralParams::use_gather) keeps a ring of W
// contiguous scratch planes and gathers one W^2 plane per voxel advance,
// amortizing index cost by ~1/W and letting the tap loops vectorize over
// dense rows. This bench sweeps radius x layout x volume size and reports
// wall time and the gather:legacy speedup; it also verifies the fast-path
// output against the legacy kernel (1e-5 tolerance, the fast-exp contract)
// and asserts that the zsweep drivers no longer materialize their
// 12-byte/voxel curve-order vector (peak-RSS delta measured around a
// sweep; the old vector would dominate it).
#include <sys/resource.h>

#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"

namespace {

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

float max_abs_diff(const sfcvis::core::ArrayVolume& a, const sfcvis::core::ArrayVolume& b) {
  float worst = 0.0f;
  for (std::size_t n = 0; n < a.size(); ++n) {
    const float d = std::abs(a.data()[n] - b.data()[n]);
    worst = d > worst ? d : worst;
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfcvis;
  const bench_util::Options opts(argc, argv);
  bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::vector<std::uint32_t> sizes =
      opts.has("size") ? std::vector<std::uint32_t>{opts.get_u32("size", 0)}
                       : opts.get_u32_list("sizes", quick ? std::vector<std::uint32_t>{32}
                                                          : std::vector<std::uint32_t>{64, 128});
  const std::vector<std::uint32_t> radii =
      opts.get_u32_list("radii", quick ? std::vector<std::uint32_t>{1, 3}
                                       : std::vector<std::uint32_t>{1, 3, 5});
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", quick ? 1 : 2);
  // z-pencils advance along z, so the gathered stencil planes are (x, y)
  // slabs whose rows run along x — single memcpys on array order. That is
  // the orientation the fast path is designed around; --pencil=x/y shows
  // the against-the-grain cost.
  const std::string pencil_name = opts.get_string("pencil", "z");
  const filters::PencilAxis pencil_axis =
      pencil_name == "x"   ? filters::PencilAxis::kX
      : pencil_name == "y" ? filters::PencilAxis::kY
                           : filters::PencilAxis::kZ;

  const auto platform = memsim::ivybridge();
  bench::print_preamble("Ablation F: stencil gather fast path (bilateral)", sizes.front(),
                        platform);
  std::printf("threads: %u  reps (min-of): %u\n\n", nthreads, reps);

  exec::ExecutionContext pool(nthreads);
  pool.pool().run([](unsigned) {});  // start the workers before timing
  int failures = 0;

  for (const std::uint32_t size : sizes) {
    const bench::VolumePair pair = bench::make_mri_pair(size);
    core::ArrayVolume dst_legacy(core::Extents3D::cube(size));
    core::ArrayVolume dst_gather(core::Extents3D::cube(size));

    std::vector<std::string> rows;
    rows.reserve(radii.size());
    for (const std::uint32_t r : radii) {
      rows.push_back("r" + std::to_string(r));
    }
    char title[96];
    std::snprintf(title, sizeof(title), "wall seconds, %u^3 (min of %u)", size, reps);
    bench_util::ResultTable times(title, rows,
                                  {"a legacy", "a gather", "z legacy", "z gather"});
    std::snprintf(title, sizeof(title), "gather speedup over legacy, %u^3", size);
    bench_util::ResultTable speedup(title, rows, {"a-order", "z-order"});

    for (std::size_t row = 0; row < radii.size(); ++row) {
      filters::BilateralParams params;
      params.radius = radii[row];
      params.pencil = pencil_axis;
      const auto run_pair = [&](const auto& volume, std::size_t col) {
        params.use_gather = false;
        const double legacy = bench_util::min_time_of(
            reps, [&] { filters::bilateral_parallel(volume, dst_legacy, params, pool); });
        params.use_gather = true;
        const double gather = bench_util::min_time_of(
            reps, [&] { filters::bilateral_parallel(volume, dst_gather, params, pool); });
        times.set(row, col, legacy);
        times.set(row, col + 1, gather);
        speedup.set(row, col / 2, legacy / gather);
        const float diff = max_abs_diff(dst_legacy, dst_gather);
        if (diff > 1e-5f) {
          std::printf("FAIL: r%u %u^3 col %zu gather-vs-legacy max abs diff %.3g > 1e-5\n",
                      radii[row], size, col, static_cast<double>(diff));
          ++failures;
        }
      };
      run_pair(pair.array, 0);
      run_pair(pair.z, 2);
    }

    char csv[64];
    std::snprintf(csv, sizeof(csv), "abl_stencil_gather_times_%u.csv", size);
    bench::emit_table(times, opts, csv, 4);
    std::snprintf(csv, sizeof(csv), "abl_stencil_gather_speedup_%u.csv", size);
    bench::emit_table(speedup, opts, csv, 2);

    // Satellite check: bilateral_zsweep decodes curve chunks on the fly.
    // Everything the sweep touches is already resident (the timed runs
    // above touched src and dst), so any peak-RSS growth here is transient
    // allocation inside the sweep. The old implementation materialized a
    // 12-byte/voxel (i,j,k) order vector; assert the delta stays under
    // half of that.
    filters::BilateralParams zparams;
    zparams.radius = 1;
    const long rss_before_kb = peak_rss_kb();
    filters::bilateral_zsweep(pair.z, dst_legacy, zparams, pool);
    const long delta_kb = peak_rss_kb() - rss_before_kb;
    const double voxels = static_cast<double>(size) * size * size;
    const double order_vector_kb = 12.0 * voxels / 1024.0;
    std::printf("zsweep peak-RSS delta: %ld KB (materialized order vector would be "
                "%.0f KB)\n\n",
                delta_kb, order_vector_kb);
    if (static_cast<double>(delta_kb) > order_vector_kb / 2.0) {
      std::printf("FAIL: zsweep transient memory suggests a materialized order vector\n");
      ++failures;
    }
  }

  if (failures != 0) {
    std::printf("%d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("reading: speedup columns show the gather fast path's gain; the target\n"
              "configuration (r5, 256^3: --sizes=256 --radii=5) should clear 2x on both\n"
              "layouts.\n");
  return 0;
}
