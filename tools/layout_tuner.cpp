// layout_tuner: search the generalized-Morton family for the cheapest
// interleave pattern per (kernel, shape, machine) and print the winner as
// a layout spec, gmorton:<pattern>.
//
//   layout_tuner --kernel=bilateral --size=64 --generations=8 --seed=1
//
// Fitness is a deterministic memsim replay (same platform model and
// counters as the ablation benches), so a given flag set reproduces the
// identical search everywhere. The printed spec is what
// core::parse_layout_spec, locality_report --layouts= and
// abl_layout_compare --tuned=<pattern> take; the last times it against
// canonical Z-order on real hardware.
#include <cstdio>
#include <string>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;

void print_candidate(const char* label, const tuner::Candidate& c, double baseline) {
  std::printf("  %-14s %-24s fitness %12.0f  escapes %8llu  vs canonical %.3fx\n", label,
              ("\"" + c.pattern + "\"").c_str(), c.fitness,
              static_cast<unsigned long long>(c.escapes),
              c.fitness > 0 ? baseline / c.fitness : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);

  tuner::TunerConfig config;
  config.kernel = opts.get_string("kernel", "bilateral");
  const std::uint32_t size = opts.get_u32("size", 64);
  config.extents = core::Extents3D{opts.get_u32("nx", size), opts.get_u32("ny", size),
                                   opts.get_u32("nz", size)};
  config.platform_name = opts.get_string("platform", "ivybridge");
  config.cache_scale = opts.get_u32("cache-scale", 16);
  config.threads = opts.get_u32("threads", 4);
  config.trace_items = opts.get_u32("trace-items", 64);
  config.trace_image = opts.get_u32("trace-image", 32);
  config.population = opts.get_u32("population", 12);
  config.survivors = opts.get_u32("survivors", 4);
  config.generations = opts.get_u32("generations", 8);
  config.seed = opts.get_u32("seed", 1);

  std::printf("layout_tuner: kernel=%s shape=%ux%ux%u platform=%s/%ux threads=%u\n",
              config.kernel.c_str(), config.extents.nx, config.extents.ny,
              config.extents.nz, config.platform_name.c_str(), config.cache_scale,
              config.threads);
  std::printf("  search: population=%u survivors=%u generations=%u seed=%llu "
              "trace-items=%zu\n",
              config.population, config.survivors, config.generations,
              static_cast<unsigned long long>(config.seed), config.trace_items);

  tuner::TunerResult result;
  try {
    result = tuner::search(config, [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    });
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "layout_tuner: %s\n", ex.what());
    return 1;
  }

  std::printf("search done after %zu evaluations:\n", result.evaluations);
  print_candidate("canonical z", result.canonical_z, result.canonical_z.fitness);
  print_candidate("best canonical", result.best_canonical, result.canonical_z.fitness);
  print_candidate("winner", result.best, result.canonical_z.fitness);

  if (result.best.fitness > result.best_canonical.fitness) {
    std::fprintf(stderr,
                 "layout_tuner: search regressed below the canonical seeds — this "
                 "cannot happen with elitist selection\n");
    return 1;
  }
  std::printf("gmorton:%s\n", result.best.pattern.c_str());
  return 0;
}
