#include "sfcvis/tuner/tuner.hpp"

#include <algorithm>
#include <stdexcept>

#include "sfcvis/bench_util/stats.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/locality/profile.hpp"
#include "sfcvis/locality/reuse.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/verify/rng.hpp"

namespace sfcvis::tuner {

namespace {

/// The counter both benches report as "L2 escapes": reads the private
/// stack could not serve.
constexpr std::string_view kEscapeCounter = "L2_DATA_READ_MISS_MEM_FILL";

/// Mutates `pattern` in place: `swaps` random swaps of two positions that
/// hold different characters (a same-character swap is the identity).
void mutate(std::string& pattern, verify::SplitMix64& rng, unsigned swaps) {
  const std::size_t n = pattern.size();
  if (n < 2) {
    return;
  }
  for (unsigned s = 0; s < swaps; ++s) {
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
      const std::size_t a = rng.below(n);
      const std::size_t b = rng.below(n);
      if (pattern[a] != pattern[b]) {
        std::swap(pattern[a], pattern[b]);
        break;
      }
    }
  }
}

/// A uniformly random valid pattern: Fisher-Yates over the canonical
/// multiset.
std::string random_pattern(const core::Extents3D& extents, verify::SplitMix64& rng) {
  std::string s = core::InterleavePattern::canonical(extents).str();
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng.below(i)]);
  }
  return s;
}

/// The tuner's configuration as the shared traced workload
/// (locality/profile.hpp): the fitness replays exactly what a locality
/// profile of the same volume measures.
locality::WorkloadConfig workload_of(const TunerConfig& config) {
  locality::WorkloadConfig workload;
  workload.kernel = config.kernel;
  workload.threads = config.threads;
  workload.trace_items = config.trace_items;
  workload.trace_image = config.trace_image;
  return workload;
}

}  // namespace

FitnessEvaluator::FitnessEvaluator(const TunerConfig& config)
    : config_(config),
      platform_(memsim::scaled(memsim::platform_by_name(config.platform_name),
                               config.cache_scale)),
      master_(core::make_volume(core::LayoutKind::kArray, config.extents)) {
  if (config_.kernel != "bilateral" && config_.kernel != "raycast") {
    throw std::invalid_argument("layout tuner: unknown kernel \"" + config_.kernel +
                                "\" (want bilateral or raycast)");
  }
  if (config_.fitness != "memsim" && config_.fitness != "sampled-mrc") {
    throw std::invalid_argument("layout tuner: unknown fitness \"" + config_.fitness +
                                "\" (want memsim or sampled-mrc)");
  }
  if (config_.fitness == "sampled-mrc" && platform_.private_levels.empty()) {
    throw std::invalid_argument(
        "layout tuner: sampled-mrc fitness needs a platform with private cache levels");
  }
  locality::fill_workload_volume(master_, config_.kernel);
}

const Candidate& FitnessEvaluator::evaluate(const std::string& pattern) {
  if (const auto it = cache_.find(pattern); it != cache_.end()) {
    return it->second;
  }
  core::VolumeOpts opts;
  opts.interleave = pattern;
  core::AnyVolume volume =
      core::make_volume(core::LayoutKind::kGMorton, config_.extents, opts);
  volume.copy_from(master_);
  Candidate c;
  c.pattern = pattern;
  if (config_.fitness == "sampled-mrc") {
    // Cheap signal: SHARDS-sampled reuse distances only — no cache model.
    // Fitness is the estimated miss count at the scaled platform's last
    // private level, i.e. the sampled MRC read at the capacity whose
    // escapes the memsim fitness charges memory latency for.
    const memsim::CacheConfig& last_private = platform_.private_levels.back();
    locality::LocalityConfig lconfig;
    lconfig.exact = false;
    lconfig.sampled = true;
    lconfig.threads = config_.threads;
    lconfig.line_bytes = last_private.line_bytes;
    lconfig.extra_line_capacities = {last_private.size_bytes};
    locality::LocalityProfiler profiler(std::move(lconfig));
    locality::replay_workload(volume, workload_of(config_), profiler);
    const std::uint64_t misses = profiler.miss_estimate(last_private.size_bytes);
    c.fitness = static_cast<double>(misses);
    c.escapes = misses;
  } else {
    memsim::Hierarchy hierarchy(platform_, config_.threads);
    locality::replay_workload(volume, workload_of(config_), hierarchy);
    c.fitness = static_cast<double>(hierarchy.modeled_cycles_max());
    c.escapes = hierarchy.counter(kEscapeCounter);
  }
  return cache_.emplace(pattern, std::move(c)).first->second;
}

TunerResult search(const TunerConfig& config,
                   const std::function<void(const std::string&)>& progress) {
  FitnessEvaluator fitness(config);
  verify::SplitMix64 rng(config.seed * 0x9e3779b97f4a7c15ULL + 1);

  // Seed population: the classic degenerate family members first (the
  // search must never do worse than the best canonical layout), then
  // random permutations up to `population`.
  const core::Extents3D& e = config.extents;
  std::vector<std::string> seeds = {
      core::InterleavePattern::canonical(e).str(),
      core::InterleavePattern::array_order(e).str(),
      core::InterleavePattern::tiled(e, 8, 8, 8).str(),
      core::InterleavePattern::tiled(e, 4, 4, 4).str(),
  };
  std::vector<Candidate> population;
  auto add = [&](const std::string& pattern) {
    for (const Candidate& c : population) {
      if (c.pattern == pattern) {
        return;
      }
    }
    population.push_back(fitness.evaluate(pattern));
  };
  for (const std::string& s : seeds) {
    add(s);
  }
  while (population.size() < config.population) {
    add(random_pattern(e, rng));
  }
  auto by_fitness = [](const Candidate& a, const Candidate& b) {
    return a.fitness != b.fitness ? a.fitness < b.fitness : a.pattern < b.pattern;
  };
  std::sort(population.begin(), population.end(), by_fitness);

  TunerResult result;
  result.canonical_z = fitness.evaluate(seeds[0]);
  result.best_canonical = result.canonical_z;
  for (std::size_t s = 1; s < seeds.size(); ++s) {
    const Candidate& c = fitness.evaluate(seeds[s]);
    if (c.fitness < result.best_canonical.fitness) {
      result.best_canonical = c;
    }
  }

  const std::uint32_t mu = std::max<std::uint32_t>(1, config.survivors);
  for (std::uint32_t gen = 0; gen < config.generations; ++gen) {
    // mu elites survive; children are mutated copies of random elites
    // (1-3 swaps, biased toward small moves near convergence).
    std::vector<Candidate> next(population.begin(),
                                population.begin() +
                                    std::min<std::size_t>(mu, population.size()));
    auto contains = [&](const std::string& pattern) {
      return std::any_of(next.begin(), next.end(), [&](const Candidate& c) {
        return c.pattern == pattern;
      });
    };
    unsigned stale = 0;
    while (next.size() < config.population && stale < 4 * config.population) {
      std::string child = next[rng.below(std::min<std::size_t>(mu, next.size()))].pattern;
      mutate(child, rng, 1 + static_cast<unsigned>(rng.below(3)));
      if (contains(child)) {
        ++stale;
        continue;
      }
      next.push_back(fitness.evaluate(child));
    }
    std::sort(next.begin(), next.end(), by_fitness);
    population = std::move(next);
    result.generation_best.push_back(population.front());
    if (progress) {
      progress("gen " + std::to_string(gen + 1) + "/" +
               std::to_string(config.generations) + ": best \"" +
               population.front().pattern + "\" fitness " +
               std::to_string(population.front().fitness) + " (" +
               std::to_string(fitness.evaluations()) + " evals)");
    }
  }

  result.best = population.front();
  result.evaluations = fitness.evaluations();
  return result;
}

TunerResult quick_search(const std::string& kernel, const core::Extents3D& extents) {
  TunerConfig config;
  config.kernel = kernel;
  config.extents = extents;
  config.population = 10;
  config.survivors = 3;
  config.generations = 5;
  config.trace_items = 48;
  config.trace_image = 24;
  config.seed = 7;
  return search(config);
}

double measure_wallclock(const TunerConfig& config, core::LayoutKind kind,
                         const std::string& interleave, unsigned threads, unsigned reps) {
  core::VolumeOpts opts;
  opts.interleave = interleave;
  core::AnyVolume volume = core::make_volume(kind, config.extents, opts);
  locality::fill_workload_volume(volume, config.kernel);
  exec::ExecutionContext ctx(threads);
  if (config.kernel == "bilateral") {
    core::ArrayVolume dst(config.extents);
    return bench_util::min_time_of(reps, [&] {
      filters::bilateral_parallel(volume, dst, locality::workload_bilateral_params(), ctx);
    });
  }
  const render::Camera camera = locality::workload_raycast_camera(config.extents);
  const auto tf = render::TransferFunction::flame();
  // Wall-clock validation renders a real image (4x the traced edge, at
  // least 64) so the measurement is not dominated by setup.
  const std::uint32_t image = std::max<std::uint32_t>(64, config.trace_image * 4);
  const render::RenderConfig rc = locality::workload_raycast_config(image);
  return bench_util::min_time_of(reps, [&] {
    (void)render::raycast_parallel(volume, camera, tf, rc, ctx);
  });
}

exec::TunedLayout to_registry_entry(const TunerConfig& config, const TunerResult& result) {
  exec::TunedLayout entry;
  entry.kernel = config.kernel;
  entry.shape = exec::shape_key(config.extents);
  entry.platform = config.platform_name;
  entry.interleave = result.best.pattern;
  entry.fitness = result.best.fitness;
  entry.baseline_fitness = result.canonical_z.fitness;
  entry.generations = config.generations;
  entry.seed = config.seed;
  entry.note = config.fitness + " " + config.platform_name + "/" +
               std::to_string(config.cache_scale) + "x-scaled, " +
               std::to_string(config.threads) + " modeled threads, " +
               std::to_string(result.evaluations) + " evaluations";
  return entry;
}

}  // namespace sfcvis::tuner
