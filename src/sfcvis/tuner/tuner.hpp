// Evolutionary layout auto-tuner over the generalized-Morton family.
//
// Answers the paper's core question — "which memory layout makes this
// kernel fastest on this machine?" — per workload instead of globally, the
// way Swatman et al. (arXiv:2309.07002) search generalized Morton layouts
// with a genetic algorithm. The genome is the interleave string itself (a
// permutation of the padded shape's multiset of 'x'/'y'/'z' bit
// characters); mutation swaps two positions holding different characters,
// which preserves validity by construction.
//
// Fitness is the deterministic memsim replay (memsim::Hierarchy modeled
// stall cycles on a capped trace prefix) — cheap, machine-independent, and
// bit-reproducible, so CI can re-run a search and get the identical
// winner. The winner is named by its layout spec, "gmorton:<pattern>"
// (core::parse_layout_spec); tools/layout_tuner prints it and
// bench/abl_layout_compare --tuned=<pattern> times it on hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sfcvis/core/volume.hpp"
#include "sfcvis/memsim/platforms.hpp"

namespace sfcvis::tuner {

/// Everything one search run needs. The defaults match the CI smoke
/// configuration; tools/layout_tuner maps its flags onto this.
struct TunerConfig {
  std::string kernel = "bilateral";  ///< "bilateral" | "raycast"
  core::Extents3D extents = core::Extents3D::cube(32);
  std::string platform_name = "ivybridge";  ///< memsim::platform_by_name key
  std::uint32_t cache_scale = 16;  ///< memsim::scaled divisor (small volumes)
  unsigned threads = 4;            ///< modeled thread count for the replay
  std::size_t trace_items = 64;    ///< replay cap (pencils / tiles) per eval
  std::uint32_t trace_image = 32;  ///< raycast traced image edge
  std::uint32_t population = 12;   ///< lambda: candidates per generation
  std::uint32_t survivors = 4;     ///< mu: elites kept between generations
  std::uint32_t generations = 8;
  std::uint64_t seed = 1;  ///< SplitMix64 search seed (fully deterministic)
};

/// One evaluated interleave pattern.
struct Candidate {
  std::string pattern;
  double fitness = 0.0;  ///< modeled stall cycles; lower is better
  /// Reads the private stack could not serve: L2_DATA_READ_MISS_MEM_FILL.
  std::uint64_t escapes = 0;
};

/// Search outcome: the winner plus the canonical reference points the
/// acceptance criteria compare against.
struct TunerResult {
  Candidate best;
  Candidate canonical_z;              ///< canonical Z member, same evaluation
  Candidate best_canonical;           ///< best of {canonical Z, array, tiled 8/4}
  std::vector<Candidate> generation_best;  ///< per-generation winner trail
  std::size_t evaluations = 0;             ///< distinct patterns evaluated
};

/// Deterministic memsim fitness for one workload: owns the filled master
/// volume and memoizes per-pattern results so the search never pays for a
/// duplicate genome.
class FitnessEvaluator {
 public:
  explicit FitnessEvaluator(const TunerConfig& config);

  /// Modeled cost of running the configured kernel on a volume laid out
  /// with `pattern`. Memoized; identical calls are free.
  [[nodiscard]] const Candidate& evaluate(const std::string& pattern);

  [[nodiscard]] std::size_t evaluations() const noexcept { return cache_.size(); }
  [[nodiscard]] const TunerConfig& config() const noexcept { return config_; }

 private:
  TunerConfig config_;
  memsim::PlatformSpec platform_;
  core::AnyVolume master_;  ///< array-order, filled once; candidates copy from it
  std::map<std::string, Candidate> cache_;
};

/// Runs the (mu + lambda) evolutionary search. Seeded with the canonical,
/// array-order, and tiled family members plus random permutations;
/// deterministic for a fixed config. `progress` (optional) receives one
/// line per generation.
[[nodiscard]] TunerResult search(
    const TunerConfig& config,
    const std::function<void(const std::string&)>& progress = {});

/// A small deterministic search preset for benches and CI smoke: few
/// generations, capped trace, fixed seed. Same result every run.
[[nodiscard]] TunerResult quick_search(const std::string& kernel,
                                       const core::Extents3D& extents);

}  // namespace sfcvis::tuner
