// Layout tuner: the evolutionary search's determinism and elitism
// guarantees on a tiny deterministic configuration, and the fitness
// evaluator's memoization and input validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;
using core::Extents3D;

// --------------------------------------------------------------------------
// Search sanity on a deliberately tiny configuration: one pencil batch of
// bilateral on an 8^3 volume, 2 generations. Slow enough to mean something,
// fast enough for ctest.
// --------------------------------------------------------------------------

tuner::TunerConfig tiny_config() {
  tuner::TunerConfig config;
  config.kernel = "bilateral";
  config.extents = Extents3D::cube(8);
  config.trace_items = 16;
  config.population = 6;
  config.survivors = 2;
  config.generations = 2;
  config.seed = 3;
  return config;
}

TEST(Tuner, SearchIsDeterministicAndElitist) {
  const tuner::TunerResult a = tuner::search(tiny_config());
  const tuner::TunerResult b = tuner::search(tiny_config());
  EXPECT_EQ(a.best.pattern, b.best.pattern);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);

  // Elitist selection: the winner can never be worse than any canonical
  // seed (they are all in the initial population).
  EXPECT_LE(a.best.fitness, a.canonical_z.fitness);
  EXPECT_LE(a.best.fitness, a.best_canonical.fitness);
  EXPECT_LE(a.best_canonical.fitness, a.canonical_z.fitness);
  ASSERT_EQ(a.generation_best.size(), 2u);
  // Per-generation bests are monotonically non-increasing.
  EXPECT_LE(a.generation_best[1].fitness, a.generation_best[0].fitness);

  // The winner is a valid pattern for the shape (throws otherwise).
  EXPECT_NO_THROW((void)core::InterleavePattern(a.best.pattern, tiny_config().extents));
}

TEST(Tuner, EvaluatorMemoizesAndRejectsUnknownKernel) {
  tuner::TunerConfig config = tiny_config();
  tuner::FitnessEvaluator fitness(config);
  const std::string canon = core::InterleavePattern::canonical(config.extents).str();
  const tuner::Candidate& first = fitness.evaluate(canon);
  const double cycles = first.fitness;
  EXPECT_GT(cycles, 0.0);
  EXPECT_EQ(fitness.evaluations(), 1u);
  const tuner::Candidate& again = fitness.evaluate(canon);
  EXPECT_DOUBLE_EQ(again.fitness, cycles);
  EXPECT_EQ(fitness.evaluations(), 1u);  // memoized, not re-traced

  config.kernel = "sobel";
  EXPECT_THROW((void)tuner::FitnessEvaluator(config), std::invalid_argument);
}

}  // namespace
