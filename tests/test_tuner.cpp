// Tuned-layout pipeline: the registry JSON round-trip, the parser's error
// handling, ExecutionContext::resolve_layout's hit/fallback contract, and
// the evolutionary search's determinism and elitism guarantees on a tiny
// deterministic configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/exec/layout_registry.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;
using core::Extents3D;
using exec::LayoutRegistry;
using exec::TunedLayout;

TunedLayout sample_entry() {
  TunedLayout e;
  e.kernel = "bilateral";
  e.shape = "16x16x16";
  e.platform = "ivybridge";
  e.interleave = "zyxzyxzzyyxx";
  e.fitness = 1000.0;
  e.baseline_fitness = 1200.0;
  e.generations = 8;
  e.seed = 1;
  e.note = "unit test";
  return e;
}

/// RAII temp file under the build tree's scratch space.
struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const char* name)
      : path(std::filesystem::temp_directory_path() /
             (std::string("sfcvis_tuner_test_") + name)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(ShapeKey, FormatsExtents) {
  EXPECT_EQ(exec::shape_key({256, 256, 256}), "256x256x256");
  EXPECT_EQ(exec::shape_key({20, 7, 5}), "20x7x5");
}

TEST(LayoutRegistry, JsonRoundTripPreservesEntries) {
  LayoutRegistry registry;
  registry.add(sample_entry());
  TunedLayout second = sample_entry();
  second.kernel = "raycast";
  second.platform = "any";
  second.interleave = "xxyyzzzyxzyx";
  second.note = "entry with a \"quoted\" note\nand a newline";
  registry.add(second);

  const LayoutRegistry parsed = LayoutRegistry::from_json(registry.to_json());
  ASSERT_EQ(parsed.size(), 2u);
  const TunedLayout* e = parsed.find("bilateral", "16x16x16");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->interleave, "zyxzyxzzyyxx");
  EXPECT_DOUBLE_EQ(e->fitness, 1000.0);
  EXPECT_DOUBLE_EQ(e->baseline_fitness, 1200.0);
  EXPECT_EQ(e->generations, 8u);
  EXPECT_EQ(e->seed, 1u);
  EXPECT_EQ(e->note, "unit test");
  const TunedLayout* r = parsed.find("raycast", "16x16x16");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->note, "entry with a \"quoted\" note\nand a newline");
}

TEST(LayoutRegistry, AddReplacesSameKey) {
  LayoutRegistry registry;
  registry.add(sample_entry());
  TunedLayout better = sample_entry();
  better.interleave = "xxyyzzzyxzyx";
  better.fitness = 900.0;
  registry.add(better);
  ASSERT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.find("bilateral", "16x16x16")->interleave, "xxyyzzzyxzyx");
}

TEST(LayoutRegistry, FindPrefersExactPlatformThenWildcard) {
  LayoutRegistry registry;
  TunedLayout generic = sample_entry();
  generic.platform = "any";
  generic.interleave = "zzzzyyyyxxxx";
  registry.add(generic);
  TunedLayout exact = sample_entry();
  exact.platform = "mic_knc";
  exact.interleave = "zyxzyxzzyyxx";
  registry.add(exact);

  EXPECT_EQ(registry.find("bilateral", "16x16x16", "mic_knc")->interleave,
            "zyxzyxzzyyxx");
  // Unknown platform falls back to the "any" wildcard entry.
  EXPECT_EQ(registry.find("bilateral", "16x16x16", "skylake")->interleave,
            "zzzzyyyyxxxx");
  // Empty platform accepts whatever is there.
  EXPECT_NE(registry.find("bilateral", "16x16x16"), nullptr);
  EXPECT_EQ(registry.find("bilateral", "32x32x32"), nullptr);
  EXPECT_EQ(registry.find("raycast", "16x16x16"), nullptr);
}

TEST(LayoutRegistry, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW((void)LayoutRegistry::from_json(""), std::runtime_error);
  EXPECT_THROW((void)LayoutRegistry::from_json("not json"), std::runtime_error);
  EXPECT_THROW((void)LayoutRegistry::from_json("{}"), std::runtime_error);
  EXPECT_THROW((void)LayoutRegistry::from_json(R"({"sfcvis_layout_registry":2,"entries":[]})"),
               std::runtime_error);
  // An entry missing a required key.
  EXPECT_THROW((void)LayoutRegistry::from_json(
                   R"({"sfcvis_layout_registry":1,"entries":[{"kernel":"bilateral"}]})"),
               std::runtime_error);
  // Trailing garbage after the document.
  EXPECT_THROW((void)LayoutRegistry::from_json(
                   R"({"sfcvis_layout_registry":1,"entries":[]} trailing)"),
               std::runtime_error);
}

TEST(LayoutRegistry, FromJsonSkipsUnknownKeys) {
  const LayoutRegistry parsed = LayoutRegistry::from_json(R"({
    "sfcvis_layout_registry": 1,
    "future_field": {"nested": [1, 2, {"deep": true}]},
    "entries": [{
      "kernel": "raycast", "shape": "8x8x8", "platform": "any",
      "interleave": "zyxzyxzyx", "someday": null, "extra": "ignored"
    }]
  })");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.find("raycast", "8x8x8")->interleave, "zyxzyxzyx");
}

TEST(LayoutRegistry, SaveLoadRoundTrip) {
  TempFile tmp("registry.json");
  LayoutRegistry registry;
  registry.add(sample_entry());
  registry.save(tmp.path.string());
  const LayoutRegistry loaded = LayoutRegistry::load(tmp.path.string());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.find("bilateral", "16x16x16")->interleave, "zyxzyxzzyyxx");
  EXPECT_THROW((void)LayoutRegistry::load("/nonexistent/sfcvis/registry.json"),
               std::runtime_error);
}

TEST(ExecutionContext, ResolveLayoutReturnsTunedEntry) {
  TempFile tmp("resolve.json");
  LayoutRegistry registry;
  registry.add(sample_entry());
  registry.save(tmp.path.string());

  exec::ExecOptions opts;
  opts.threads = 1;
  opts.layout_registry = tmp.path.string();
  exec::ExecutionContext ctx(opts);
  EXPECT_NE(ctx.layout_registry_note().find("loaded 1 tuned layout"), std::string::npos)
      << ctx.layout_registry_note();

  const exec::ResolvedLayout hit = ctx.resolve_layout("bilateral", {16, 16, 16});
  EXPECT_TRUE(hit.tuned);
  EXPECT_EQ(hit.kind, core::LayoutKind::kGMorton);
  EXPECT_EQ(hit.interleave, "zyxzyxzzyyxx");
  EXPECT_NE(hit.note.find("tuned layout for"), std::string::npos) << hit.note;

  // The resolved answer must build a working volume of the tuned layout.
  core::VolumeOpts vopts;
  vopts.interleave = hit.interleave;
  core::AnyVolume v = core::make_volume(hit.kind, {16, 16, 16}, vopts);
  EXPECT_EQ(v.kind(), core::LayoutKind::kGMorton);
  EXPECT_EQ(v.as<core::GeneralizedMortonLayout>().layout().pattern().str(),
            "zyxzyxzzyyxx");

  // A miss (different shape) falls back to canonical Z and says why.
  const exec::ResolvedLayout miss = ctx.resolve_layout("bilateral", {32, 32, 32});
  EXPECT_FALSE(miss.tuned);
  EXPECT_EQ(miss.kind, core::LayoutKind::kZOrder);
  EXPECT_TRUE(miss.interleave.empty());
  EXPECT_NE(miss.note.find("no tuned entry"), std::string::npos) << miss.note;
}

TEST(ExecutionContext, ResolveLayoutReportsMissingRegistry) {
  exec::ExecOptions opts;
  opts.threads = 1;
  opts.layout_registry = "/nonexistent/sfcvis/registry.json";
  exec::ExecutionContext ctx(opts);
  const exec::ResolvedLayout r = ctx.resolve_layout("bilateral", {16, 16, 16});
  EXPECT_FALSE(r.tuned);
  EXPECT_EQ(r.kind, core::LayoutKind::kZOrder);
  EXPECT_NE(ctx.layout_registry_note().find("unavailable"), std::string::npos)
      << ctx.layout_registry_note();
}

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

TEST(Tuner, SampledMrcFitnessIsDeterministicAndElitist) {
  // The SHARDS-sampled miss-ratio fitness: same search contract as memsim
  // (deterministic, elitist), different — much cheaper — signal. 16^3 so
  // the hash filter keeps enough lines for a meaningful miss count.
  tuner::TunerConfig config = tiny_config();
  config.extents = core::Extents3D::cube(16);
  config.fitness = "sampled-mrc";
  const tuner::TunerResult a = tuner::search(config);
  const tuner::TunerResult b = tuner::search(config);
  EXPECT_EQ(a.best.pattern, b.best.pattern);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_GT(a.best.fitness, 0.0);  // estimated misses, never zero here
  EXPECT_LE(a.best.fitness, a.canonical_z.fitness);
  EXPECT_LE(a.best.fitness, a.best_canonical.fitness);
  // The note records which signal produced the entry.
  const TunedLayout entry = tuner::to_registry_entry(config, a);
  EXPECT_NE(entry.note.find("sampled-mrc"), std::string::npos);
}

TEST(Tuner, RejectsUnknownFitnessSignal) {
  tuner::TunerConfig config = tiny_config();
  config.fitness = "wallclock";
  EXPECT_THROW((void)tuner::search(config), std::invalid_argument);
}

TEST(Tuner, RegistryEntryMatchesSearchResult) {
  const tuner::TunerConfig config = tiny_config();
  const tuner::TunerResult result = tuner::search(config);
  const TunedLayout entry = tuner::to_registry_entry(config, result);
  EXPECT_EQ(entry.kernel, "bilateral");
  EXPECT_EQ(entry.shape, "8x8x8");
  EXPECT_EQ(entry.platform, "ivybridge");
  EXPECT_EQ(entry.interleave, result.best.pattern);
  EXPECT_DOUBLE_EQ(entry.fitness, result.best.fitness);
  EXPECT_DOUBLE_EQ(entry.baseline_fitness, result.canonical_z.fitness);
  // The round trip the CLI performs: entry -> JSON -> ExecutionContext.
  LayoutRegistry registry;
  registry.add(entry);
  const LayoutRegistry parsed = LayoutRegistry::from_json(registry.to_json());
  ASSERT_NE(parsed.find("bilateral", "8x8x8"), nullptr);
  EXPECT_EQ(parsed.find("bilateral", "8x8x8")->interleave, result.best.pattern);
}

}  // namespace
