// Ablation J: the memory-locality observatory.
//
// Answers *why* a layout wins with numbers the perf gate can pin: exact
// reuse-distance profiles of the against-the-grain bilateral replay per
// layout, folded into miss-ratio curves at the pinned capacity ladder,
// cache-line utilization, and the exact-vs-SHARDS sampling error. Every
// cell is a pure function of (layout, kernel) — TracedView rebases
// addresses to a synthetic origin — so all tables are bit-stable and
// `sfcreport.py gate` gates them like the memsim tables.
//
//   abl_locality [--size=N] [--trace-items=N] [--threads-model=N]
//                [--sample-log2=K] [--quick] [--csv-dir=...] [--report-out=...]
//
// The gm-tuned row uses the tuner's deterministic quick search, so this
// bench also demonstrates the observatory explaining a tuned layout.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sfcvis/locality/profile.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;

/// Miss ratio at one pinned capacity; throws if the point is missing so a
/// ladder change can never silently shift the gated columns.
double miss_at(const trace::LocalityGranularity& g, std::uint64_t capacity_bytes) {
  for (const trace::LocalityMissPoint& p : g.mrc) {
    if (p.capacity_bytes == capacity_bytes) {
      return p.miss_ratio;
    }
  }
  throw std::runtime_error("abl_locality: capacity missing from the pinned MRC ladder");
}

/// Max |exact - sampled| miss-ratio over the shared capacity ladder.
double shards_error(const trace::LocalityProfile& p) {
  double worst = 0.0;
  for (const trace::LocalityMissPoint& exact : p.line.mrc) {
    for (const trace::LocalityMissPoint& sampled : p.sampled.mrc) {
      if (sampled.capacity_bytes == exact.capacity_bytes) {
        worst = std::max(worst, std::abs(exact.miss_ratio - sampled.miss_ratio));
      }
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 32 : 64);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 48 : 64);
  const unsigned threads_model = opts.get_u32("threads-model", 4);
  const std::uint32_t sample_log2 = opts.get_u32("sample-log2", 6);
  bench::TraceSession session(opts);

  const core::Extents3D extents = core::Extents3D::cube(size);
  std::printf("== Ablation J: memory-locality observatory ==\n");
  std::printf("volume: %u^3 float  |  kernel: bilateral (against-the-grain replay, "
              "%zu pencils, %u modeled threads)  |  SHARDS rate 1/%llu\n\n",
              size, trace_items, threads_model,
              static_cast<unsigned long long>(1ull << sample_log2));

  // The tuned row: same deterministic quick search the tuner smoke runs.
  const tuner::TunerResult tuned = tuner::quick_search("bilateral", extents);
  std::printf("gm-tuned pattern (quick search): \"%s\"\n\n", tuned.best.pattern.c_str());

  const std::vector<std::pair<std::string, std::string>> layouts = {
      {"array-order", "array-order"},
      {"z-order", "z-order"},
      {"tiled 8", "tiled"},
      {"gm-tuned", "gmorton:" + tuned.best.pattern},
  };
  const std::vector<std::pair<std::string, std::uint64_t>> capacities = {
      {"4KB", 4ull << 10},   {"32KB", 32ull << 10}, {"256KB", 256ull << 10},
      {"2MB", 2ull << 20},   {"16MB", 16ull << 20},
  };

  std::vector<std::string> row_labels;
  std::vector<std::string> mrc_cols;
  for (const auto& [label, spec] : layouts) {
    (void)spec;
    row_labels.push_back(label);
  }
  for (const auto& [label, bytes] : capacities) {
    (void)bytes;
    mrc_cols.push_back(label);
  }
  bench_util::ResultTable mrc("Exact line miss-ratio curve (64B lines, LRU model)",
                              row_labels, mrc_cols);
  bench_util::ResultTable util("Cache-line utilization", row_labels,
                               {"bytes-used/fetched"});
  bench_util::ResultTable shards("SHARDS sampling error", row_labels,
                                 {"max |exact-sampled|"});
  bench_util::ResultTable ws("Working set & cold misses", row_labels,
                             {"distinct lines", "distinct pages", "cold misses"});

  locality::WorkloadConfig workload;
  workload.kernel = "bilateral";
  workload.threads = threads_model;
  workload.trace_items = trace_items;
  locality::LocalityConfig lconfig;
  lconfig.sample_rate_log2 = sample_log2;

  for (std::size_t row = 0; row < layouts.size(); ++row) {
    const core::LayoutSpec spec = core::parse_layout_spec(layouts[row].second);
    core::VolumeOpts vopts;
    vopts.interleave = spec.interleave;
    core::AnyVolume volume = core::make_volume(spec.kind, extents, vopts);
    locality::fill_workload_volume(volume, workload.kernel);
    trace::LocalityProfile profile =
        locality::profile_workload(volume, layouts[row].second, workload, lconfig);
    for (std::size_t col = 0; col < capacities.size(); ++col) {
      mrc.set(row, col, miss_at(profile.line, capacities[col].second));
    }
    util.set(row, 0, profile.line.utilization);
    shards.set(row, 0, shards_error(profile));
    ws.set(row, 0, static_cast<double>(profile.line.distinct));
    ws.set(row, 1, static_cast<double>(profile.page.distinct));
    ws.set(row, 2, static_cast<double>(profile.line.cold));
    locality::publish_profile(std::move(profile));
  }

  bench::emit_table(mrc, opts, "abl_locality_mrc.csv", 4);
  bench::emit_table(util, opts, "abl_locality_util.csv", 4);
  bench::emit_table(shards, opts, "abl_locality_shards_err.csv", 4);
  bench::emit_table(ws, opts, "abl_locality_ws.csv", 0);
  return 0;
}
