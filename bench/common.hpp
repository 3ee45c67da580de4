// Shared harness code for the per-figure bench binaries.
//
// Every binary accepts the same core knobs:
//   --size=N          volume edge length (default per figure; paper: 512)
//   --threads=a,b,c   concurrency sweep (defaults match the paper's)
//   --reps=N          timing repetitions (min-of-N)
//   --cache-scale=N   divide modeled cache capacities by N (see DESIGN.md:
//                     keeps the paper's cache:working-set ratio at small
//                     volume sizes)
//   --trace-items=N   replay prefix length for counter runs
//   --csv-dir=PATH    also write each table as CSV
//   --quick           shrink everything for a smoke run
//   --trace           enable span tracing for the whole run
//   --trace-out=PATH  write a Chrome trace-event JSON (Perfetto-loadable);
//                     implies --trace
//   --report-out=PATH write the machine-readable run report JSON (consumed
//                     by tools/sfcreport.py, whose `gate` reads every gated
//                     table from it); implies --trace
//
// Output: the same tables as the paper's figures — scaled relative
// differences (Eq. 4), positive = Z-order better.
#pragma once

#include <cstdio>
#include <optional>
#include <string>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/bench_util/stats.hpp"
#include "sfcvis/bench_util/table.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/perfmon/perf_events.hpp"
#include "sfcvis/trace/export.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::bench {

/// Scoped tracing for one bench run: construct after parsing options,
/// and span recording is on for the binary's lifetime whenever --trace,
/// --trace-out or --report-out was given. All mechanics live in
/// exec::TraceSession; this subclass only adds the command-line plumbing.
/// Tables passed through emit_table while a session is active ride along
/// in the run report. A no-op when none of the tracing options are present.
class TraceSession : public exec::TraceSession {
 public:
  explicit TraceSession(const bench_util::Options& opts)
      : exec::TraceSession(opts.get_string("trace-out", ""),
                           opts.get_string("report-out", ""), opts.get_flag("trace")) {}
};

/// A pair of identical-content volumes in the two layouts under study,
/// behind the runtime facade.
struct VolumePair {
  core::AnyVolume array;
  core::AnyVolume z;
};

/// MRI-phantom pair (bilateral-filter input; stands in for the paper's
/// UC Davis MRI dataset).
inline VolumePair make_mri_pair(std::uint32_t size) {
  const core::Extents3D e = core::Extents3D::cube(size);
  VolumePair pair{core::make_volume(core::LayoutKind::kArray, e),
                  core::make_volume(core::LayoutKind::kZOrder, e)};
  pair.array.visit([](auto& grid) { data::fill_mri_phantom(grid); });
  pair.z.copy_from(pair.array);
  return pair;
}

/// Combustion-field pair (raycaster input; stands in for the paper's
/// combustion-simulation dataset).
inline VolumePair make_combustion_pair(std::uint32_t size) {
  const core::Extents3D e = core::Extents3D::cube(size);
  VolumePair pair{core::make_volume(core::LayoutKind::kArray, e),
                  core::make_volume(core::LayoutKind::kZOrder, e)};
  pair.array.visit([](auto& grid) { data::fill_combustion(grid); });
  pair.z.copy_from(pair.array);
  return pair;
}

/// Prints one figure table and optionally mirrors it to CSV.
inline void emit_table(const bench_util::ResultTable& table,
                       const bench_util::Options& opts, const std::string& csv_name,
                       int precision = 2) {
  std::fputs(table.to_text(precision).c_str(), stdout);
  std::fputs("\n", stdout);
  const std::string dir = opts.get_string("csv-dir", "");
  if (!dir.empty()) {
    table.write_csv(std::filesystem::path(dir) / csv_name);
    std::printf("  [csv] %s/%s\n\n", dir.c_str(), csv_name.c_str());
  }
  if (exec::TraceSession* session = exec::TraceSession::current()) {
    trace::ReportTable rt;
    rt.name = std::filesystem::path(csv_name).stem().string();
    rt.title = table.title();
    rt.rows = table.row_labels();
    rt.cols = table.col_labels();
    rt.cells.resize(table.rows());
    for (std::size_t r = 0; r < table.rows(); ++r) {
      rt.cells[r].resize(table.cols());
      for (std::size_t c = 0; c < table.cols(); ++c) {
        rt.cells[r][c] = table.at(r, c);
      }
    }
    session->add_table(std::move(rt));
  }
}

/// Standard preamble: echoes the effective configuration and whether
/// hardware counters are available. The tables use memsim counters either
/// way; a live PMU adds per-span counter deltas to the run report.
inline void print_preamble(const char* figure, std::uint32_t size,
                           const memsim::PlatformSpec& spec) {
  std::printf("== %s ==\n", figure);
  std::printf("volume: %u^3 float  |  modeled platform: %s (", size, spec.name.c_str());
  for (std::size_t l = 0; l < spec.private_levels.size(); ++l) {
    std::printf("%s%s %lluKB", l ? ", " : "", spec.private_levels[l].name.c_str(),
                static_cast<unsigned long long>(spec.private_levels[l].size_bytes / 1024));
  }
  if (spec.shared_llc) {
    std::printf(", shared %s %lluKB", spec.shared_llc->name.c_str(),
                static_cast<unsigned long long>(spec.shared_llc->size_bytes / 1024));
  }
  std::printf(")\n");
  std::printf("hardware counters: %s\n\n",
              perfmon::PerfCounter::available()
                  ? "available (per-span deltas in --report-out; tables use memsim)"
                  : "unavailable here; using memsim counters (see DESIGN.md)");
}

}  // namespace sfcvis::bench
