// Ablation C: Z-order vs the other layouts the literature compares
// against — array order (control), tiled/blocked (Pascucci & Frank's "3D
// blocking"), Hilbert (Reissmann et al. 2014) — plus the generalized-Morton
// family (Swatman et al. 2023): its canonical member (must match Z-order
// bit-for-bit in cost) and the auto-tuner's winner for each workload.
//
// Two workloads, both in their against-the-grain configuration where
// layout matters most:
//   * bilateral r3, pz pencils, zyx order;
//   * volume rendering at orbit viewpoint 2 (rays along z).
// Reported per layout: modeled memory-stall cycles and private-stack
// escapes, normalized to array order (value < 1 = better than array
// order), plus the native wall time, which for Hilbert includes its
// per-access index cost — the trade-off Reissmann et al. observed.
//
// The tuned row's interleave comes from, in order of precedence:
//   --tuned=<pattern>     an explicit interleave (both workloads);
//   --registry=<path>     ExecutionContext::resolve_layout() against a
//                         tuned-layout registry (tools/layout_tuner output);
//   otherwise             a deterministic tuner::quick_search per workload.
// A fourth table, abl_layout_tuned_cycles.csv, restates the tuned row's
// memsim columns against canonical Z-order — fully deterministic, so
// tools/bench_gate.py gates it ("lower": the tuned layout must keep
// beating, or at least matching, canonical Z on modeled cost).
#include "common.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;

struct Metrics {
  double native_seconds = 0;
  double modeled_cycles = 0;
  double escapes = 0;
};

Metrics measure_bilateral(const core::AnyVolume& volume,
                          const memsim::PlatformSpec& platform, unsigned nthreads,
                          std::size_t trace_items, unsigned reps) {
  const filters::BilateralParams params{3, 1.5f, 0.1f, filters::PencilAxis::kZ,
                                        filters::LoopOrder::kZYX};
  core::ArrayVolume dst(volume.extents());
  exec::ExecutionContext pool(nthreads);
  Metrics m;
  m.native_seconds = bench_util::min_time_of(
      reps, [&] { filters::bilateral_parallel(volume, dst, params, pool); });
  memsim::Hierarchy hierarchy(platform, nthreads);
  auto replay_ctx = exec::make_replay_context(hierarchy.num_threads());
  replay_ctx.jobs().replay(
      filters::bilateral_job(volume, dst, params, core::traced_views(hierarchy)), trace_items);
  m.modeled_cycles = static_cast<double>(hierarchy.modeled_cycles_max());
  m.escapes = static_cast<double>(hierarchy.counter("L2_DATA_READ_MISS_MEM_FILL"));
  return m;
}

Metrics measure_volrend(const core::AnyVolume& volume,
                        const memsim::PlatformSpec& platform, unsigned nthreads,
                        std::uint32_t image, std::uint32_t trace_image, unsigned reps) {
  const auto tf = render::TransferFunction::flame();
  const auto fsize = static_cast<float>(volume.extents().nx);
  const auto camera = render::orbit_camera(2, 8, fsize, fsize, fsize);
  exec::ExecutionContext pool(nthreads);
  Metrics m;
  const render::RenderConfig native_config{image, image, 32, 0.5f, 0.98f};
  m.native_seconds = bench_util::min_time_of(reps, [&] {
    (void)render::raycast_parallel(volume, camera, tf, native_config, pool);
  });
  const render::RenderConfig trace_config{trace_image, trace_image, 16, 0.5f, 0.98f};
  memsim::Hierarchy hierarchy(platform, nthreads);
  render::Image traced(trace_config.image_width, trace_config.image_height);
  auto replay_ctx = exec::make_replay_context(hierarchy.num_threads());
  replay_ctx.jobs().replay(render::raycast_job(volume, camera, tf, trace_config, traced, nullptr,
                                               false, core::traced_views(hierarchy)));
  m.modeled_cycles = static_cast<double>(hierarchy.modeled_cycles_max());
  m.escapes = static_cast<double>(hierarchy.counter("L2_DATA_READ_MISS_MEM_FILL"));
  return m;
}

void emit(const char* workload, const std::vector<std::pair<std::string, Metrics>>& results,
          const bench_util::Options& opts, const std::string& csv) {
  bench_util::ResultTable table(
      std::string(workload) + "  [normalized to array-order; < 1.00 = better]",
      {"native runtime", "modeled cycles", "L2 escapes"},
      [&] {
        std::vector<std::string> labels;
        for (const auto& r : results) {
          labels.push_back(r.first);
        }
        return labels;
      }());
  const Metrics& base = results.front().second;
  for (std::size_t c = 0; c < results.size(); ++c) {
    table.set(0, c, results[c].second.native_seconds / base.native_seconds);
    table.set(1, c, results[c].second.modeled_cycles / base.modeled_cycles);
    table.set(2, c, results[c].second.escapes / base.escapes);
  }
  sfcvis::bench::emit_table(table, opts, csv);
}

/// The interleave pattern the tuned row uses for `kernel`, with a
/// provenance line for the log. Precedence: --tuned, --registry (through
/// ExecutionContext::resolve_layout, reporting its fallback note when the
/// registry has no matching entry), deterministic quick_search.
std::string tuned_pattern(const std::string& kernel, const core::Extents3D& e,
                          const bench_util::Options& opts) {
  const std::string explicit_pattern = opts.get_string("tuned", "");
  if (!explicit_pattern.empty()) {
    std::printf("tuned[%s]: \"%s\" (--tuned)\n", kernel.c_str(),
                explicit_pattern.c_str());
    return explicit_pattern;
  }
  const std::string registry = opts.get_string("registry", "");
  if (!registry.empty()) {
    exec::ExecOptions eo;
    eo.threads = 1;
    eo.layout_registry = registry;
    exec::ExecutionContext ctx(eo);
    const exec::ResolvedLayout resolved = ctx.resolve_layout(kernel, e);
    std::printf("tuned[%s]: %s\n", kernel.c_str(), resolved.note.c_str());
    if (resolved.tuned) {
      return resolved.interleave;
    }
    // Fall through to the deterministic search when the registry misses.
  }
  const tuner::TunerResult r = tuner::quick_search(kernel, e);
  std::printf("tuned[%s]: \"%s\" (quick_search, fitness %.0f vs canonical %.0f)\n",
              kernel.c_str(), r.best.pattern.c_str(), r.best.fitness,
              r.canonical_z.fitness);
  return r.best.pattern;
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  const sfcvis::bench::TraceSession trace_session(opts);
  const bool quick = opts.get_flag("quick");
  const std::uint32_t size = opts.get_u32("size", quick ? 24 : 48);
  const unsigned nthreads = opts.get_u32("threads", 4);
  const unsigned reps = opts.get_u32("reps", 1);
  const std::uint32_t cache_scale = opts.get_u32("cache-scale", 16);
  const std::size_t trace_items = opts.get_u32("trace-items", quick ? 64 : 256);
  const std::uint32_t image = opts.get_u32("image", quick ? 48 : 128);
  const std::uint32_t trace_image = opts.get_u32("trace-image", quick ? 32 : 64);

  const auto platform = memsim::scaled(memsim::ivybridge(), cache_scale);
  sfcvis::bench::print_preamble(
      "Ablation C: layout comparison (A / Z / tiled / Hilbert / tuned gmorton)", size,
      platform);

  const core::Extents3D e = core::Extents3D::cube(size);
  const std::string tuned_bilateral = tuned_pattern("bilateral", e, opts);
  const std::string tuned_volrend = tuned_pattern("raycast", e, opts);
  std::printf("\n");

  core::VolumeOpts tuned_opts;
  core::AnyVolume mri_a = core::make_volume(core::LayoutKind::kArray, e);
  mri_a.visit([](auto& g) { data::fill_mri_phantom(g); });
  const auto mri_z = mri_a.convert_to(core::LayoutKind::kZOrder);
  const auto mri_t = mri_a.convert_to(core::LayoutKind::kTiled);
  const auto mri_h = mri_a.convert_to(core::LayoutKind::kHilbert);
  const auto mri_g = mri_a.convert_to(core::LayoutKind::kGMorton);  // canonical
  tuned_opts.interleave = tuned_bilateral;
  const auto mri_tuned = mri_a.convert_to(core::LayoutKind::kGMorton, tuned_opts);

  const Metrics bi_z = measure_bilateral(mri_z, platform, nthreads, trace_items, reps);
  const Metrics bi_tuned =
      measure_bilateral(mri_tuned, platform, nthreads, trace_items, reps);
  emit("bilateral r3 pz zyx",
       {{"array", measure_bilateral(mri_a, platform, nthreads, trace_items, reps)},
        {"z-order", bi_z},
        {"tiled 8^3", measure_bilateral(mri_t, platform, nthreads, trace_items, reps)},
        {"hilbert", measure_bilateral(mri_h, platform, nthreads, trace_items, reps)},
        {"gmorton canon", measure_bilateral(mri_g, platform, nthreads, trace_items, reps)},
        {"gmorton tuned", bi_tuned}},
       opts, "abl_layout_bilateral.csv");

  core::AnyVolume comb_a = core::make_volume(core::LayoutKind::kArray, e);
  comb_a.visit([](auto& g) { data::fill_combustion(g); });
  const auto comb_z = comb_a.convert_to(core::LayoutKind::kZOrder);
  const auto comb_t = comb_a.convert_to(core::LayoutKind::kTiled);
  const auto comb_h = comb_a.convert_to(core::LayoutKind::kHilbert);
  const auto comb_g = comb_a.convert_to(core::LayoutKind::kGMorton);  // canonical
  tuned_opts.interleave = tuned_volrend;
  const auto comb_tuned = comb_a.convert_to(core::LayoutKind::kGMorton, tuned_opts);

  const Metrics vr_z = measure_volrend(comb_z, platform, nthreads, image, trace_image, reps);
  const Metrics vr_tuned =
      measure_volrend(comb_tuned, platform, nthreads, image, trace_image, reps);
  emit("volrend viewpoint 2",
       {{"array", measure_volrend(comb_a, platform, nthreads, image, trace_image, reps)},
        {"z-order", vr_z},
        {"tiled 8^3", measure_volrend(comb_t, platform, nthreads, image, trace_image, reps)},
        {"hilbert", measure_volrend(comb_h, platform, nthreads, image, trace_image, reps)},
        {"gmorton canon", measure_volrend(comb_g, platform, nthreads, image, trace_image, reps)},
        {"gmorton tuned", vr_tuned}},
       opts, "abl_layout_volrend.csv");

  // Deterministic gate table: the tuned layout against canonical Z-order on
  // the memsim columns only (wall clock never gates). Both cells per row
  // should stay <= ~1.0; bench_gate.py fails the build if either drifts up
  // past the threshold — i.e. if a code change makes the tuned layout stop
  // paying for itself.
  bench_util::ResultTable tuned_table(
      "tuned gmorton vs canonical z-order  [deterministic; < 1.00 = tuned wins]",
      {"bilateral", "volrend"}, {"modeled cycles", "L2 escapes"});
  tuned_table.set(0, 0, bi_tuned.modeled_cycles / bi_z.modeled_cycles);
  tuned_table.set(0, 1, bi_z.escapes > 0 ? bi_tuned.escapes / bi_z.escapes : 1.0);
  tuned_table.set(1, 0, vr_tuned.modeled_cycles / vr_z.modeled_cycles);
  tuned_table.set(1, 1, vr_z.escapes > 0 ? vr_tuned.escapes / vr_z.escapes : 1.0);
  sfcvis::bench::emit_table(tuned_table, opts, "abl_layout_tuned_cycles.csv");
  return 0;
}
