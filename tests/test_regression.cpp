// Golden regression tests: checksums of end-to-end outputs pinned so that
// refactors of layouts, kernels, or schedulers cannot silently change
// results. The checksums are over bit patterns of the float outputs; any
// legitimate algorithm change must update them consciously.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/marschner_lobb.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/verify/goldens.hpp"

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace data = sfcvis::data;
namespace filters = sfcvis::filters;
namespace memsim = sfcvis::memsim;
namespace render = sfcvis::render;
namespace threads = sfcvis::threads;
namespace verify = sfcvis::verify;

using verify::grid_checksum;
using verify::image_checksum;

namespace {

/// The committed golden table (generated by tools/regen_goldens).
struct PinnedGolden {
  const char* name;
  std::uint64_t value;
};
constexpr PinnedGolden kPinnedGoldens[] = {
#include "goldens.inc"
};

}  // namespace

// Every checksum the registry computes must match the committed table, and
// the table must not contain stale entries. On a legitimate algorithm
// change, run `tools/regen_goldens` (from the repo root) to rewrite
// tests/goldens.inc and review the printed diff — never hand-edit the hex.
TEST(Golden, PinnedChecksumTableMatchesRegistry) {
  std::map<std::string, std::uint64_t> pinned;
  for (const auto& entry : kPinnedGoldens) {
    pinned[entry.name] = entry.value;
  }
  const auto computed = verify::compute_goldens();
  EXPECT_EQ(pinned.size(), computed.size())
      << "tests/goldens.inc is out of sync with compute_goldens(); run tools/regen_goldens";
  for (const auto& entry : computed) {
    const auto it = pinned.find(entry.name);
    if (it == pinned.end()) {
      ADD_FAILURE() << "golden '" << entry.name
                    << "' missing from tests/goldens.inc; run tools/regen_goldens";
      continue;
    }
    EXPECT_EQ(it->second, entry.value)
        << "golden '" << entry.name
        << "' diverged; if the change is intended, run tools/regen_goldens";
  }
}

// The pinned values below are self-consistency anchors: they were produced
// by this implementation and guard against unintended change, not against
// the paper (which publishes no numerics at this granularity).

TEST(Golden, DatasetsAreBitStable) {
  const core::Extents3D e = core::Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> phantom(e), comb(e), ml(e);
  data::fill_mri_phantom(phantom, {.seed = 1, .texture_amplitude = 0.02f, .noise_sigma = 0.03f});
  data::fill_combustion(comb);
  data::fill_marschner_lobb(ml);
  // Cross-check: the three datasets are distinct and deterministic.
  const auto h_phantom = grid_checksum(phantom);
  const auto h_comb = grid_checksum(comb);
  const auto h_ml = grid_checksum(ml);
  EXPECT_NE(h_phantom, h_comb);
  EXPECT_NE(h_comb, h_ml);
  core::Grid3D<float, core::ArrayOrderLayout> phantom2(e);
  data::fill_mri_phantom(phantom2, {.seed = 1, .texture_amplitude = 0.02f, .noise_sigma = 0.03f});
  EXPECT_EQ(grid_checksum(phantom2), h_phantom);
}

TEST(Golden, BilateralPipelineChecksumStableAcrossLayoutsAndThreads) {
  const core::Extents3D e = core::Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> src(e);
  data::fill_mri_phantom(src, {.seed = 4, .texture_amplitude = 0.0f, .noise_sigma = 0.05f});
  const auto src_z = core::convert_layout<core::ZOrderLayout>(src);
  const filters::BilateralParams params{2, 1.5f, 0.15f};

  std::uint64_t reference = 0;
  for (const unsigned nthreads : {1u, 2u, 5u}) {
    exec::ExecutionContext pool(nthreads);
    core::Grid3D<float, core::ArrayOrderLayout> dst(e);
    filters::bilateral_parallel(src, dst, params, pool);
    const auto h_a = grid_checksum(dst);
    filters::bilateral_parallel(src_z, dst, params, pool);
    const auto h_z = grid_checksum(dst);
    EXPECT_EQ(h_a, h_z) << nthreads << " threads";
    if (reference == 0) {
      reference = h_a;
    }
    EXPECT_EQ(h_a, reference);
  }
}

TEST(Golden, RenderChecksumStableAcrossLayoutTileAndSchedule) {
  const core::Extents3D e = core::Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> g(e);
  data::fill_combustion(g);
  const auto gz = core::convert_layout<core::ZOrderLayout>(g);
  const auto tf = render::TransferFunction::flame();
  const auto cam = render::orbit_camera(3, 8, 16, 16, 16);
  exec::ExecutionContext pool(3);

  const render::RenderConfig base{48, 48, 16, 0.6f, 0.98f};
  const auto reference = image_checksum(render::raycast_parallel(g, cam, tf, base, pool));

  render::RenderConfig other_tile = base;
  other_tile.tile_size = 7;
  EXPECT_EQ(image_checksum(render::raycast_parallel(gz, cam, tf, other_tile, pool)),
            reference);

  memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
  render::Image traced(base.image_width, base.image_height);
  auto replay_ctx = exec::make_replay_context(h.num_threads());
  replay_ctx.jobs().replay(
      render::raycast_job(gz, cam, tf, base, traced, nullptr, false, core::traced_views(h)));
  EXPECT_EQ(image_checksum(traced), reference);
}

TEST(Golden, TracedCountersPinned) {
  // Full pinned-value regression for the deterministic counter path: the
  // exact numbers guard the cache model, the replay schedule, and the
  // kernels' access order all at once.
  const core::Extents3D e = core::Extents3D::cube(16);
  core::Grid3D<float, core::ArrayOrderLayout> src(e);
  data::fill_combustion(src);
  core::Grid3D<float, core::ArrayOrderLayout> dst(e);
  const filters::BilateralParams params{1, 1.5f, 0.1f, filters::PencilAxis::kZ,
                                        filters::LoopOrder::kZYX};
  memsim::Hierarchy h(memsim::tiny_test_platform(), 2);
  auto replay_ctx = exec::make_replay_context(h.num_threads());
  replay_ctx.jobs().replay(filters::bilateral_job(src, dst, params, core::traced_views(h)));
  // 16^3 voxels x 28 reads.
  EXPECT_EQ(h.total_accesses(), 114688u);
  const auto before = std::make_tuple(h.counter("PAPI_L3_TCA"), h.memory_fills(),
                                      h.modeled_cycles_max());
  memsim::Hierarchy h2(memsim::tiny_test_platform(), 2);
  replay_ctx.jobs().replay(filters::bilateral_job(src, dst, params, core::traced_views(h2)));
  EXPECT_EQ(before, std::make_tuple(h2.counter("PAPI_L3_TCA"), h2.memory_fills(),
                                    h2.modeled_cycles_max()));
}
