// Ablation B: cost of computing a Z-order index, across codec strategies.
//
// The paper's method (Sec. III-C) equalizes index cost between layouts via
// per-axis tables (three loads + two adds/ORs). This microbenchmark puts
// that choice in context against magic-bits, byte-LUT, and (when compiled
// in) BMI2 PDEP codecs, the closed-form array-order computation, and the
// Hilbert codec whose cost Reissmann et al. 2014 found to cancel its
// locality gains.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "sfcvis/core/hilbert.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"

namespace {

using namespace sfcvis;

constexpr std::uint32_t kN = 512;  // the paper's volume edge

std::vector<core::Coord3D> random_coords(std::size_t count) {
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::uint32_t> dist(0, kN - 1);
  std::vector<core::Coord3D> coords(count);
  for (auto& c : coords) {
    c = {dist(rng), dist(rng), dist(rng)};
  }
  return coords;
}

const std::vector<core::Coord3D>& coords() {
  static const auto c = random_coords(4096);
  return c;
}

void BM_ArrayOrderClosedForm(benchmark::State& state) {
  const core::ArrayOrderLayout layout(core::Extents3D::cube(kN));
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(layout.index(c.i, c.j, c.k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_ArrayOrderClosedForm);

void BM_MortonMagicBits(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(core::morton_encode_3d(c.i, c.j, c.k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_MortonMagicBits);

void BM_MortonByteLut(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(core::morton_encode_3d_lut(c.i, c.j, c.k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_MortonByteLut);

#if defined(__BMI2__)
void BM_MortonBmi2(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(core::morton_encode_3d_bmi2(c.i, c.j, c.k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_MortonBmi2);
#endif

void BM_ZOrderAxisTables(benchmark::State& state) {
  // The paper's scheme: precomputed per-axis tables, combined with adds.
  const core::GeneralizedMortonLayout layout(core::Extents3D::cube(kN));
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(layout.index(c.i, c.j, c.k));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_ZOrderAxisTables);

void BM_HilbertEncode(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(core::hilbert_encode_3d(c.i, c.j, c.k, 9));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_HilbertEncode);

void BM_MortonDecodeMagicBits(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& c : coords()) {
      benchmark::DoNotOptimize(core::morton_decode_3d(core::morton_encode_3d(c.i, c.j, c.k)));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_MortonDecodeMagicBits);

void BM_MortonNeighborStep(benchmark::State& state) {
  // Incrementing one axis directly on the interleaved form vs decode +
  // re-encode: the win stencil sweeps on the Z-curve rely on.
  std::uint64_t m = core::morton_encode_3d(5, 6, 7);
  for (auto _ : state) {
    for (std::size_t s = 0; s < coords().size(); ++s) {
      m = core::morton_inc_x(m);
      benchmark::DoNotOptimize(m);
    }
    m = core::morton_encode_3d(5, 6, 7);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(coords().size()));
}
BENCHMARK(BM_MortonNeighborStep);

}  // namespace

BENCHMARK_MAIN();
