// Differential layout-oracle fuzzing (the verify subsystem's driver).
//
// One fuzz case = one seed. The seed deterministically generates a volume
// shape (power-of-two, non-power-of-two, or degenerate 1xNxM), contents,
// and a set of kernel configurations; every selected kernel then runs
// across all four layouts (array order, Z-order, tiled, Hilbert) and the
// results are checked through the DiffReport oracle:
//
//  * cross-layout: bit-identical, always — the paper's Sec. III-C claim
//    that layout is observationally transparent, now enforced on shapes
//    golden tests never visit (cf. Walker & Skjellum, arXiv:2307.07828,
//    on layout bugs at irregular shapes and block boundaries);
//  * acceleration structures (macrocell DDA on/off): bit-identical;
//  * explicit-SIMD paths — 4/8-wide ray packets against the scalar
//    traversal (bit-identical, dense and macrocell) and the bilateral
//    SIMD tap loops against their scalar twins (reassociation-only ulp
//    tier);
//  * approximate kernel modes (gather fast-exp, range LUT) against the
//    serial reference: the documented absolute tiers.
//
// run_metamorphic_case adds raycaster invariants that need no reference
// implementation at all: mirroring the volume and the camera about the
// x-midplane must mirror the image (within a geometry tier — mirrored
// float arithmetic agrees only to rounding), and macrocell skipping must
// be an identity at every orbit viewpoint.
//
// Everything is reproducible from (seed, quick flag) alone; the committed
// CI gate runs seeds [0, N) and any failing seed is a standalone repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/verify/diff.hpp"
#include "sfcvis/verify/rng.hpp"

namespace sfcvis::verify {

/// Knobs of the fuzz driver (not part of the seed: changing them changes
/// which cases a seed generates).
struct FuzzOptions {
  /// Small shapes and configs (CI budget); full mode (nightly) draws
  /// larger volumes, bigger radii, and more configurations per seed.
  bool quick = true;
};

/// Outcome of one fuzz case: every comparison that ran, failures first.
struct FuzzSummary {
  std::uint64_t seed = 0;
  core::Extents3D extents{};
  std::string description;  ///< shape + kernel configs the seed generated
  unsigned checks = 0;      ///< oracle comparisons performed
  std::vector<DiffReport> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// A uniformly random valid interleave string for `e`: Fisher-Yates over the
/// canonical multiset, so per-axis bit counts are preserved by construction.
/// The fuzzer draws every case's gmorton pattern with it.
[[nodiscard]] std::string random_interleave(const core::Extents3D& e, SplitMix64& rng);

/// Runs one differential fuzz case: kernels x layouts x modes on a
/// seed-generated volume.
[[nodiscard]] FuzzSummary run_fuzz_case(std::uint64_t seed, const FuzzOptions& opts);

/// Runs one metamorphic raycaster case: the mirror-flip invariant between
/// the paper's aligned viewpoints (0 and 4) plus macrocell on/off
/// bit-identity at every orbit viewpoint.
[[nodiscard]] FuzzSummary run_metamorphic_case(std::uint64_t seed, const FuzzOptions& opts);

}  // namespace sfcvis::verify
