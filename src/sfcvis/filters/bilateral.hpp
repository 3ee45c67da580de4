// 3D bilateral filter (paper Sec. III-A).
//
// The output voxel D(i) is the normalized, weighted average of its
// (2r+1)^3 stencil neighbourhood, where the weight of neighbour i-bar is
// the product of
//   g(i, i-bar) = exp(-1/2 (d_spatial / sigma_s)^2)   — geometric term, and
//   c(i, i-bar) = exp(-1/2 (|S(i)-S(i-bar)| / sigma_r)^2) — photometric term
// (Tomasi & Manduchi 1998, Eqs. 1-3 of the paper). The geometric term is
// precomputed per stencil offset; the photometric term is data-dependent
// and evaluated per sample, which is what makes the bilateral filter more
// expensive than a plain convolution and gives it its edge-preserving
// behaviour.
//
// Parallelization follows the paper: the volume is decomposed into
// "pencils" (voxel rows along a configurable axis) handed to threads in
// round-robin fashion; the stencil iteration order is configurable so the
// against-the-grain configurations of Fig. 2/3 (pz zyx) can be reproduced.
//
// Kernels are templated on a core::ReadView3D so one implementation serves
// native timed runs (PlainView) and simulated-counter runs (TracedView).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/simd.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/kernels_common.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::filters {

/// Bilateral filter configuration. Stencil is (2*radius+1)^3; the paper's
/// r1/r3/r5 labels correspond to radius 1, 3, 5 (3^3, 7^3, 11^3 stencils).
struct BilateralParams {
  unsigned radius = 1;
  float sigma_spatial = 1.5f;  ///< geometric falloff, in voxels
  float sigma_range = 0.1f;    ///< photometric falloff, in intensity units
  PencilAxis pencil = PencilAxis::kX;
  LoopOrder order = LoopOrder::kXYZ;
  /// Sliding-window gather fast path (bilateral_parallel only): stencil
  /// planes are gathered once into contiguous per-worker scratch and the
  /// tap loops run dense. Off by default because traced counter runs need
  /// the per-voxel access stream the study measures (the gather reads
  /// storage past the view); bench/abl_stencil_gather quantifies the
  /// speedup.
  bool use_gather = false;
  /// Gather path only, picks one of its two tap loops. true: explicit SIMD
  /// over the scratch planes (core/simd.hpp, width simd::kNativeLanes,
  /// masked tails) with the vector fast_exp_neg as the photometric exp;
  /// lane-strided partial sums are reduced once per voxel, and output
  /// stays within 1e-5 of exact. false: the exact mode, a scalar loop with
  /// the exact kernels' per-tap arithmetic (bit-identical where the tap
  /// order matches, see bilateral_pencil_gather) — the reference the fast
  /// mode is checked against.
  bool fast_exp = true;
  /// No code reads the next two fields. They stay only because the
  /// end-to-end benchmark (bench/e2e/e2e.cpp) assigns them and changes
  /// only with the benchmark; delete them together with those assignments.
  bool use_range_lut = false;
  bool simd_taps = true;
};

/// Precomputed geometric weights for one stencil radius/sigma: the g(i,ibar)
/// table of the paper's Eq. 3, indexed by stencil offset.
class BilateralWeights {
 public:
  BilateralWeights(unsigned radius, float sigma_spatial);

  [[nodiscard]] unsigned radius() const noexcept { return radius_; }

  /// Weight of offset (dx, dy, dz), each in [-radius, radius].
  [[nodiscard]] float spatial(int dx, int dy, int dz) const noexcept {
    const auto width = static_cast<std::size_t>(2 * radius_ + 1);
    const auto ix = static_cast<std::size_t>(dx + static_cast<int>(radius_));
    const auto iy = static_cast<std::size_t>(dy + static_cast<int>(radius_));
    const auto iz = static_cast<std::size_t>(dz + static_cast<int>(radius_));
    return table_[ix + width * (iy + width * iz)];
  }

  /// Photometric weight c(i, ibar) for an intensity difference.
  [[nodiscard]] static float range(float diff, float inv_two_sigma_r_sq) noexcept {
    return std::exp(-diff * diff * inv_two_sigma_r_sq);
  }

 private:
  unsigned radius_;
  std::vector<float> table_;
};

/// Throws std::invalid_argument unless 1 / (2 sigma^2) is finite for both
/// of `params`' sigmas. Zero, NaN, and sigmas whose square underflows fail
/// that test; the centre tap would then compute 0 * inf = NaN and turn
/// every output voxel into NaN.
void validate_sigmas(const BilateralParams& params);

/// Number of pencils a volume decomposes into along `axis`.
[[nodiscard]] std::size_t pencil_count(const core::Extents3D& e, PencilAxis axis) noexcept;

/// Length of one pencil along `axis`.
[[nodiscard]] std::uint32_t pencil_length(const core::Extents3D& e, PencilAxis axis) noexcept;

/// Decomposes pencil index -> the two fixed coordinates; the voxel at
/// position t along the pencil is obtained via pencil_voxel().
struct PencilCoords {
  std::uint32_t a = 0, b = 0;
};
[[nodiscard]] PencilCoords pencil_coords(const core::Extents3D& e, PencilAxis axis,
                                         std::size_t pencil) noexcept;

/// (i, j, k) of position `t` along pencil `pc` on `axis`.
[[nodiscard]] core::Coord3D pencil_voxel(PencilAxis axis, PencilCoords pc,
                                         std::uint32_t t) noexcept;

// ---------------------------------------------------------------------------
// Kernel (header template: shared by native and traced drivers)
// ---------------------------------------------------------------------------

/// Filters a single voxel. Border handling: clamp-to-edge. kInterior
/// promises that every stencil tap is in bounds (each coordinate in
/// [r, n-1-r] on its axis), so neighbours index the view directly with no
/// per-tap clamp branches; tap order and arithmetic are the same either
/// way, so both variants give bit-identical results.
template <bool kInterior = false, core::ReadView3D View>
[[nodiscard]] float bilateral_voxel(const View& src, std::uint32_t i, std::uint32_t j,
                                    std::uint32_t k, const BilateralWeights& weights,
                                    float sigma_range, LoopOrder order) {
  const int r = static_cast<int>(weights.radius());
  const float inv2sr2 = 1.0f / (2.0f * sigma_range * sigma_range);
  const float center = src.at(i, j, k);
  float sum = 0.0f;
  float norm = 0.0f;

  // Keep `tap` free of nested lambdas: an immediately invoked one picking
  // the read made GCC 12 compile `tap` out of line, a call per tap.
  auto tap = [&](int dx, int dy, int dz) {
    float sample = 0.0f;
    if constexpr (kInterior) {
      sample = src.at(static_cast<std::uint32_t>(static_cast<int>(i) + dx),
                      static_cast<std::uint32_t>(static_cast<int>(j) + dy),
                      static_cast<std::uint32_t>(static_cast<int>(k) + dz));
    } else {
      sample = src.at_clamped(static_cast<std::int64_t>(i) + dx,
                              static_cast<std::int64_t>(j) + dy,
                              static_cast<std::int64_t>(k) + dz);
    }
    const float w = weights.spatial(dx, dy, dz) *
                    BilateralWeights::range(sample - center, inv2sr2);
    sum += w * sample;
    norm += w;
  };

  if (order == LoopOrder::kXYZ) {
    for (int dz = -r; dz <= r; ++dz) {
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          tap(dx, dy, dz);
        }
      }
    }
  } else {  // zyx: innermost loop walks z, against the array-order grain
    for (int dx = -r; dx <= r; ++dx) {
      for (int dy = -r; dy <= r; ++dy) {
        for (int dz = -r; dz <= r; ++dz) {
          tap(dx, dy, dz);
        }
      }
    }
  }
  // norm >= spatial(0,0,0) * range(0) > 0 always: the center tap.
  return sum / norm;
}

/// Filters every voxel of one pencil into `dst` (array-order output).
///
/// Pencils whose two fixed coordinates sit at least `radius` away from
/// their borders split into three segments: clamped heads/tails of
/// `radius` voxels each, and a branch-free interior that takes
/// bilateral_voxel's kInterior variant. Border pencils (and pencils
/// shorter than one full stencil) stay on the clamped kernel throughout.
/// Output is bit-identical either way.
template <core::ReadView3D View>
void bilateral_pencil(const View& src, core::ArrayVolume& dst,
                      const BilateralWeights& weights, const BilateralParams& params,
                      std::size_t pencil) {
  const auto& e = src.extents();
  const PencilCoords pc = pencil_coords(e, params.pencil, pencil);
  const std::uint32_t len = pencil_length(e, params.pencil);
  const std::uint32_t r = weights.radius();

  // Extents of the two fixed axes (the varying axis is bounded by `len`).
  std::uint32_t na = 0, nb = 0;
  switch (params.pencil) {
    case PencilAxis::kX: na = e.ny; nb = e.nz; break;
    case PencilAxis::kY: na = e.nx; nb = e.nz; break;
    case PencilAxis::kZ: na = e.nx; nb = e.ny; break;
  }
  const bool fixed_interior = pc.a >= r && pc.a + r < na && pc.b >= r && pc.b + r < nb;
  const std::uint32_t interior_begin = fixed_interior && len > 2 * r ? r : len;
  const std::uint32_t interior_end = fixed_interior && len > 2 * r ? len - r : len;

  // Axis dispatch hoisted out of the hot loops: the pencil's voxel at t is
  // v0 + t * unit(axis), so the per-voxel switch inside pencil_voxel never
  // runs per tap-loop iteration. Coordinates (and therefore output and
  // traced access streams) are identical to calling pencil_voxel(t).
  const core::Coord3D v0 = pencil_voxel(params.pencil, pc, 0);
  const std::uint32_t di = params.pencil == PencilAxis::kX ? 1u : 0u;
  const std::uint32_t dj = params.pencil == PencilAxis::kY ? 1u : 0u;
  const std::uint32_t dk = params.pencil == PencilAxis::kZ ? 1u : 0u;

  const auto clamped_run = [&](std::uint32_t t0, std::uint32_t t1) {
    for (std::uint32_t t = t0; t < t1; ++t) {
      const core::Coord3D v{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
      dst.at(v.i, v.j, v.k) =
          bilateral_voxel(src, v.i, v.j, v.k, weights, params.sigma_range, params.order);
    }
  };
  clamped_run(0, interior_begin);
  for (std::uint32_t t = interior_begin; t < interior_end; ++t) {
    const core::Coord3D v{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
    dst.at(v.i, v.j, v.k) = bilateral_voxel<true>(src, v.i, v.j, v.k, weights,
                                                  params.sigma_range, params.order);
  }
  clamped_run(interior_end, len);
}

// ---------------------------------------------------------------------------
// Sliding-window gather fast path
// ---------------------------------------------------------------------------
// As the pencil advances one voxel, the (2r+1)^3 stencil footprint changes
// by exactly one (2r+1)^2 plane, so a ring of W = 2r+1 contiguous scratch
// planes turns W^3 layout lookups per voxel into one W^2 plane gather —
// amortizing index cost by ~1/W — and the tap loops run over dense
// unit-stride rows. The plane gathers are the only layout-aware step
// (core/gather.hpp: memcpy rows on array order, one index() per element
// elsewhere).

/// Per-worker scratch of the gather fast path; allocate once per parallel
/// region (threads::parallel_for_static_state), reuse across pencils.
struct BilateralGatherScratch {
  /// Sizes the ring for `weights`' radius and permutes the spatial table
  /// to [dp][du][dv] for `axis` so the innermost tap loop walks both the
  /// samples and the weights with unit stride.
  void prepare(const BilateralWeights& weights, PencilAxis axis);

  std::uint32_t width = 0;       ///< W = 2r + 1
  std::uint32_t plane_size = 0;  ///< W * W
  std::vector<float> ring;   ///< W planes of W*W samples, plane s in slot (s + r) % W
  std::vector<float> wperm;  ///< spatial weights permuted to [dp][du][dv]
};

namespace detail {

/// Explicit-SIMD tap loops over one voxel's W ring planes (the fast_exp
/// mode of bilateral_pencil_gather); stencil plane dpi sits in ring slot
/// (first + dpi) % W. One vector accumulator pair is carried across all
/// planes and reduced once; tails load via masked lanes whose weight slice
/// reads exactly 0, so a masked lane contributes +0 to both sums —
/// processing the tail wide is arithmetically identical to processing only
/// the valid lanes. The photometric term is the vector fast_exp_neg
/// (lane-exact twin of the scalar one).
[[nodiscard]] inline std::pair<float, float> simd_tap_planes(
    const float* ring, const float* wperm, std::uint32_t first, std::uint32_t W,
    std::uint32_t plane_sz, float center, float inv2sr2) {
  constexpr int N = simd::kNativeLanes;
  using VF = simd::vfloat<N>;
  const VF v_center = VF::broadcast(center);
  const VF v_inv2sr2 = VF::broadcast(inv2sr2);
  VF v_sum = VF::zero();
  VF v_norm = VF::zero();
  const auto taps = [&](VF sample, VF wspatial) {
    const VF d = sample - v_center;
    const VF w = wspatial * simd::fast_exp_neg(d * d * v_inv2sr2);
    v_sum = v_sum + w * sample;
    v_norm = v_norm + w;
  };
  std::uint32_t slot = first;
  for (std::uint32_t dpi = 0; dpi < W; ++dpi) {
    const float* plane = ring + slot * plane_sz;
    const float* wplane = wperm + dpi * plane_sz;
    slot = slot + 1 == W ? 0 : slot + 1;
    std::uint32_t q = 0;
    for (; q + N <= plane_sz; q += N) {
      taps(VF::loadu(plane + q), VF::loadu(wplane + q));
    }
    if (q < plane_sz) {
      const int tail = static_cast<int>(plane_sz - q);
      taps(VF::loadu_masked(plane + q, tail), VF::loadu_masked(wplane + q, tail));
    }
  }
  return {simd::reduce_add(v_sum), simd::reduce_add(v_norm)};
}

}  // namespace detail

/// Gather-based bilateral_pencil: every voxel of the pencil runs through
/// the ring. The ring holds clamp-to-edge planes — each coordinate clamped
/// on its own axis, as at_clamped does — so a voxel near a face reads
/// exactly the samples the per-voxel kernel reads, and border pencils,
/// pencils shorter than the stencil and each pencil's first and last r
/// voxels need no fallback. Tap order is plane-major ([dp][du][dv]); with
/// params.fast_exp off the arithmetic per tap matches the exact kernels',
/// so output is bit-identical to bilateral_reference for (pz, xyz) and to
/// bilateral_voxel's zyx order for (px, zyx) at every voxel; other
/// configurations differ only by float reassociation of the tap sum (well
/// under the 1e-5 test tolerance).
template <core::VolumeBackend VolT>
void bilateral_pencil_gather(const VolT& src, core::ArrayVolume& dst,
                             const BilateralWeights& weights,
                             const BilateralParams& params, std::size_t pencil,
                             BilateralGatherScratch& scratch) {
  const auto& e = src.extents();
  const PencilCoords pc = pencil_coords(e, params.pencil, pencil);
  const std::uint32_t len = pencil_length(e, params.pencil);
  const std::uint32_t r = weights.radius();
  const std::uint32_t W = scratch.width;
  const std::uint32_t plane_sz = scratch.plane_size;

  // A plane's rows run along v (z for x-pencils, x otherwise); du walks u,
  // the pencil's other fixed axis.
  std::uint32_t u = 0, nu = 0, v = 0, nv = 0;
  switch (params.pencil) {
    case PencilAxis::kX: u = pc.a; nu = e.ny; v = pc.b; nv = e.nz; break;
    case PencilAxis::kY: u = pc.b; nu = e.nz; v = pc.a; nv = e.nx; break;
    case PencilAxis::kZ: u = pc.b; nu = e.ny; v = pc.a; nv = e.nx; break;
  }
  const auto clamp_to = [](std::int64_t c, std::uint32_t n) {
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(c, 0, std::int64_t{n} - 1));
  };
  // Every row gathers its in-range part [v_lo, v_lo + n_in) to offset
  // `head` (n_in >= 1: it holds v itself); when the stencil crosses a face
  // the clamped ends repeat the edge samples.
  const std::int64_t u_start = std::int64_t{u} - r;
  const std::int64_t v_start = std::int64_t{v} - r;
  const std::uint32_t v_lo = clamp_to(v_start, nv);
  const std::uint32_t n_in = clamp_to(v_start + 2 * r, nv) - v_lo + 1;
  const auto head = static_cast<std::uint32_t>(v_lo - v_start);

  // Takes the shifted position q = s + r of plane s, s in [-r, len - 1 + r],
  // so the plane's slot q % W is never negative.
  const auto gather_plane = [&](std::uint32_t q) {
    const std::uint32_t p = clamp_to(std::int64_t{q} - r, len);
    float* plane = scratch.ring.data() + (q % W) * plane_sz;
    for (std::uint32_t du = 0; du < W; ++du) {
      const std::uint32_t uc = clamp_to(u_start + du, nu);
      float* row = plane + du * W;
      switch (params.pencil) {
        case PencilAxis::kX:  // plane spans (y, z): rows along z
          core::gather_row(src, core::Axis3::kZ, p, uc, v_lo, n_in, row + head);
          break;
        case PencilAxis::kY:  // plane spans (z, x): rows along x
          core::gather_row(src, core::Axis3::kX, v_lo, p, uc, n_in, row + head);
          break;
        case PencilAxis::kZ:  // plane spans (y, x): rows along x
          core::gather_row(src, core::Axis3::kX, v_lo, uc, p, n_in, row + head);
          break;
      }
      if (n_in < W) {
        std::fill(row, row + head, row[head]);
        std::fill(row + head + n_in, row + W, row[head + n_in - 1]);
      }
    }
  };
  for (std::uint32_t q = 0; q < 2 * r; ++q) {
    gather_plane(q);
  }

  const core::Coord3D v0 = pencil_voxel(params.pencil, pc, 0);
  const std::uint32_t di = params.pencil == PencilAxis::kX ? 1u : 0u;
  const std::uint32_t dj = params.pencil == PencilAxis::kY ? 1u : 0u;
  const std::uint32_t dk = params.pencil == PencilAxis::kZ ? 1u : 0u;
  const float inv2sr2 = 1.0f / (2.0f * params.sigma_range * params.sigma_range);
  const float* ring = scratch.ring.data();
  const float* wperm = scratch.wperm.data();
  for (std::uint32_t t = 0; t < len; ++t) {
    gather_plane(t + 2 * r);
    // Voxel t's stencil is planes t - r .. t + r, in slots t .. t + 2r
    // (mod W); the voxel itself is the middle sample of plane t.
    const std::uint32_t first = t % W;
    const std::uint32_t mid = first + r < W ? first + r : first + r - W;
    const float center = ring[mid * plane_sz + plane_sz / 2];
    float sum = 0.0f;
    float norm = 0.0f;
    if (params.fast_exp) {
      std::tie(sum, norm) =
          detail::simd_tap_planes(ring, wperm, first, W, plane_sz, center, inv2sr2);
    } else {
      // Exact: the same per-tap expressions as bilateral_voxel. Scratch
      // planes and their weight slices are both contiguous, so [du][dv]
      // collapses to one flat loop per plane in unchanged tap order.
      std::uint32_t slot = first;
      for (std::uint32_t dpi = 0; dpi < W; ++dpi) {
        const float* plane = ring + slot * plane_sz;
        const float* wplane = wperm + dpi * plane_sz;
        slot = slot + 1 == W ? 0 : slot + 1;
        for (std::uint32_t q = 0; q < plane_sz; ++q) {
          const float sample = plane[q];
          const float w = wplane[q] * BilateralWeights::range(sample - center, inv2sr2);
          sum += w * sample;
          norm += w;
        }
      }
    }
    const core::Coord3D c{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
    dst.at(c.i, c.j, c.k) = sum / norm;
  }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Serial reference implementation (array-order input, xyz order); the
/// oracle the test suite checks every configuration against.
void bilateral_reference(const core::ArrayVolume& src, core::ArrayVolume& dst,
                         unsigned radius, float sigma_spatial, float sigma_range);

/// Builds the pencil-decomposed bilateral job. The job's closures
/// reference `src`/`dst`, which must outlive its run; the weights are
/// built here (decomposition/prep happens in the builder, not per tile).
/// `views` makes each worker's read view (see core::ReadViews); the
/// gather path reads storage directly and only takes the native factory.
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob bilateral_job(const VolT& src, core::ArrayVolume& dst,
                                            const BilateralParams& params, Views views = {}) {
  validate_sigmas(params);
  auto weights =
      std::make_shared<const BilateralWeights>(params.radius, params.sigma_spatial);
  const std::size_t pencils = pencil_count(src.extents(), params.pencil);
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  if (params.use_gather) {
    detail::require_native_views<Views>("bilateral_job");
    return detail::make_state_job(
        "bilateral", pencils,
        [weights, params](unsigned) {
          BilateralGatherScratch scratch;
          scratch.prepare(*weights, params.pencil);
          return scratch;
        },
        [src_p, dst_p, weights, params](BilateralGatherScratch& scratch, std::size_t pencil,
                                        unsigned) {
          SFCVIS_TRACE_SPAN("bilateral.pencil", "gather", pencil);
          bilateral_pencil_gather(*src_p, *dst_p, *weights, params, pencil, scratch);
        },
        "bilateral.parallel", "gather");
  }
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "bilateral", pencils,
      [src_p, views](unsigned tid) { return views(*src_p, tid); },
      [dst_p, weights, params](const auto& view, std::size_t pencil, unsigned) {
        SFCVIS_TRACE_SPAN("bilateral.pencil", "exact", pencil);
        bilateral_pencil(view, *dst_p, *weights, params, pencil);
      },
      "bilateral.parallel", "exact");
}

/// Shared-memory parallel bilateral filter: pencils are statically
/// assigned to the context's workers (paper Sec. III-A). Works with any
/// source layout. With params.use_gather the pencils run the
/// sliding-window gather fast path on per-worker scratch sized once per
/// parallel region.
template <core::VolumeBackend VolT>
void bilateral_parallel(const VolT& src, core::ArrayVolume& dst,
                        const BilateralParams& params, exec::ExecutionContext& ctx) {
  detail::run_job(ctx, bilateral_job(src, dst, params));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void bilateral_parallel(const core::AnyVolume& src, core::ArrayVolume& dst,
                               const BilateralParams& params, exec::ExecutionContext& ctx) {
  src.visit([&](const auto& grid) { bilateral_parallel(grid, dst, params, ctx); });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob bilateral_job(const core::AnyVolume& src, core::ArrayVolume& dst,
                                            const BilateralParams& params, Views views = {}) {
  return src.visit([&](const auto& grid) { return bilateral_job(grid, dst, params, views); });
}

namespace detail {

/// Invokes fn(i, j, k) for every logical voxel of `e` whose padded-curve
/// index lies in [begin, end), in curve (storage) order, decoding through
/// the canonical (Z-order) `tables`.
template <class Fn>
void zsweep_range(const core::GMortonTables& tables, const core::Extents3D& e,
                  std::size_t begin, std::size_t end, Fn&& fn) {
  for (std::size_t idx = begin; idx < end; ++idx) {
    const core::Coord3D c = tables.decode(idx);
    if (e.contains(c.i, c.j, c.k)) {
      fn(c.i, c.j, c.k);
    }
  }
}

}  // namespace detail

/// Curve-order sweep: processes voxels in Z-curve order instead of
/// pencils, partitioning the curve into `num_chunks` contiguous ranges
/// handed to threads round-robin. With a Z-order source layout the sweep
/// visits storage in monotonically increasing order — the traversal the
/// layout is optimal for. This is the "traversal matched to layout"
/// extension the paper's related work (Bader 2013) describes for matrix
/// codes; bench/abl_traversal quantifies it for the bilateral filter. A
/// replay context chunks by its logical worker count, so a traced replay
/// sweeps exactly the native run's chunks.
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob bilateral_zsweep_job(const VolT& src, core::ArrayVolume& dst,
                                                   const BilateralParams& params,
                                                   const exec::ExecutionContext& ctx,
                                                   Views views = {}) {
  validate_sigmas(params);
  auto weights =
      std::make_shared<const BilateralWeights>(params.radius, params.sigma_spatial);
  const core::Extents3D e = src.extents();

  // Chunks are contiguous ranges of the *padded* curve index space, decoded
  // on the fly — the former materialized 12-byte/voxel order vector (1.6 GB
  // of peak RSS at 512^3) is gone; padded positions decode-and-skip. Each
  // work item is still a compact curve brick. The chunk decomposition is
  // the context's (curve_chunks scales by the padding ratio so the
  // *logical* voxels per chunk stays at roughly size / (threads * 8) even
  // when much of the padded curve is holes — 48^3 pads to 64^3: 58%
  // padding).
  auto tables = std::make_shared<const core::GMortonTables>(
      e, core::InterleavePattern::canonical(e));
  const std::size_t cap = tables->capacity();
  const std::size_t num_chunks = ctx.curve_chunks(e.size(), cap);
  const std::size_t chunk_len = (cap + num_chunks - 1) / num_chunks;
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "bilateral.zsweep", num_chunks,
      [src_p, views](unsigned tid) { return views(*src_p, tid); },
      [dst_p, weights, tables, params, e, cap, chunk_len](
          const auto& view, std::size_t chunk, unsigned) {
        SFCVIS_TRACE_SPAN("bilateral.zsweep.chunk", nullptr, chunk);
        const std::size_t begin = chunk * chunk_len;
        const std::size_t end = std::min(cap, begin + chunk_len);
        detail::zsweep_range(*tables, e, std::min(begin, end), end,
                             [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
                               dst_p->at(i, j, k) =
                                   bilateral_voxel(view, i, j, k, *weights,
                                                   params.sigma_range, params.order);
                             });
      },
      "bilateral.zsweep");
}

/// Curve-order sweep driver (see bilateral_zsweep_job for the chunking).
template <core::VolumeBackend VolT>
void bilateral_zsweep(const VolT& src, core::ArrayVolume& dst,
                      const BilateralParams& params, exec::ExecutionContext& ctx) {
  detail::run_job(ctx, bilateral_zsweep_job(src, dst, params, ctx));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void bilateral_zsweep(const core::AnyVolume& src, core::ArrayVolume& dst,
                             const BilateralParams& params, exec::ExecutionContext& ctx) {
  src.visit([&](const auto& grid) { bilateral_zsweep(grid, dst, params, ctx); });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob bilateral_zsweep_job(const core::AnyVolume& src,
                                                   core::ArrayVolume& dst,
                                                   const BilateralParams& params,
                                                   const exec::ExecutionContext& ctx,
                                                   Views views = {}) {
  return src.visit(
      [&](const auto& grid) { return bilateral_zsweep_job(grid, dst, params, ctx, views); });
}

}  // namespace sfcvis::filters
