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
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/simd.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/fastmath.hpp"
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
  /// tap loops run dense. Off by default so the paper-figure drivers and
  /// the traced counter runs keep the per-voxel access stream the study
  /// measures; bench/abl_stencil_gather quantifies the speedup.
  bool use_gather = false;
  /// Gather path only: evaluate the photometric exp with the vectorizable
  /// fast_exp_neg approximation (output within 1e-5 of exact). With
  /// fast_exp = false and use_range_lut = false the gather path performs
  /// tap arithmetic in the exact kernels' order — bit-identical output.
  bool fast_exp = true;
  /// Gather path only: replace the photometric exp with the quantized LUT
  /// in BilateralWeights (1024 bins, linear interpolation). Cheaper than
  /// fast_exp on hardware without SIMD exp throughput; looser error bound
  /// (see BilateralWeights::build_range_lut).
  bool use_range_lut = false;
  /// Gather path, fast_exp/LUT modes only: run the tap loops as explicit
  /// SIMD over the scratch planes (core/simd.hpp — width simd::kNativeLanes,
  /// masked tails, vector fast_exp_neg / LUT gathers) instead of relying on
  /// autovectorization of the `#pragma omp simd` loops. Per-tap arithmetic
  /// is unchanged; only the tap-sum accumulation order differs (lane-strided
  /// partial sums reduced once per voxel), which stays well inside the fast
  /// path's existing 1e-5 output tolerance. The exact mode ignores this knob
  /// — its bit-identity contract requires the scalar loop. Off leaves the
  /// autovectorized loops as the measured baseline (bench/abl_simd).
  bool simd_taps = true;
};

/// Precomputed geometric weights for one stencil radius/sigma: the g(i,ibar)
/// table of the paper's Eq. 3, indexed by stencil offset. Optionally also
/// carries the quantized photometric LUT of BilateralParams::use_range_lut.
class BilateralWeights {
 public:
  BilateralWeights(unsigned radius, float sigma_spatial);

  /// Builds weights for a full parameter set: spatial table always, range
  /// LUT when params.use_range_lut is set.
  explicit BilateralWeights(const BilateralParams& params);

  [[nodiscard]] unsigned radius() const noexcept { return radius_; }

  /// Weight of offset (dx, dy, dz), each in [-radius, radius].
  [[nodiscard]] float spatial(int dx, int dy, int dz) const noexcept {
    const auto width = static_cast<std::size_t>(2 * radius_ + 1);
    const auto ix = static_cast<std::size_t>(dx + static_cast<int>(radius_));
    const auto iy = static_cast<std::size_t>(dy + static_cast<int>(radius_));
    const auto iz = static_cast<std::size_t>(dz + static_cast<int>(radius_));
    return table_[ix + width * (iy + width * iz)];
  }

  /// Raw spatial table, offset (dx, dy, dz) -> ((dz+r)*W + (dy+r))*W + dx+r.
  [[nodiscard]] const std::vector<float>& spatial_table() const noexcept { return table_; }

  /// Photometric weight c(i, ibar) for an intensity difference.
  [[nodiscard]] static float range(float diff, float inv_two_sigma_r_sq) noexcept {
    return std::exp(-diff * diff * inv_two_sigma_r_sq);
  }

  /// Builds the quantized photometric LUT: exp(-u) sampled at `bins`+1
  /// points of u = diff^2 / (2 sigma_r^2) over [0, kRangeLutMaxU], linearly
  /// interpolated between samples and clamped to the tail value beyond.
  /// Worst-case weight error is the interpolation bound (du^2)/8 ~ 3.1e-5
  /// at 1024 bins plus the 1.1e-7 tail clamp; the output-level bound is
  /// pinned by tests/test_bilateral_gather.cpp.
  void build_range_lut(float sigma_range, unsigned bins = 1024);

  [[nodiscard]] bool has_range_lut() const noexcept { return !range_lut_.empty(); }

  /// LUT photometric weight; requires has_range_lut().
  [[nodiscard]] float range_lut(float diff) const noexcept {
    float x = diff * diff * lut_u_scale_;
    x = x > lut_max_x_ ? lut_max_x_ : x;
    const auto b = static_cast<std::uint32_t>(x);
    const float f = x - static_cast<float>(b);
    return range_lut_[b] + f * (range_lut_[b + 1] - range_lut_[b]);
  }

  /// Upper end of the quantized u = diff^2/(2 sigma_r^2) domain; weights
  /// beyond it clamp to exp(-kRangeLutMaxU) ~ 1.1e-7.
  static constexpr float kRangeLutMaxU = 16.0f;

  /// Raw LUT pieces for the explicit-SIMD tap loop (vector twin of
  /// range_lut(): clamp, truncate, two gathers, lerp). Require has_range_lut().
  [[nodiscard]] const float* range_lut_data() const noexcept { return range_lut_.data(); }
  [[nodiscard]] float range_lut_u_scale() const noexcept { return lut_u_scale_; }
  [[nodiscard]] float range_lut_max_x() const noexcept { return lut_max_x_; }

 private:
  unsigned radius_;
  std::vector<float> table_;
  std::vector<float> range_lut_;  ///< bins + 2 entries (interpolation pad)
  float lut_u_scale_ = 0.0f;      ///< (1 / (2 sigma_r^2)) * bins / kRangeLutMaxU
  float lut_max_x_ = 0.0f;        ///< bins, as float
};

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

/// Filters a single voxel. Border handling: clamp-to-edge.
template <core::ReadView3D View>
[[nodiscard]] float bilateral_voxel(const View& src, std::uint32_t i, std::uint32_t j,
                                    std::uint32_t k, const BilateralWeights& weights,
                                    float sigma_range, LoopOrder order) {
  const int r = static_cast<int>(weights.radius());
  const float inv2sr2 = 1.0f / (2.0f * sigma_range * sigma_range);
  const float center = src.at(i, j, k);
  float sum = 0.0f;
  float norm = 0.0f;

  auto tap = [&](int dx, int dy, int dz) {
    const float sample = src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                        static_cast<std::int64_t>(j) + dy,
                                        static_cast<std::int64_t>(k) + dz);
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

/// Interior variant of bilateral_voxel: every stencil tap is known to be
/// in bounds, so neighbours index the view directly — no per-tap clamp
/// branches. Tap order and arithmetic match bilateral_voxel exactly, so
/// the result is bit-identical; callers must guarantee the whole stencil
/// fits (each coordinate in [r, n-1-r] on its axis).
template <core::ReadView3D View>
[[nodiscard]] float bilateral_voxel_interior(const View& src, std::uint32_t i,
                                             std::uint32_t j, std::uint32_t k,
                                             const BilateralWeights& weights,
                                             float sigma_range, LoopOrder order) {
  const int r = static_cast<int>(weights.radius());
  const float inv2sr2 = 1.0f / (2.0f * sigma_range * sigma_range);
  const float center = src.at(i, j, k);
  float sum = 0.0f;
  float norm = 0.0f;

  auto tap = [&](int dx, int dy, int dz) {
    const float sample = src.at(static_cast<std::uint32_t>(static_cast<int>(i) + dx),
                                static_cast<std::uint32_t>(static_cast<int>(j) + dy),
                                static_cast<std::uint32_t>(static_cast<int>(k) + dz));
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
  } else {
    for (int dx = -r; dx <= r; ++dx) {
      for (int dy = -r; dy <= r; ++dy) {
        for (int dz = -r; dz <= r; ++dz) {
          tap(dx, dy, dz);
        }
      }
    }
  }
  return sum / norm;
}

/// Filters every voxel of one pencil into `dst` (array-order output).
///
/// Pencils whose two fixed coordinates sit at least `radius` away from
/// their borders split into three segments: clamped heads/tails of
/// `radius` voxels each, and a branch-free interior that takes the
/// bilateral_voxel_interior fast path. Border pencils (and pencils
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
    dst.at(v.i, v.j, v.k) = bilateral_voxel_interior(src, v.i, v.j, v.k, weights,
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
// unit-stride rows the compiler can vectorize. The plane gathers are the
// only layout-aware step (core/gather.hpp: memcpy rows on array order,
// incremental Morton stepping with run copies on Z-order).

/// Per-worker scratch of the gather fast path; allocate once per parallel
/// region (threads::parallel_for_static_state), reuse across pencils.
struct BilateralGatherScratch {
  /// Sizes the ring for `weights`' radius and permutes the spatial table
  /// to [dp][du][dv] for `axis` so the innermost tap loop walks both the
  /// samples and the weights with unit stride.
  void prepare(const BilateralWeights& weights, PencilAxis axis);

  std::uint32_t width = 0;       ///< W = 2r + 1
  std::uint32_t plane_size = 0;  ///< W * W
  PencilAxis axis = PencilAxis::kX;
  std::vector<float> ring;   ///< W planes of W*W samples, slot = s % W
  std::vector<float> wperm;  ///< spatial weights permuted to [dp][du][dv]
  /// Contiguous-run accounting of the plane gathers, merged into the
  /// trace metrics registry per pencil. Collected only when span tracing
  /// was runtime-enabled at prepare() time, so untraced runs pay nothing.
  bool collect_run_stats = false;
  core::GatherRunStats run_stats;
};

namespace detail {

/// Merges and resets one pencil's gather-run stats ("bilateral.gather_*"
/// metrics: run-length histogram plus run/element counters).
inline void fold_gather_run_stats(core::GatherRunStats& rs) {
  if (rs.runs == 0) {
    return;
  }
  auto& tracer = trace::Tracer::instance();
  static const trace::HistogramId k_len = tracer.histogram_id("bilateral.gather_run_len");
  static const trace::CounterId k_runs = tracer.counter_id("bilateral.gather_runs");
  static const trace::CounterId k_elems = tracer.counter_id("bilateral.gather_elements");
  tracer.merge_histogram(k_len, rs.len_log2.data(), core::GatherRunStats::kBuckets,
                         rs.runs, rs.elements, rs.min_run, rs.max_run);
  tracer.add(k_runs, rs.runs);
  tracer.add(k_elems, rs.elements);
  rs = core::GatherRunStats{};
}

/// Explicit-SIMD tap loops over one voxel's W ring planes (the vectorized
/// twin of the `#pragma omp simd` loops in bilateral_pencil_gather). One
/// vector accumulator pair is carried across all planes and reduced once;
/// tails load via masked lanes whose weight slice reads exactly 0, so a
/// masked lane contributes +0 to both sums — processing the tail wide is
/// arithmetically identical to processing only the valid lanes. kLut
/// selects the quantized-LUT photometric term (clamped before the index
/// truncation, so masked-lane garbage can never gather out of bounds);
/// otherwise the vector fast_exp_neg (lane-exact twin of the scalar one).
template <bool kLut>
[[nodiscard]] inline std::pair<float, float> simd_tap_planes(
    const float* ring, const float* wperm, std::uint32_t t, std::uint32_t r,
    std::uint32_t W, std::uint32_t plane_sz, float center, float inv2sr2,
    const BilateralWeights& weights) {
  constexpr int N = simd::kNativeLanes;
  using VF = simd::vfloat<N>;
  using VI = simd::vint<N>;
  const VF v_center = VF::broadcast(center);
  const VF v_inv2sr2 = VF::broadcast(inv2sr2);
  const float* lut = kLut ? weights.range_lut_data() : nullptr;
  const VF v_lut_scale = VF::broadcast(kLut ? weights.range_lut_u_scale() : 0.0f);
  const VF v_lut_max = VF::broadcast(kLut ? weights.range_lut_max_x() : 0.0f);
  VF v_sum = VF::zero();
  VF v_norm = VF::zero();
  const auto taps = [&](VF sample, VF wspatial) {
    const VF d = sample - v_center;
    VF w;
    if constexpr (kLut) {
      VF x = d * d * v_lut_scale;
      x = select(gt(x, v_lut_max), v_lut_max, x);
      const VI b = trunc_to_int(x);
      const VF f = x - to_float(b);
      const VF lo = gather(lut, b);
      const VF hi = gather(lut, b + VI::broadcast(1));
      w = wspatial * (lo + f * (hi - lo));
    } else {
      w = wspatial * simd::fast_exp_neg(d * d * v_inv2sr2);
    }
    v_sum = v_sum + w * sample;
    v_norm = v_norm + w;
  };
  for (std::uint32_t dpi = 0; dpi < W; ++dpi) {
    const float* plane = ring + ((t - r + dpi) % W) * plane_sz;
    const float* wplane = wperm + dpi * plane_sz;
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

/// Gather-based bilateral_pencil. Interior voxels of interior pencils take
/// the ring-buffer fast path; border voxels (and whole pencils too short
/// or too close to a face for a full stencil) fall back to the clamped
/// per-voxel kernel. Tap order is plane-major ([dp][du][dv]); with
/// params.fast_exp and params.use_range_lut both off the arithmetic per
/// tap matches the exact kernels', so output is bit-identical to
/// bilateral_reference for (pz, xyz) and to bilateral_voxel's zyx order
/// for (px, zyx); other configurations differ only by float reassociation
/// of the tap sum (well under the 1e-5 test tolerance).
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
  const auto view = core::make_read_view(src);

  std::uint32_t na = 0, nb = 0;
  switch (params.pencil) {
    case PencilAxis::kX: na = e.ny; nb = e.nz; break;
    case PencilAxis::kY: na = e.nx; nb = e.nz; break;
    case PencilAxis::kZ: na = e.nx; nb = e.ny; break;
  }
  const bool fixed_interior = pc.a >= r && pc.a + r < na && pc.b >= r && pc.b + r < nb;
  if (!fixed_interior || len <= 2 * r) {
    bilateral_pencil(view, dst, weights, params, pencil);
    return;
  }

  const core::Coord3D v0 = pencil_voxel(params.pencil, pc, 0);
  const std::uint32_t di = params.pencil == PencilAxis::kX ? 1u : 0u;
  const std::uint32_t dj = params.pencil == PencilAxis::kY ? 1u : 0u;
  const std::uint32_t dk = params.pencil == PencilAxis::kZ ? 1u : 0u;
  const auto clamped_run = [&](std::uint32_t t0, std::uint32_t t1) {
    for (std::uint32_t t = t0; t < t1; ++t) {
      const core::Coord3D v{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
      dst.at(v.i, v.j, v.k) =
          bilateral_voxel(view, v.i, v.j, v.k, weights, params.sigma_range, params.order);
    }
  };
  clamped_run(0, r);

  const std::uint32_t a0 = pc.a - r;
  const std::uint32_t b0 = pc.b - r;
  core::GatherRunStats* rs = scratch.collect_run_stats ? &scratch.run_stats : nullptr;
  const auto gather_plane = [&](std::uint32_t s) {
    float* plane = scratch.ring.data() + (s % W) * plane_sz;
    for (std::uint32_t du = 0; du < W; ++du) {
      switch (params.pencil) {
        case PencilAxis::kX:  // plane spans (y, z): rows along z
          core::gather_row(src, core::Axis3::kZ, s, a0 + du, b0, W, plane + du * W, rs);
          break;
        case PencilAxis::kY:  // plane spans (z, x): rows along x
          core::gather_row(src, core::Axis3::kX, a0, s, b0 + du, W, plane + du * W, rs);
          break;
        case PencilAxis::kZ:  // plane spans (y, x): rows along x
          core::gather_row(src, core::Axis3::kX, a0, b0 + du, s, W, plane + du * W, rs);
          break;
      }
    }
  };
  for (std::uint32_t s = 0; s <= 2 * r; ++s) {
    gather_plane(s);
  }

  const float inv2sr2 = 1.0f / (2.0f * params.sigma_range * params.sigma_range);
  const bool lut = params.use_range_lut && weights.has_range_lut();
  const bool fast = params.fast_exp && !lut;
  // Explicit SIMD applies to the approximate modes only; the exact mode's
  // bit-identity contract needs the scalar tap order below.
  const bool simd_taps = params.simd_taps && (fast || lut);
  const float* ring = scratch.ring.data();
  const float* wperm = scratch.wperm.data();
  for (std::uint32_t t = r; t < len - r; ++t) {
    if (t > r) {
      gather_plane(t + r);
    }
    const float center = ring[(t % W) * plane_sz + r * W + r];
    if (simd_taps) {
      const auto [sum, norm] =
          lut ? detail::simd_tap_planes<true>(ring, wperm, t, r, W, plane_sz,
                                              center, inv2sr2, weights)
              : detail::simd_tap_planes<false>(ring, wperm, t, r, W, plane_sz,
                                               center, inv2sr2, weights);
      const core::Coord3D v{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
      dst.at(v.i, v.j, v.k) = sum / norm;
      continue;
    }
    float sum = 0.0f;
    float norm = 0.0f;
    // One flat loop per plane: scratch planes and their weight slices are
    // both contiguous, so [du][dv] collapses to plane_sz iterations — same
    // tap order (bit-identity preserved), ~W times fewer vector epilogues.
    for (std::uint32_t dpi = 0; dpi < W; ++dpi) {
      const float* plane = ring + ((t - r + dpi) % W) * plane_sz;
      const float* wplane = wperm + dpi * plane_sz;
      if (fast) {
#pragma omp simd reduction(+ : sum, norm)
        for (std::uint32_t q = 0; q < plane_sz; ++q) {
          const float sample = plane[q];
          const float d = sample - center;
          const float w = wplane[q] * fast_exp_neg(d * d * inv2sr2);
          sum += w * sample;
          norm += w;
        }
      } else if (lut) {
#pragma omp simd reduction(+ : sum, norm)
        for (std::uint32_t q = 0; q < plane_sz; ++q) {
          const float sample = plane[q];
          const float w = wplane[q] * weights.range_lut(sample - center);
          sum += w * sample;
          norm += w;
        }
      } else {  // exact: same per-tap expressions as bilateral_voxel
        for (std::uint32_t q = 0; q < plane_sz; ++q) {
          const float sample = plane[q];
          const float w = wplane[q] * BilateralWeights::range(sample - center, inv2sr2);
          sum += w * sample;
          norm += w;
        }
      }
    }
    const core::Coord3D v{v0.i + t * di, v0.j + t * dj, v0.k + t * dk};
    dst.at(v.i, v.j, v.k) = sum / norm;
  }
  clamped_run(len - r, len);
  if (rs != nullptr) {
    detail::fold_gather_run_stats(*rs);
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
  auto weights = std::make_shared<const BilateralWeights>(params);
  const std::size_t pencils = pencil_count(src.extents(), params.pencil);
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  if (params.use_gather) {
    detail::require_native_views<Views>("bilateral_job");
    return detail::make_state_job(
        "bilateral", pencils, dst.data(),
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
      "bilateral", pencils, dst.data(),
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
  auto weights =
      std::make_shared<const BilateralWeights>(params.radius, params.sigma_spatial);
  const core::Extents3D e = src.extents();

  // Chunks are contiguous ranges of the *padded* curve index space, decoded
  // on the fly — the former materialized 12-byte/voxel order vector (1.6 GB
  // of peak RSS at 512^3) is gone; padded positions decode-and-skip. Each
  // work item is still a compact curve brick. The chunk decomposition is
  // the context's (curve_chunks scales by the padding ratio so the
  // *logical* voxels per chunk stays at roughly size / (threads *
  // chunks_per_thread) even when much of the padded curve is holes —
  // 48^3 pads to 64^3: 58% padding).
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
      "bilateral.zsweep", num_chunks, dst.data(),
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
