// Raycasting volume renderer (paper Sec. III-B).
//
// Image-order method: for every output pixel a ray is cast through the
// volume; scalar samples taken at regular intervals along the ray are
// classified by the transfer function and composited front to back.
// Sampling is trilinear, so every sample reads the 8 surrounding voxels —
// through a core::ReadView3D, which makes the renderer layout-transparent
// and traceable, exactly like the bilateral filter.
//
// Batched marching: composite mode runs one loop, detail::march, over a
// run of consecutive samples of one ray. For an in-core PlainView each
// step takes 16 samples: their positions, cell loads and trilinear values
// as plain lane loops, one transparency test per lane, and in-order
// compositing of only the lanes that can be visible. Views whose reads are
// observed (traced, bricked) take one sample per step, so they read what
// the scalar loop reads, in its order.
//
// Empty-space skipping: with config.use_macrocells the ray integration
// runs as a 3D DDA over a MacrocellGrid (Amanatides & Woo 1987): the ray
// advances macrocell-by-macrocell, and every cell whose [min, max] value
// range classifies to zero opacity (TransferFunction::max_opacity) is
// skipped in O(1) instead of being sampled. MIP rays additionally skip
// cells whose max cannot raise the current peak. Sample positions are the
// same arithmetic expression (t_enter + n*step) on the dense and the
// accelerated path, and skipped samples contribute exactly zero to the
// composite, so accelerated images are bit-identical to dense ones.
//
// Parallelism: the output image is decomposed into tiles (32x32 by
// default) consumed by a dynamic worker pool — the strategy the paper
// reports as best-performing and as the reason for using raw threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/image.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::render {

/// Integration mode along the ray.
enum class RenderMode : std::uint8_t {
  kComposite,  ///< front-to-back "over" compositing (the paper's renderer)
  kMip,        ///< maximum-intensity projection
};

/// Renderer configuration (camera and transfer function are passed
/// separately — they are per-experiment state, this is per-run mechanics).
struct RenderConfig {
  std::uint32_t image_width = 256;
  std::uint32_t image_height = 256;
  std::uint32_t tile_size = 32;    ///< paper's fixed choice; see abl_tile_size
  float step = 0.5f;               ///< sample spacing along the ray, in voxels
  float early_termination = 0.98f;  ///< stop compositing past this opacity
  RenderMode mode = RenderMode::kComposite;
  /// Gradient (headlight Lambertian) shading: adds six trilinear gradient
  /// taps per sample — a denser semi-structured access pattern.
  bool shade = false;
  float ambient = 0.25f;  ///< ambient light floor when shading
  /// Empty-space skipping over a macrocell min-max grid (see macrocell.hpp
  /// and bench/abl_empty_space). Off by default so existing experiments
  /// keep their exact access streams; images are identical either way.
  bool use_macrocells = false;
  std::uint32_t macrocell_size = 8;  ///< macrocell edge length, in voxels
  /// Ignored: every value renders with trace_ray, and the field stays only
  /// because the end-to-end benchmark (bench/e2e) still sets it.
  std::uint32_t packet_size = 1;
};

/// Throws std::invalid_argument unless `step` is finite and positive: a
/// step <= 0 never advances a ray past its exit, and an infinite one makes
/// t_enter + 0 * step NaN.
void validate_step(float step);

/// Largest sample index of one ray: 2^24, the largest integer a float
/// holds exactly. Past it, t_enter + n*step stops growing with n.
inline constexpr std::uint32_t kMaxRaySamples = std::uint32_t{1} << 24;

/// validate_step(step), then throws std::invalid_argument when a ray along
/// the box diagonal of `extents` needs more than kMaxRaySamples samples at
/// `step` (a step below 2.6e-5 voxels at 256^3).
void validate_step(float step, const core::Extents3D& extents);

/// Per-ray traversal statistics (skip-rate accounting; plain counters so
/// the hot path stays atomic-free). The parallel drivers keep one of
/// these per tile on the worker's stack and fold it into the trace
/// metrics registry — per-thread accumulate, merge at snapshot time — so
/// render-wide totals involve no shared mutable state at all.
struct RayStats {
  std::uint64_t samples_taken = 0;    ///< samples evaluated (trilinear taps done)
  std::uint64_t samples_skipped = 0;  ///< samples proven irrelevant and skipped
  std::uint64_t cells_visited = 0;    ///< macrocells classified
  std::uint64_t cells_skipped = 0;    ///< macrocells skipped whole

  void add(const RayStats& o) noexcept {
    samples_taken += o.samples_taken;
    samples_skipped += o.samples_skipped;
    cells_visited += o.cells_visited;
    cells_skipped += o.cells_skipped;
  }
};

namespace detail {

/// Folds `tiles` tiles' worth of stats into the calling thread's metric
/// slots under the "raycast.*" names. The ids are resolved once per
/// process.
inline void fold_ray_stats(const RayStats& s, std::uint64_t tiles = 1) {
  auto& tracer = trace::Tracer::instance();
  static const trace::CounterId k_taken = tracer.counter_id("raycast.samples_taken");
  static const trace::CounterId k_skipped = tracer.counter_id("raycast.samples_skipped");
  static const trace::CounterId k_visited = tracer.counter_id("raycast.cells_visited");
  static const trace::CounterId k_cells = tracer.counter_id("raycast.cells_skipped");
  static const trace::CounterId k_tiles = tracer.counter_id("raycast.tiles");
  tracer.add(k_taken, s.samples_taken);
  tracer.add(k_skipped, s.samples_skipped);
  tracer.add(k_visited, s.cells_visited);
  tracer.add(k_cells, s.cells_skipped);
  tracer.add(k_tiles, tiles);
}

}  // namespace detail

/// Fraction of potential samples the macrocell traversal skipped, read
/// from a metrics snapshot taken after a collect_stats render.
[[nodiscard]] inline double skip_rate(const trace::MetricsSnapshot& metrics) noexcept {
  const auto taken = static_cast<double>(metrics.total("raycast.samples_taken"));
  const auto skipped = static_cast<double>(metrics.total("raycast.samples_skipped"));
  const double total = taken + skipped;
  return total > 0.0 ? skipped / total : 0.0;
}

/// Slab-method ray/axis-aligned-box intersection; returns the [t_enter,
/// t_exit] parameter interval clipped to t >= 0, or nullopt on a miss, for
/// a non-finite origin, and for a direction that is not is_unit() (zero,
/// tiny, non-finite or unnormalized).
[[nodiscard]] std::optional<std::pair<float, float>> intersect_box(const Ray& ray, Vec3 lo,
                                                                   Vec3 hi) noexcept;

namespace detail {

/// Trilinear blend of a cell's corners c000, c100, c010, c110, c001, c101,
/// c011, c111 at fractional offsets (tx, ty, tz): the one expression every
/// trilinear sample evaluates, per sample and per march lane.
[[nodiscard, gnu::always_inline]] inline float blend_cell(float c000, float c100, float c010,
                                                          float c110, float c001, float c101,
                                                          float c011, float c111, float tx,
                                                          float ty, float tz) noexcept {
  const auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
  return lerp(lerp(lerp(c000, c100, tx), lerp(c010, c110, tx), ty),
              lerp(lerp(c001, c101, tx), lerp(c011, c111, tx), ty), tz);
}

}  // namespace detail

/// Trilinear reconstruction at continuous voxel position `p` (voxel-center
/// convention: sample n lies at coordinate n). Out-of-range lattice
/// neighbours clamp to the border. The 8 neighbours arrive as one cell
/// load (view.cell, corners c000, c100, ..., c111).
template <core::ReadView3D View>
[[nodiscard]] float sample_trilinear(const View& view, Vec3 p) {
  const float fx = std::floor(p.x), fy = std::floor(p.y), fz = std::floor(p.z);
  const auto c = view.cell(static_cast<std::int64_t>(fx), static_cast<std::int64_t>(fy),
                           static_cast<std::int64_t>(fz));
  return detail::blend_cell(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], p.x - fx,
                            p.y - fy, p.z - fz);
}

/// Central-difference gradient of the trilinearly reconstructed field at
/// continuous position `p` — the shading normal source (Levoy 1988). The
/// six samples read in the order +x, -x, +y, -y, +z, -z.
template <core::ReadView3D View>
[[nodiscard]] Vec3 gradient_trilinear(const View& view, Vec3 p) {
  const float xp = sample_trilinear(view, Vec3{p.x + 1, p.y, p.z});
  const float xm = sample_trilinear(view, Vec3{p.x - 1, p.y, p.z});
  const float yp = sample_trilinear(view, Vec3{p.x, p.y + 1, p.z});
  const float ym = sample_trilinear(view, Vec3{p.x, p.y - 1, p.z});
  const float zp = sample_trilinear(view, Vec3{p.x, p.y, p.z + 1});
  const float zm = sample_trilinear(view, Vec3{p.x, p.y, p.z - 1});
  return Vec3{0.5f * (xp - xm), 0.5f * (yp - ym), 0.5f * (zp - zm)};
}

namespace detail {

/// First sample index m > n whose parameter t_enter + m*step lies strictly
/// past `limit`, with a float fixup so no sample past the limit is ever
/// skipped; always returns at least n + 1 so the traversal makes progress.
[[nodiscard]] inline std::uint64_t skip_samples_past(std::uint64_t n, float limit,
                                                     float t_enter, float step) noexcept {
  std::uint64_t m = n + 1;
  if (limit > t_enter) {
    const float f = (limit - t_enter) / step;
    if (f < 9.0e15f) {  // guard the float->integer cast
      const auto cand = static_cast<std::uint64_t>(f) + 1;
      m = std::max(m, cand);
      while (m > n + 1 && t_enter + static_cast<float>(m - 1) * step > limit) {
        --m;
      }
    }
  }
  return m;
}

/// Parameter and world position of sample n, compiled exactly once (out
/// of line in raycast.cpp): with -ffp-contract=fast the compiler may fuse
/// t_enter + n*step (and ray.at's origin + dir*t) into an FMA in one
/// inlining context and not in another, and every trace_ray instantiation
/// must agree bitwise on where a ray samples. One definition means one
/// contraction choice for every caller. Composite mode places its samples
/// in march's lane loop instead, with the same two expression shapes: a
/// vector loop contracts like scalar code of the same shape (the contract
/// in core/simd.hpp), and the reference compositor test pins the agreement.
[[nodiscard]] float sample_param(float t_enter, std::uint64_t n, float step) noexcept;
[[nodiscard]] Vec3 sample_position(const Ray& ray, float t) noexcept;

/// Headlight-Lambertian color scale for a shading normal: ambient +
/// (1 - ambient) * |cos|, or exactly 1.0f for degenerate normals (a
/// multiply by 1.0f is a bitwise no-op, so callers can apply it
/// unconditionally). Out of line for the same contraction-determinism
/// reason as sample_param.
[[nodiscard]] float headlight_scale(const Vec3& normal, const Vec3& dir,
                                    float ambient) noexcept;

/// Samples per march step over `View`: 16 for a PlainView, whose reads are
/// free and unobserved, so lanes past the run's end read clamped cells
/// whose values are masked out; 1 for every other view (TracedView,
/// BrickedView, BrickedTracedView), whose reads are observed and must stay
/// 8 taps per sample, in sample order, with nothing read past the run's
/// end or the terminating sample.
template <class View>
inline constexpr std::uint32_t kMarchLanes = 1;
template <class T, core::Layout3D LayoutT>
inline constexpr std::uint32_t kMarchLanes<core::PlainView<T, LayoutT>> = 16;

/// A cell's lower corner index, clamped to [-1, n]: view.cell reads the
/// same border-clamped corners as at the unclamped index, and the float to
/// integer conversion stays defined for lanes past a run's end, which a
/// huge step can place at any distance, inf and NaN included (NaN maps to
/// -1).
[[nodiscard, gnu::always_inline]] inline float clamp_cell_index(float f,
                                                                std::uint32_t n) noexcept {
  const auto hi = static_cast<float>(n);
  return f >= -1.0f ? (f <= hi ? f : hi) : -1.0f;
}

/// Composites the run of samples n, n + 1, ... of one ray whose parameter
/// t_enter + n*step is <= limit into `out`, front to back. Sample n is
/// always taken: a macrocell's exit may round below the sample that
/// entered it, and the walk must still advance. Advances n past the last
/// sample taken; returns false once
/// the ray terminated. Each step takes K = kMarchLanes<View> consecutive
/// samples:
///  1. lane arithmetic: the K parameters and positions, their floors, the
///     K cell loads in sample order and K trilinear values;
///  2. a transparency test per lane: a value <= tf.transparent_bound()
///     classifies to alpha exactly 0 and needs no tf.sample;
///  3. in order, the lanes that can be visible: classification (alpha
///     exactly 0 still composites nothing), shading, opacity correction,
///     compositing and the early-termination test.
/// A sample that classifies to alpha exactly 0 skips all of step 3: its
/// corrected alpha 1 - pow(1, step) is +0, and compositing it adds +-0 to
/// accumulators that are never -0, so the skip is bitwise exact (it needs
/// the finite colours TransferFunction enforces: inf * 0 would be NaN).
template <core::ReadView3D View>
[[nodiscard]] bool march(const View& view, const Ray& ray, const TransferFunction& tf,
                         const RenderConfig& config, float t_enter, float limit,
                         std::uint64_t& n, Rgba& out) {
  constexpr std::uint32_t K = kMarchLanes<View>;
  const auto& e = view.extents();
  const float step = config.step;
  const float clear = tf.transparent_bound();
  // out.a < early_termination holds on entry except before a ray's first
  // sample when early_termination is <= 0 or NaN: that ray ends after its
  // first sample, visible or not.
  const bool last_one = !(out.a < config.early_termination);
  const std::uint64_t first = n;
  while (true) {
    // Lane indices stay below 2^24 + K: trace_ray renders no span that
    // sample kMaxRaySamples does not pass, so they fit 32 bits.
    const auto base = static_cast<std::int32_t>(n);
    alignas(64) float t[K], x[K], y[K], z[K], fx[K], fy[K], fz[K], value[K];
    alignas(64) float ix[K], iy[K], iz[K];
    alignas(64) float c[8][K];
    std::uint32_t count = 0;
    for (std::uint32_t q = 0; q < K; ++q) {
      t[q] = t_enter + static_cast<float>(base + static_cast<std::int32_t>(q)) * step;
      count += t[q] <= limit ? 1U : 0U;
    }
    // Parameters grow with n, so the lanes inside the run are a prefix.
    if (n == first) {
      count = last_one ? 1 : std::max(count, 1U);
    }
    if (count == 0) {
      return true;
    }
    for (std::uint32_t q = 0; q < K; ++q) {
      x[q] = ray.origin.x + ray.dir.x * t[q];
      y[q] = ray.origin.y + ray.dir.y * t[q];
      z[q] = ray.origin.z + ray.dir.z * t[q];
      fx[q] = std::floor(x[q]);
      fy[q] = std::floor(y[q]);
      fz[q] = std::floor(z[q]);
      ix[q] = clamp_cell_index(fx[q], e.nx);
      iy[q] = clamp_cell_index(fy[q], e.ny);
      iz[q] = clamp_cell_index(fz[q], e.nz);
    }
    for (std::uint32_t q = 0; q < K; ++q) {
      const auto cell =
          view.cell(static_cast<std::int64_t>(ix[q]), static_cast<std::int64_t>(iy[q]),
                    static_cast<std::int64_t>(iz[q]));
      for (std::uint32_t corner = 0; corner < 8; ++corner) {
        c[corner][q] = cell[corner];
      }
    }
    std::uint32_t live = 0;
    for (std::uint32_t q = 0; q < K; ++q) {
      value[q] = blend_cell(c[0][q], c[1][q], c[2][q], c[3][q], c[4][q], c[5][q], c[6][q],
                            c[7][q], x[q] - fx[q], y[q] - fy[q], z[q] - fz[q]);
      live |= (value[q] <= clear ? 0U : 1U) << q;
    }
    if (count < K) {
      live &= (std::uint32_t{1} << count) - 1;
    }
    for (; live != 0; live &= live - 1) {
      const auto q = static_cast<std::uint32_t>(std::countr_zero(live));
      Rgba sample = tf.sample(value[q]);
      if (sample.a == 0.0f) {
        continue;
      }
      if (config.shade && sample.a > 0.0f) {
        // Headlight Lambertian: light arrives along the viewing ray.
        const Vec3 normal = gradient_trilinear(view, Vec3{x[q], y[q], z[q]});
        const float lit = headlight_scale(normal, ray.dir, config.ambient);
        sample.r *= lit;
        sample.g *= lit;
        sample.b *= lit;
      }
      // Opacity correction: transfer-function alphas are per unit length.
      sample.a = 1.0f - std::pow(1.0f - sample.a, step);
      out.composite_under(sample);
      if (!(out.a < config.early_termination)) {
        n += q + 1;
        return false;
      }
    }
    n += count;
    if (last_one) {
      return false;
    }
    if (count < K) {
      return true;
    }
  }
}

}  // namespace detail

/// Casts one ray. kComposite: classify each sample with the transfer
/// function and composite front to back with opacity correction for the
/// step size (optionally headlight-shaded by the local gradient), in
/// detail::march. kMip: classify the maximum sample along the ray; at least
/// one sample (at t_enter) is always taken on a hit, so a span shorter than
/// one step still classifies a real field value, never the -FLT_MAX
/// sentinel.
///
/// With `cells` non-null the ray walks the macrocell DDA and skips
/// provably irrelevant cells; the composited sample sequence (positions
/// and float arithmetic) is identical to the dense path.
///
/// Precondition: ray.dir is unit length, as every Camera ray is, so that
/// config.step is a distance in voxels. Any other direction is rejected by
/// intersect_box and renders transparent, and so is a span that sample
/// kMaxRaySamples does not pass (a step that is not finite and positive,
/// or too small for the span or for t_enter's precision): the ray would
/// not end.
template <core::ReadView3D View>
[[nodiscard]] Rgba trace_ray(const View& view, const Ray& ray, const TransferFunction& tf,
                             const RenderConfig& config,
                             const MacrocellGrid* cells = nullptr,
                             RayStats* stats = nullptr) {
  const auto& e = view.extents();
  const Vec3 lo{-0.5f, -0.5f, -0.5f};
  const Vec3 hi{static_cast<float>(e.nx) - 0.5f, static_cast<float>(e.ny) - 0.5f,
                static_cast<float>(e.nz) - 0.5f};
  const auto span = intersect_box(ray, lo, hi);
  Rgba out;
  if (!span) {
    return out;
  }
  const float t_enter = span->first;
  const float t_exit = span->second;
  const float step = config.step;
  // Sample n lies at t_enter + n*step — the same expression on every path,
  // which is what makes dense and macrocell renders bit-identical.
  const auto t_of = [&](std::uint64_t n) {
    return detail::sample_param(t_enter, n, step);
  };
  // The march ends only once a sample passes t_exit, which sample
  // kMaxRaySamples must do; t_of(0) is NaN for a non-finite step.
  if (!(t_of(0) <= t_exit && t_of(kMaxRaySamples) > t_exit)) {
    return out;
  }

  if (config.mode == RenderMode::kMip) {
    float peak = -std::numeric_limits<float>::max();
    if (cells == nullptr) {
      // n = 0 gives t = t_enter <= t_exit: the first sample is structural.
      for (std::uint64_t n = 0;; ++n) {
        const float t = t_of(n);
        if (t > t_exit) {
          break;
        }
        peak = std::max(peak, sample_trilinear(view, detail::sample_position(ray, t)));
        if (stats != nullptr) {
          ++stats->samples_taken;
        }
      }
    } else {
      const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
      std::uint64_t n = 0;
      while (true) {
        const float t = t_of(n);
        if (n != 0 && t > t_exit) {
          break;
        }
        const CellCoord c = cells->cell_of(detail::sample_position(ray, t));
        const float exit = std::min(cells->cell_exit(ray.origin, inv_dir, c), t_exit);
        if (stats != nullptr) {
          ++stats->cells_visited;
        }
        if (cells->range(c).max <= peak) {
          // No sample in this cell can raise the peak: max(peak, v) with
          // v <= peak leaves peak bit-identical, so the whole cell skips.
          const std::uint64_t next = detail::skip_samples_past(n, exit, t_enter, step);
          if (stats != nullptr) {
            stats->samples_skipped += next - n;
            ++stats->cells_skipped;
          }
          n = next;
        } else {
          do {
            peak = std::max(peak, sample_trilinear(view, detail::sample_position(ray, t_of(n))));
            if (stats != nullptr) {
              ++stats->samples_taken;
            }
            ++n;
          } while (t_of(n) <= exit);
        }
      }
    }
    out = tf.sample(peak);
    // MIP shows the classified peak directly: premultiply and fill alpha.
    out.r *= out.a;
    out.g *= out.a;
    out.b *= out.a;
    return out;
  }

  std::uint64_t n = 0;
  if (cells == nullptr) {
    (void)detail::march(view, ray, tf, config, t_enter, t_exit, n, out);
    if (stats != nullptr) {
      stats->samples_taken += n;
    }
    return out;
  }

  const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
  while (true) {
    const float t = t_of(n);
    if (t > t_exit) {
      break;
    }
    const CellCoord c = cells->cell_of(detail::sample_position(ray, t));
    const float exit = std::min(cells->cell_exit(ray.origin, inv_dir, c), t_exit);
    if (stats != nullptr) {
      ++stats->cells_visited;
    }
    const ValueRange range = cells->range(c);
    if (tf.max_opacity(range.min, range.max) <= 0.0f) {
      // Every sample in the cell classifies to alpha exactly 0 and would
      // composite exactly nothing: skip the cell in O(1).
      const std::uint64_t next = detail::skip_samples_past(n, exit, t_enter, step);
      if (stats != nullptr) {
        stats->samples_skipped += next - n;
        ++stats->cells_skipped;
      }
      n = next;
    } else {
      const std::uint64_t first = n;
      const bool keep_going = detail::march(view, ray, tf, config, t_enter, exit, n, out);
      if (stats != nullptr) {
        stats->samples_taken += n - first;
      }
      if (!keep_going) {
        break;
      }
    }
  }
  return out;
}

/// Renders one image tile, accumulating per-ray stats into `stats` (a
/// tile-local struct on the caller's stack — never shared across threads).
template <core::ReadView3D View>
void render_tile(const View& view, const Camera& camera, const TransferFunction& tf,
                 const RenderConfig& config, Image& image, const Tile& tile,
                 const MacrocellGrid* cells = nullptr, RayStats* stats = nullptr) {
  for (std::uint32_t y = tile.y0; y < tile.y1; ++y) {
    for (std::uint32_t x = tile.x0; x < tile.x1; ++x) {
      const Ray ray = camera.ray_for_pixel(x, y, image.width(), image.height());
      image.at(x, y) = trace_ray(view, ray, tf, config, cells, stats);
    }
  }
}

namespace detail {

/// Cache key for a volume's macrocell grid: extents + block size +
/// layout salt packed into 64 bits (the volume's identity is the cache's
/// owner pointer; the salt distinguishes generalized-Morton interleave
/// patterns, which the data pointer + extents alone cannot).
[[nodiscard]] inline std::uint64_t macrocell_cache_key(const core::Extents3D& e,
                                                       std::uint32_t block,
                                                       std::uint64_t layout_salt) noexcept {
  std::uint64_t key = e.nx;
  key = key * 0x100000001b3ULL ^ e.ny;
  key = key * 0x100000001b3ULL ^ e.nz;
  key = key * 0x100000001b3ULL ^ block;
  key = key * 0x100000001b3ULL ^ layout_salt;
  return key;
}

}  // namespace detail

/// Builds the render job: image tiles under dynamic dispatch (the paper's
/// best work-assignment strategy). The job's closures reference `volume`,
/// `tf` and `image`, which must outlive its run.
///
/// When config.use_macrocells is set the render takes the empty-space-
/// skipping path: a caller-provided `cells` grid is used as-is, otherwise
/// the running context's StructureCache supplies one — looked up in
/// job.prepare (not at build time), so back-to-back renders of one
/// volume share a single grid and every job after the first records a
/// structure-cache hit in its JobRecord. The grid is built on first use,
/// keyed on the volume's storage identity and cell size, and reused by
/// every later render of the same volume (the fig4/fig5 orbit pattern no
/// longer pays a full rebuild per viewpoint). Mutating a volume in place
/// requires ctx.structures().invalidate(volume.data()). With
/// `collect_stats` each worker folds its tile-local RayStats into the
/// metrics registry ("raycast.*" counters; read them via
/// Tracer::metrics_snapshot / render::skip_rate). `views` makes each
/// worker's read view (see core::ReadViews): a traced replay
/// (exec::JobGraph::replay) reads the volume through traced views while
/// the macrocell grid, metadata built once, stays untraced.
template <core::VolumeBackend VolT, class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob raycast_job(const VolT& volume, const Camera& camera,
                                          const TransferFunction& tf,
                                          const RenderConfig& config, Image& image,
                                          const MacrocellGrid* cells = nullptr,
                                          bool collect_stats = false, Views views = {}) {
  validate_step(config.step, volume.extents());
  const TileDecomposition tiles(config.image_width, config.image_height, config.tile_size);
  using View = decltype(views(volume, 0U));
  // Per-run state resolved in job.prepare: the macrocell grid (cache
  // lookup) and one read view per worker (out-of-core views carry
  // per-worker brick pins and must not be shared across threads; a
  // PlainView is free).
  struct Shared {
    std::shared_ptr<const MacrocellGrid> cached_cells;
    const MacrocellGrid* use_cells = nullptr;
    std::vector<View> views;
  };
  auto shared = std::make_shared<Shared>();
  if (config.use_macrocells && cells != nullptr) {
    shared->use_cells = cells;
  }
  const VolT* vol_p = &volume;
  const TransferFunction* tf_p = &tf;
  Image* img_p = &image;
  exec::KernelJob job;
  job.kernel = "raycast";
  job.dispatch = exec::JobDispatch::kDynamic;
  job.tiles = tiles.count();
  job.span_name = "raycast.parallel";
  job.span_tag = config.use_macrocells ? "macrocell" : "dense";
  job.prepare = [shared, vol_p, config, views](exec::ExecutionContext& ctx) {
    if (config.use_macrocells && shared->use_cells == nullptr) {
      shared->cached_cells = ctx.structures().get_or_build<MacrocellGrid>(
          vol_p->data(),
          detail::macrocell_cache_key(vol_p->extents(), config.macrocell_size,
                                      core::volume_cache_salt(*vol_p)),
          [&] { return MacrocellGrid::build(*vol_p, config.macrocell_size, &ctx); });
      shared->use_cells = shared->cached_cells.get();
    }
    shared->views.clear();
    shared->views.reserve(ctx.size());
    for (unsigned t = 0; t < ctx.size(); ++t) {
      shared->views.push_back(views(*vol_p, t));
    }
  };
  job.tile = [shared, tf_p, img_p, camera, config, tiles, collect_stats](
                 void*, std::size_t t, unsigned tid) {
    SFCVIS_TRACE_SPAN("raycast.tile", nullptr, t);
    RayStats tile_stats;
    render_tile(shared->views[tid], camera, *tf_p, config, *img_p, tiles.bounds(t),
                shared->use_cells, collect_stats ? &tile_stats : nullptr);
    if (collect_stats) {
      detail::fold_ray_stats(tile_stats);
    }
  };
  return job;
}

/// Shared-memory parallel render (see raycast_job for the macrocell and
/// stats semantics).
template <core::VolumeBackend VolT>
[[nodiscard]] Image raycast_parallel(const VolT& volume,
                                     const Camera& camera, const TransferFunction& tf,
                                     const RenderConfig& config, exec::ExecutionContext& ctx,
                                     const MacrocellGrid* cells = nullptr,
                                     bool collect_stats = false) {
  Image image(config.image_width, config.image_height);
  exec::run_job(ctx, raycast_job(volume, camera, tf, config, image, cells, collect_stats));
  return image;
}

/// Facade driver: dispatches on the volume's runtime layout.
[[nodiscard]] inline Image raycast_parallel(const core::AnyVolume& volume,
                                            const Camera& camera,
                                            const TransferFunction& tf,
                                            const RenderConfig& config,
                                            exec::ExecutionContext& ctx,
                                            const MacrocellGrid* cells = nullptr,
                                            bool collect_stats = false) {
  return volume.visit([&](const auto& grid) {
    return raycast_parallel(grid, camera, tf, config, ctx, cells, collect_stats);
  });
}

/// Facade job builder.
template <class Views = core::ReadViews>
[[nodiscard]] exec::KernelJob raycast_job(const core::AnyVolume& volume, const Camera& camera,
                                          const TransferFunction& tf,
                                          const RenderConfig& config, Image& image,
                                          const MacrocellGrid* cells = nullptr,
                                          bool collect_stats = false, Views views = {}) {
  return volume.visit([&](const auto& grid) {
    return raycast_job(grid, camera, tf, config, image, cells, collect_stats, views);
  });
}

}  // namespace sfcvis::render
