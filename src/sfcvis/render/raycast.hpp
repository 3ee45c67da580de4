// Raycasting volume renderer (paper Sec. III-B).
//
// Image-order method: for every output pixel a ray is cast through the
// volume; scalar samples taken at regular intervals along the ray are
// classified by the transfer function and composited front to back.
// Sampling is trilinear, so every sample reads the 8 surrounding voxels —
// through a core::ReadView3D, which makes the renderer layout-transparent
// and traceable, exactly like the bilateral filter.
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
/// t_exit] parameter interval clipped to t >= 0, or nullopt on a miss.
[[nodiscard]] std::optional<std::pair<float, float>> intersect_box(const Ray& ray, Vec3 lo,
                                                                   Vec3 hi) noexcept;

/// Trilinear reconstruction at continuous voxel position `p` (voxel-center
/// convention: sample n lies at coordinate n). Out-of-range lattice
/// neighbours clamp to the border. The 8 neighbours arrive as one cell
/// load (view.cell, corners c000, c100, ..., c111).
template <core::ReadView3D View>
[[nodiscard]] float sample_trilinear(const View& view, Vec3 p) {
  const float fx = std::floor(p.x), fy = std::floor(p.y), fz = std::floor(p.z);
  const auto c = view.cell(static_cast<std::int64_t>(fx), static_cast<std::int64_t>(fy),
                           static_cast<std::int64_t>(fz));
  const float tx = p.x - fx, ty = p.y - fy, tz = p.z - fz;

  auto lerp = [](float a, float b, float t) { return a + (b - a) * t; };
  const float c00 = lerp(c[0], c[1], tx);
  const float c10 = lerp(c[2], c[3], tx);
  const float c01 = lerp(c[4], c[5], tx);
  const float c11 = lerp(c[6], c[7], tx);
  return lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz);
}

/// Central-difference gradient of the trilinearly reconstructed field at
/// continuous position `p` — the shading normal source (Levoy 1988).
template <core::ReadView3D View>
[[nodiscard]] Vec3 gradient_trilinear(const View& view, Vec3 p) {
  return Vec3{
      0.5f * (sample_trilinear(view, Vec3{p.x + 1, p.y, p.z}) -
              sample_trilinear(view, Vec3{p.x - 1, p.y, p.z})),
      0.5f * (sample_trilinear(view, Vec3{p.x, p.y + 1, p.z}) -
              sample_trilinear(view, Vec3{p.x, p.y - 1, p.z})),
      0.5f * (sample_trilinear(view, Vec3{p.x, p.y, p.z + 1}) -
              sample_trilinear(view, Vec3{p.x, p.y, p.z - 1})),
  };
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
/// — the dense and macrocell loops, over the plain, traced and bricked
/// views — must agree bitwise on where a ray samples. One definition
/// means one contraction choice for every caller.
[[nodiscard]] float sample_param(float t_enter, std::uint64_t n, float step) noexcept;
[[nodiscard]] Vec3 sample_position(const Ray& ray, float t) noexcept;

/// Headlight-Lambertian color scale for a shading normal: ambient +
/// (1 - ambient) * |cos|, or exactly 1.0f for degenerate normals (a
/// multiply by 1.0f is a bitwise no-op, so callers can apply it
/// unconditionally). Out of line for the same contraction-determinism
/// reason as sample_param.
[[nodiscard]] float headlight_scale(const Vec3& normal, const Vec3& dir,
                                    float ambient) noexcept;

}  // namespace detail

/// Casts one ray. kComposite: classify each sample with the transfer
/// function and composite front to back with opacity correction for the
/// step size (optionally headlight-shaded by the local gradient). A sample
/// that classifies to alpha exactly 0 skips all three: its corrected alpha
/// 1 - pow(1, step) is +0, and compositing it adds +-0 to accumulators
/// that are never -0, so the skip is bitwise exact (it needs the finite
/// colours TransferFunction enforces: inf * 0 would be NaN).
/// kMip: classify the maximum sample along the ray; at least one sample
/// (at t_enter) is always taken on a hit, so a span shorter than one step
/// still classifies a real field value, never the -FLT_MAX sentinel.
///
/// With `cells` non-null the ray walks the macrocell DDA and skips
/// provably irrelevant cells; the composited sample sequence (positions
/// and float arithmetic) is identical to the dense path.
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

  // Front-to-back compositing. Returns false once early termination hits.
  const auto composite_sample = [&](float t) {
    const Vec3 position = detail::sample_position(ray, t);
    const float value = sample_trilinear(view, position);
    Rgba sample = tf.sample(value);
    if (sample.a == 0.0f) {
      return out.a < config.early_termination;
    }
    if (config.shade && sample.a > 0.0f) {
      // Headlight Lambertian: light arrives along the viewing ray.
      const Vec3 normal = gradient_trilinear(view, position);
      const float lit = detail::headlight_scale(normal, ray.dir, config.ambient);
      sample.r *= lit;
      sample.g *= lit;
      sample.b *= lit;
    }
    // Opacity correction: transfer-function alphas are per unit length.
    sample.a = 1.0f - std::pow(1.0f - sample.a, step);
    out.composite_under(sample);
    return out.a < config.early_termination;
  };

  if (cells == nullptr) {
    for (std::uint64_t n = 0;; ++n) {
      const float t = t_of(n);
      if (t > t_exit) {
        break;
      }
      const bool keep_going = composite_sample(t);
      if (stats != nullptr) {
        ++stats->samples_taken;
      }
      if (!keep_going) {
        break;
      }
    }
    return out;
  }

  const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y, 1.0f / ray.dir.z};
  std::uint64_t n = 0;
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
      bool keep_going = true;
      do {
        keep_going = composite_sample(t_of(n));
        if (stats != nullptr) {
          ++stats->samples_taken;
        }
        ++n;
      } while (keep_going && t_of(n) <= exit);
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
/// job.prepare (not at build time), so back-to-back queued renders of one
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
  validate_step(config.step);
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
  job.output = image.pixels().data();
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
