#include "sfcvis/verify/fuzz.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gaussian.hpp"
#include "sfcvis/filters/median.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/image.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/verify/rng.hpp"

namespace sfcvis::verify {
namespace {

using core::AnyVolume;
using core::ArrayOrderLayout;
using core::Extents3D;
using core::Grid3D;
using core::LayoutKind;
using ArrayGrid = core::ArrayVolume;

void record(FuzzSummary& summary, DiffReport report) {
  ++summary.checks;
  if (!report.ok) {
    summary.failures.push_back(std::move(report));
  }
}

// ---------------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------------

/// Draws a volume shape from one of four classes: power-of-two cube (the
/// layouts' sweet spot), non-power-of-two cube-ish (padding and partial
/// blocks everywhere), anisotropic (per-axis padding of the Z-order tables),
/// and degenerate (an axis of length 1-2: every voxel is a border voxel).
Extents3D draw_extents(SplitMix64& rng, bool quick, std::ostringstream& desc) {
  Extents3D e;
  switch (rng.below(4)) {
    case 0: {
      const std::uint32_t n = quick ? (rng.chance(50) ? 8u : 16u)
                                    : (rng.chance(50) ? 16u : 32u);
      e = Extents3D::cube(n);
      desc << "shape=pow2-cube";
      break;
    }
    case 1: {
      const std::uint32_t lo = quick ? 5u : 9u;
      const std::uint32_t hi = quick ? 19u : 37u;
      e = {static_cast<std::uint32_t>(rng.range(lo, hi)),
           static_cast<std::uint32_t>(rng.range(lo, hi)),
           static_cast<std::uint32_t>(rng.range(lo, hi))};
      desc << "shape=non-pow2";
      break;
    }
    case 2: {
      static constexpr std::uint32_t kAxes[] = {3, 4, 5, 8, 12, 16, 21, 24};
      const std::uint32_t cap = quick ? 16u : 24u;
      e = {std::min(cap, rng.pick(kAxes)), std::min(cap, rng.pick(kAxes)),
           std::min(cap, rng.pick(kAxes))};
      desc << "shape=aniso";
      break;
    }
    default: {
      const auto thin = static_cast<std::uint32_t>(rng.range(1, 2));
      const auto a = static_cast<std::uint32_t>(rng.range(3, quick ? 17 : 33));
      const auto b = static_cast<std::uint32_t>(rng.range(3, quick ? 17 : 33));
      switch (rng.below(3)) {
        case 0: e = {thin, a, b}; break;
        case 1: e = {a, thin, b}; break;
        default: e = {a, b, thin}; break;
      }
      desc << "shape=degenerate";
      break;
    }
  }
  desc << " " << e.nx << "x" << e.ny << "x" << e.nz;
  return e;
}

/// Deterministic, layout-independent field value at (i, j, k): pure
/// coordinate hash (kind 0), a centered blob with genuinely zero exterior
/// so the flame transfer function has empty space to skip (kind 1), or
/// sparse noise (kind 2). Only IEEE basic operations — exact everywhere.
float field_value(std::uint64_t content_seed, unsigned kind, const Extents3D& e,
                  std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  const float n = hash_unit(content_seed, i, j, k);
  switch (kind) {
    case 0:
      return n;
    case 1: {
      const auto half = [](std::uint32_t dim) {
        return 0.5f * static_cast<float>(dim < 2 ? 2 : dim);
      };
      const float dx = (static_cast<float>(i) - 0.5f * static_cast<float>(e.nx - 1)) / half(e.nx);
      const float dy = (static_cast<float>(j) - 0.5f * static_cast<float>(e.ny - 1)) / half(e.ny);
      const float dz = (static_cast<float>(k) - 0.5f * static_cast<float>(e.nz - 1)) / half(e.nz);
      const float base = 1.0f - (dx * dx + dy * dy + dz * dz) * 1.8f;
      return base <= 0.0f ? 0.0f : base * (0.7f + 0.3f * n);
    }
    default:
      return n > 0.8f ? n : 0.0f;
  }
}

/// The five layout variants of one logical volume, all filled from the same
/// coordinate function — identical logical contents by construction. The
/// gmorton member uses a fresh random interleave pattern per case, so over a
/// fuzz run the whole generalized-Morton family gets differential coverage,
/// not just the canonical degenerate points.
struct VolumeSet {
  AnyVolume array;
  AnyVolume zorder;
  AnyVolume tiled;
  AnyVolume hilbert;
  AnyVolume gmorton;
  /// Out-of-core mirror of the same contents: the array volume packed to a
  /// temporary brick file (random brick edge / inner layout) and re-opened,
  /// usually through the streamed LRU cache with a budget below the working
  /// set so eviction and re-fault paths run on every case.
  AnyVolume bricked;
};

/// Packs `src` to a temporary brick file with randomized geometry and
/// re-opens it. The temp file is removed right after open — on POSIX the
/// open descriptor / mapping keeps the payload readable, so no case leaves
/// files behind even when a check fails.
AnyVolume make_bricked_mirror(const AnyVolume& src, SplitMix64& rng,
                              std::ostringstream& desc) {
  namespace fs = std::filesystem;
  core::BrickPackOptions popts;
  static constexpr std::uint32_t kEdges[] = {8, 16, 32};
  popts.brick_edge = rng.pick(kEdges);
  popts.inner_kind = static_cast<LayoutKind>(rng.below(5));
  static constexpr std::uint32_t kInnerTiles[] = {2, 4, 8};
  popts.inner_tile = rng.pick(kInnerTiles);
  if (popts.inner_kind == LayoutKind::kGMorton && rng.chance(60)) {
    popts.interleave = random_interleave(Extents3D::cube(popts.brick_edge), rng);
  }
  const fs::path path =
      fs::temp_directory_path() /
      ("sfcvis_fuzz_" + std::to_string(rng.next()) + "_" + std::to_string(rng.next()) +
       ".sfcbrk");
  const core::BrickFileInfo info = core::pack_brick_file(path.string(), src, popts);

  core::BrickOpenOptions oopts;
  oopts.prefetch_depth = static_cast<std::uint32_t>(rng.below(4));
  if (rng.chance(75)) {
    // Streamed LRU cache with a budget below the working set whenever the
    // file has more than one brick, so demand faults and evictions happen.
    const std::uint64_t resident =
        info.brick_count > 1 ? rng.range(1, info.brick_count - 1) : 1;
    oopts.cache_bytes = static_cast<std::size_t>(resident) * info.brick_bytes();
    oopts.force_stream = true;
  }
  core::BrickedVolume vol = core::BrickedVolume::open(path.string(), oopts);
  std::error_code ec;
  fs::remove(path, ec);
  desc << " bricked=e" << popts.brick_edge << ":" << core::to_string(popts.inner_kind)
       << (vol.mmapped() ? ":mmap" : ":stream") << ":pf" << oopts.prefetch_depth;
  return AnyVolume(std::move(vol));
}

VolumeSet make_volumes(const Extents3D& e, std::uint64_t content_seed, unsigned kind,
                       std::uint32_t tile, SplitMix64& rng, std::ostringstream& desc) {
  core::VolumeOpts opts;
  opts.tile = tile;
  opts.interleave = random_interleave(e, rng);
  VolumeSet v{core::make_volume(LayoutKind::kArray, e, opts),
              core::make_volume(LayoutKind::kZOrder, e, opts),
              core::make_volume(LayoutKind::kTiled, e, opts),
              core::make_volume(LayoutKind::kHilbert, e, opts),
              core::make_volume(LayoutKind::kGMorton, e, opts),
              AnyVolume{}};
  const auto fill = [&](auto& grid) {
    grid.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      return field_value(content_seed, kind, e, i, j, k);
    });
  };
  fill(v.array);
  fill(v.zorder);
  fill(v.tiled);
  fill(v.hilbert);
  fill(v.gmorton);
  desc << " fill=" << kind << " tile=" << tile << " gmorton=" << opts.interleave;
  v.bricked = make_bricked_mirror(v.array, rng, desc);
  return v;
}

// ---------------------------------------------------------------------------
// gather_row spot checks
// ---------------------------------------------------------------------------

/// Checks a few random gather_row calls (random axis, start, length —
/// including starts inside blocks and runs crossing block boundaries)
/// against a plain at() walk. This is the primitive the sliding-window
/// bilateral path trusts; the GeneralizedMortonLayout overload walks the curve
/// incrementally, so misbehaviour shows up here before it smears into a
/// whole filtered volume.
template <core::VolumeBackend VolT>
void spot_check_gather(FuzzSummary& summary, const VolT& grid,
                       SplitMix64& rng, unsigned rows) {
  const char* backend_name = "bricked";
  if constexpr (requires { typename VolT::layout_type; }) {
    backend_name = VolT::layout_type::name().data();
  }
  const Extents3D& e = grid.extents();
  for (unsigned rep = 0; rep < rows; ++rep) {
    const auto axis = static_cast<core::Axis3>(rng.below(3));
    std::uint32_t i = static_cast<std::uint32_t>(rng.below(e.nx));
    std::uint32_t j = static_cast<std::uint32_t>(rng.below(e.ny));
    std::uint32_t k = static_cast<std::uint32_t>(rng.below(e.nz));
    const std::uint32_t len = axis == core::Axis3::kX ? e.nx
                              : axis == core::Axis3::kY ? e.ny
                                                        : e.nz;
    std::uint32_t& along = axis == core::Axis3::kX ? i : axis == core::Axis3::kY ? j : k;
    along = static_cast<std::uint32_t>(rng.below(len));
    const auto count = static_cast<std::uint32_t>(rng.range(1, len - along));

    std::vector<float> out(count);
    core::gather_row(grid, axis, i, j, k, count, out.data());

    std::ostringstream ctx;
    ctx << "gather_row [" << backend_name << "] axis=" << static_cast<int>(axis) << " start=("
        << i << "," << j << "," << k << ") count=" << count;
    const std::uint32_t start = along;
    record(summary, detail::compare_elements(
                        count, Tolerance::bit_identical(), ctx.str(),
                        [&](std::uint64_t t) {
                          const auto d = static_cast<std::uint32_t>(t);
                          const std::uint32_t ti = axis == core::Axis3::kX ? start + d : i;
                          const std::uint32_t tj = axis == core::Axis3::kY ? start + d : j;
                          const std::uint32_t tk = axis == core::Axis3::kZ ? start + d : k;
                          return std::pair<float, float>(grid.at(ti, tj, tk), out[t]);
                        },
                        [&](std::uint64_t t) {
                          const auto d = static_cast<std::uint32_t>(t);
                          return std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>(
                              axis == core::Axis3::kX ? start + d : i,
                              axis == core::Axis3::kY ? start + d : j,
                              axis == core::Axis3::kZ ? start + d : k);
                        }));
  }
}

// ---------------------------------------------------------------------------
// Bilateral
// ---------------------------------------------------------------------------

filters::BilateralParams draw_bilateral(SplitMix64& rng, bool quick) {
  filters::BilateralParams p;
  p.radius = quick ? (rng.chance(75) ? 1u : 2u) : static_cast<unsigned>(rng.range(1, 3));
  p.sigma_spatial = rng.uniform(1.0f, 2.5f);
  p.sigma_range = rng.uniform(0.08f, 0.25f);
  p.pencil = static_cast<filters::PencilAxis>(rng.below(3));
  p.order = rng.chance(50) ? filters::LoopOrder::kXYZ : filters::LoopOrder::kZYX;
  p.use_gather = rng.chance(60);
  p.fast_exp = rng.chance(50);
  return p;
}

/// Accuracy tier of a configuration against bilateral_reference (serial,
/// array-order, xyz tap order), per the contracts in bilateral.hpp:
///
///  * non-gather, xyz order: the same per-voxel expression — bit-identical.
///  * non-gather, zyx order: tap-sum reassociation only.
///  * exact gather (no fast_exp), (pz, xyz): plane-major tap order
///    coincides with xyz — bit-identical; other axes/orders reassociate.
///  * gather + fast_exp: fast_exp_neg approximation on the range weight,
///    summed in SIMD lane-strided partial sums.
Tolerance bilateral_tier(const filters::BilateralParams& p) {
  if (p.use_gather) {
    if (p.fast_exp) {
      return Tolerance::absolute(5.0e-5f);
    }
    if (p.pencil == filters::PencilAxis::kZ && p.order == filters::LoopOrder::kXYZ) {
      return Tolerance::bit_identical();
    }
    return Tolerance::absolute(1.0e-5f);
  }
  return p.order == filters::LoopOrder::kXYZ ? Tolerance::bit_identical()
                                             : Tolerance::absolute(1.0e-5f);
}

std::string bilateral_label(const filters::BilateralParams& p) {
  std::ostringstream out;
  out << "bilateral r" << p.radius << " p"
      << (p.pencil == filters::PencilAxis::kX   ? "x"
          : p.pencil == filters::PencilAxis::kY ? "y"
                                                : "z")
      << (p.order == filters::LoopOrder::kXYZ ? " xyz" : " zyx");
  if (p.use_gather) {
    out << " gather";
    if (p.fast_exp) {
      out << "+fastexp";
    }
  }
  return out.str();
}

ArrayGrid run_bilateral(const AnyVolume& src, const filters::BilateralParams& p,
                        exec::ExecutionContext& pool) {
  ArrayGrid dst(ArrayOrderLayout(src.extents()));
  filters::bilateral_parallel(src, dst, p, pool);
  return dst;
}

void fuzz_bilateral(FuzzSummary& summary, const VolumeSet& vols, SplitMix64& rng,
                    bool quick, exec::ExecutionContext& pool, std::ostringstream& desc) {
  const unsigned configs = quick ? 2 : 3;
  for (unsigned c = 0; c < configs; ++c) {
    const filters::BilateralParams p = draw_bilateral(rng, quick);
    const std::string label = bilateral_label(p);
    desc << " | " << label;

    const ArrayGrid oracle = run_bilateral(vols.array, p, pool);
    record(summary, compare_grids(oracle, run_bilateral(vols.zorder, p, pool),
                                  Tolerance::bit_identical(), label + " [z-order vs array]"));
    record(summary, compare_grids(oracle, run_bilateral(vols.tiled, p, pool),
                                  Tolerance::bit_identical(), label + " [tiled vs array]"));
    record(summary, compare_grids(oracle, run_bilateral(vols.hilbert, p, pool),
                                  Tolerance::bit_identical(), label + " [hilbert vs array]"));
    record(summary, compare_grids(oracle, run_bilateral(vols.gmorton, p, pool),
                                  Tolerance::bit_identical(), label + " [gmorton vs array]"));
    record(summary, compare_grids(oracle, run_bilateral(vols.bricked, p, pool),
                                  Tolerance::bit_identical(), label + " [bricked vs array]"));

    ArrayGrid reference(ArrayOrderLayout(vols.array.extents()));
    filters::bilateral_reference(vols.array.as<ArrayOrderLayout>(), reference, p.radius,
                                 p.sigma_spatial, p.sigma_range);
    record(summary, compare_grids(reference, oracle, bilateral_tier(p),
                                  label + " [vs serial reference]"));
  }

  if (rng.chance(40)) {
    // Curve-order sweep: xyz tap order makes the per-voxel expression match
    // the reference exactly; only the traversal (and thus nothing visible)
    // differs.
    filters::BilateralParams p;
    p.radius = 1;
    p.sigma_spatial = rng.uniform(1.0f, 2.5f);
    p.sigma_range = rng.uniform(0.08f, 0.25f);
    p.order = filters::LoopOrder::kXYZ;
    desc << " | zsweep";
    ArrayGrid reference(ArrayOrderLayout(vols.array.extents()));
    filters::bilateral_reference(vols.array.as<ArrayOrderLayout>(), reference, p.radius,
                                 p.sigma_spatial, p.sigma_range);
    ArrayGrid swept(ArrayOrderLayout(vols.array.extents()));
    filters::bilateral_zsweep(vols.zorder, swept, p, pool);
    record(summary, compare_grids(reference, swept, Tolerance::bit_identical(),
                                  "bilateral zsweep r1 xyz [z-order vs serial reference]"));
  }
}

// ---------------------------------------------------------------------------
// Gaussian / median
// ---------------------------------------------------------------------------

void fuzz_smoother(FuzzSummary& summary, const VolumeSet& vols, SplitMix64& rng,
                   exec::ExecutionContext& pool, std::ostringstream& desc) {
  const Extents3D& e = vols.array.extents();
  ArrayGrid oracle{ArrayOrderLayout(e)};
  ArrayGrid out{ArrayOrderLayout(e)};
  if (rng.chance(50)) {
    const auto radius = static_cast<unsigned>(rng.range(1, 2));
    const float sigma = rng.uniform(0.8f, 2.0f);
    desc << " | gaussian r" << radius;
    filters::gaussian_convolve(vols.array, oracle, radius, sigma, pool);
    const auto check = [&](const auto& src, const char* name) {
      filters::gaussian_convolve(src, out, radius, sigma, pool);
      record(summary, compare_grids(oracle, out, Tolerance::bit_identical(),
                                    std::string("gaussian [") + name + " vs array]"));
    };
    check(vols.zorder, "z-order");
    check(vols.tiled, "tiled");
    check(vols.hilbert, "hilbert");
    check(vols.gmorton, "gmorton");
    check(vols.bricked, "bricked");
  } else {
    desc << " | median r1";
    filters::median_filter(vols.array, oracle, 1, pool);
    const auto check = [&](const auto& src, const char* name) {
      filters::median_filter(src, out, 1, pool);
      record(summary, compare_grids(oracle, out, Tolerance::bit_identical(),
                                    std::string("median [") + name + " vs array]"));
    };
    check(vols.zorder, "z-order");
    check(vols.tiled, "tiled");
    check(vols.hilbert, "hilbert");
    check(vols.gmorton, "gmorton");
    check(vols.bricked, "bricked");
  }
}

// ---------------------------------------------------------------------------
// Raycast
// ---------------------------------------------------------------------------

void fuzz_raycast(FuzzSummary& summary, const VolumeSet& vols, SplitMix64& rng,
                  bool quick, exec::ExecutionContext& pool, std::ostringstream& desc) {
  const Extents3D& e = vols.array.extents();
  render::RenderConfig cfg;
  cfg.image_width = quick ? 48 : 96;
  cfg.image_height = quick ? 40 : 80;  // non-square: catches u/v transposition
  cfg.tile_size = 16;
  cfg.step = rng.uniform(0.4f, 0.9f);
  cfg.mode = rng.chance(50) ? render::RenderMode::kComposite : render::RenderMode::kMip;
  cfg.shade = rng.chance(30);
  cfg.macrocell_size = rng.chance(50) ? 4u : 8u;
  const auto viewpoint = static_cast<unsigned>(rng.below(8));
  const bool flame = rng.chance(50);
  const render::TransferFunction tf =
      flame ? render::TransferFunction::flame() : render::TransferFunction::grayscale(0.0f, 1.0f);
  const render::Camera camera =
      render::orbit_camera(viewpoint, 8, static_cast<float>(e.nx), static_cast<float>(e.ny),
                           static_cast<float>(e.nz));

  std::ostringstream label;
  label << "raycast vp" << viewpoint
        << (cfg.mode == render::RenderMode::kMip ? " mip" : " composite")
        << (cfg.shade ? " shaded" : "") << (flame ? " flame" : " gray") << " mc"
        << cfg.macrocell_size;
  desc << " | " << label.str();

  const render::Image base = render::raycast_parallel(vols.array, camera, tf, cfg, pool);
  record(summary, compare_images(base, render::raycast_parallel(vols.zorder, camera, tf, cfg, pool),
                                 Tolerance::bit_identical(), label.str() + " [z-order vs array]"));
  record(summary, compare_images(base, render::raycast_parallel(vols.tiled, camera, tf, cfg, pool),
                                 Tolerance::bit_identical(), label.str() + " [tiled vs array]"));
  record(summary,
         compare_images(base, render::raycast_parallel(vols.hilbert, camera, tf, cfg, pool),
                        Tolerance::bit_identical(), label.str() + " [hilbert vs array]"));
  record(summary,
         compare_images(base, render::raycast_parallel(vols.gmorton, camera, tf, cfg, pool),
                        Tolerance::bit_identical(), label.str() + " [gmorton vs array]"));
  record(summary,
         compare_images(base, render::raycast_parallel(vols.bricked, camera, tf, cfg, pool),
                        Tolerance::bit_identical(), label.str() + " [bricked vs array]"));

  cfg.use_macrocells = true;
  record(summary, compare_images(base, render::raycast_parallel(vols.array, camera, tf, cfg, pool),
                                 Tolerance::bit_identical(),
                                 label.str() + " [macrocells on vs off, array]"));
  record(summary, compare_images(base, render::raycast_parallel(vols.zorder, camera, tf, cfg, pool),
                                 Tolerance::bit_identical(),
                                 label.str() + " [macrocells on vs off, z-order]"));
  record(summary,
         compare_images(base, render::raycast_parallel(vols.gmorton, camera, tf, cfg, pool),
                        Tolerance::bit_identical(),
                        label.str() + " [macrocells on vs off, gmorton]"));
  // The bricked backend builds its grid through per-worker brick views, and
  // skips empty space over a streamed cache smaller than the working set.
  record(summary,
         compare_images(base, render::raycast_parallel(vols.bricked, camera, tf, cfg, pool),
                        Tolerance::bit_identical(),
                        label.str() + " [macrocells on vs off, bricked]"));
}

}  // namespace

std::string random_interleave(const Extents3D& e, SplitMix64& rng) {
  std::string s = core::InterleavePattern::canonical(e).str();
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng.below(i)]);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

FuzzSummary run_fuzz_case(std::uint64_t seed, const FuzzOptions& opts) {
  FuzzSummary summary;
  summary.seed = seed;
  SplitMix64 rng(seed);
  std::ostringstream desc;

  const Extents3D e = draw_extents(rng, opts.quick, desc);
  summary.extents = e;
  const std::uint64_t content_seed = rng.next();
  const auto fill_kind = static_cast<unsigned>(rng.below(3));
  static constexpr std::uint32_t kTiles[] = {2, 4, 8};
  const VolumeSet vols = make_volumes(e, content_seed, fill_kind, rng.pick(kTiles), rng, desc);

  const auto nthreads = static_cast<unsigned>(rng.range(1, 4));
  exec::ExecutionContext pool(nthreads);
  desc << " threads=" << nthreads;

  const auto spot = [&](const AnyVolume& v, unsigned rows) {
    v.visit([&](const auto& grid) { spot_check_gather(summary, grid, rng, rows); });
  };
  spot(vols.array, 2);
  spot(vols.zorder, 3);
  spot(vols.tiled, 3);
  spot(vols.hilbert, 3);
  spot(vols.gmorton, 3);
  spot(vols.bricked, 3);

  fuzz_bilateral(summary, vols, rng, opts.quick, pool, desc);
  fuzz_smoother(summary, vols, rng, pool, desc);
  if (rng.chance(60)) {
    fuzz_raycast(summary, vols, rng, opts.quick, pool, desc);
  }

  summary.description = desc.str();
  return summary;
}

FuzzSummary run_metamorphic_case(std::uint64_t seed, const FuzzOptions& opts) {
  FuzzSummary summary;
  summary.seed = seed;
  SplitMix64 rng(seed);
  std::ostringstream desc;

  // The mirror invariant needs the volume's x mirror plane (nx-1)/2 and the
  // mirrored eye positions to be exactly representable, so nx is drawn even
  // and the cameras are built from halves and integers only.
  const std::uint32_t nx = rng.chance(50) ? 8u : 16u;
  const std::uint32_t hi = opts.quick ? 14u : 24u;
  const Extents3D e{nx, static_cast<std::uint32_t>(rng.range(6, hi)),
                    static_cast<std::uint32_t>(rng.range(6, hi))};
  summary.extents = e;
  desc << "metamorphic " << e.nx << "x" << e.ny << "x" << e.nz;

  const std::uint64_t content_seed = rng.next();
  const auto fill_kind = static_cast<unsigned>(rng.below(3));
  desc << " fill=" << fill_kind;
  ArrayGrid volume{ArrayOrderLayout(e)};
  volume.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return field_value(content_seed, fill_kind, e, i, j, k);
  });
  ArrayGrid mirrored{ArrayOrderLayout(e)};
  mirrored.fill_from([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return field_value(content_seed, fill_kind, e, e.nx - 1 - i, j, k);
  });

  const auto nthreads = static_cast<unsigned>(rng.range(1, 4));
  exec::ExecutionContext pool(nthreads);
  desc << " threads=" << nthreads;

  render::RenderConfig cfg;
  cfg.image_width = 64;  // powers of two: pixel u/v offsets are exactly
  cfg.image_height = 32;  // sign-symmetric about the image center
  cfg.tile_size = 16;
  cfg.step = rng.uniform(0.4f, 0.9f);
  cfg.mode = rng.chance(50) ? render::RenderMode::kComposite : render::RenderMode::kMip;
  const bool flame = rng.chance(50);
  const render::TransferFunction tf =
      flame ? render::TransferFunction::flame() : render::TransferFunction::grayscale(0.0f, 1.0f);
  desc << (cfg.mode == render::RenderMode::kMip ? " mip" : " composite")
       << (flame ? " flame" : " gray");

  {
    // Mirror-flip invariant: viewing the volume from +x and its x-mirror
    // from -x (mirrored eyes, same target) must produce x-mirrored images.
    // The camera geometry below is exactly mirror-symmetric (halves and
    // integers only), so the slab t-ranges — and with them the per-ray
    // sample counts — are bit-identical; the residual is ray.at(t) double
    // rounding of ~1 ulp per coordinate accumulated over the samples, which
    // is why this check runs under an absolute tier rather than
    // bit-identity. Early termination is disabled (a threshold crossing on
    // a 1-ulp difference would change the sample count discontinuously),
    // and shading stays off (its degenerate-gradient branch is equally
    // discontinuous).
    render::RenderConfig mcfg = cfg;
    mcfg.shade = false;
    mcfg.early_termination = 2.0f;
    const float cx = 0.5f * static_cast<float>(e.nx - 1);
    const float cy = 0.5f * static_cast<float>(e.ny - 1);
    const float cz = 0.5f * static_cast<float>(e.nz - 1);
    const float orbit =
        static_cast<float>(2 * std::max(e.nx, std::max(e.ny, e.nz)) + 8);
    const float lift = 0.25f * orbit;
    const render::Vec3 target{cx, cy, cz};
    const render::Camera cam_pos_x({cx + orbit, cy + lift, cz}, target, {0, 1, 0}, 38.0f,
                                   render::Projection::kPerspective);
    const render::Camera cam_neg_x({cx - orbit, cy + lift, cz}, target, {0, 1, 0}, 38.0f,
                                   render::Projection::kPerspective);
    const render::Image from_pos = render::raycast_parallel(volume, cam_pos_x, tf, mcfg, pool);
    const render::Image from_neg =
        render::raycast_parallel(mirrored, cam_neg_x, tf, mcfg, pool);
    record(summary, compare_images_mirrored_x(from_pos, from_neg, Tolerance::absolute(1.0e-3f),
                                              "metamorphic mirror-flip raycast"));
  }

  // Macrocell skipping must be an identity at every orbit viewpoint — the
  // skip geometry changes with the view direction, the image must not.
  cfg.shade = rng.chance(30);
  cfg.macrocell_size = rng.chance(50) ? 4u : 8u;
  const auto zvolume = core::convert_layout<core::GeneralizedMortonLayout>(volume);
  for (unsigned vp = 0; vp < 8; ++vp) {
    const render::Camera camera = render::orbit_camera(
        vp, 8, static_cast<float>(e.nx), static_cast<float>(e.ny), static_cast<float>(e.nz));
    cfg.use_macrocells = false;
    const render::Image dense = render::raycast_parallel(zvolume, camera, tf, cfg, pool);
    cfg.use_macrocells = true;
    const render::Image skipped = render::raycast_parallel(zvolume, camera, tf, cfg, pool);
    std::ostringstream ctx;
    ctx << "metamorphic macrocell identity vp" << vp << " mc" << cfg.macrocell_size;
    record(summary, compare_images(dense, skipped, Tolerance::bit_identical(), ctx.str()));
  }

  summary.description = desc.str();
  return summary;
}

}  // namespace sfcvis::verify
