// Macrocell min-max grid: the renderer's empty-space-skipping acceleration
// structure.
//
// The volume is summarized at block granularity: one macrocell per B^3
// voxel block stores the [min, max] of every voxel a trilinear sample
// taken inside the cell can touch. ClassifiedCells adds each cell's class
// under one transfer function: transparent when that range classifies to
// zero opacity. trace_ray (raycast.hpp) walks rays over runs of cells of
// one class, stepping from cell to cell with MacrocellGrid::next_cell, and
// skips a transparent run in O(1) — the dominant cost of the paper's
// raycaster on mostly-transparent data is exactly those wasted taps.
//
// Every backend builds one way: each cell scans its footprint box through
// a read view, so the grid depends on the voxel values alone, never on the
// layout. Cells are independent, so the build parallelizes over the
// threads::Pool with the dynamic work queue.
//
// Footprint: a sample at continuous position p inside cell c reads lattice
// neighbours floor(p) and floor(p)+1, which reach one voxel past the
// block's upper face; the traversal in raycast.hpp additionally attributes
// samples to cells from positions that can sit an ulp past a cell face.
// Each cell's [min, max] therefore covers the block widened by one voxel
// on every side (clamped to the volume), making the classification robust
// to any sub-voxel rounding of the ray marcher.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/render/vec.hpp"
#include "sfcvis/trace/trace.hpp"

namespace sfcvis::render {

/// Inclusive scalar value range of one macrocell's footprint; [-inf, +inf]
/// when the footprint holds a NaN, which no range test may skip.
struct ValueRange {
  float min = 0.0f;
  float max = 0.0f;
};

/// Macrocell coordinate triple (block-grid space).
struct CellCoord {
  std::uint32_t i = 0, j = 0, k = 0;
};

/// Number of macrocells covering `volume` at block size `block` per axis.
[[nodiscard]] core::Extents3D macrocell_extents(const core::Extents3D& volume,
                                                std::uint32_t block);

/// Min-max summary grid over B^3 voxel blocks of one float volume.
class MacrocellGrid {
 public:
  MacrocellGrid() = default;

  /// Builds the grid for `volume`. Throws std::invalid_argument when
  /// `block` is zero. When `ctx` is non-null the cells are computed in
  /// parallel on its dynamic dispatch; the result is identical either
  /// way (each cell is written exactly once).
  template <core::VolumeBackend VolT>
  [[nodiscard]] static MacrocellGrid build(const VolT& volume,
                                           std::uint32_t block = 8,
                                           exec::ExecutionContext* ctx = nullptr);

  /// Facade build: dispatches on the volume's runtime layout.
  [[nodiscard]] static MacrocellGrid build(const core::AnyVolume& volume,
                                           std::uint32_t block = 8,
                                           exec::ExecutionContext* ctx = nullptr) {
    return volume.visit([&](const auto& grid) { return build(grid, block, ctx); });
  }

  [[nodiscard]] bool empty() const noexcept { return block_ == 0; }
  [[nodiscard]] std::uint32_t block_size() const noexcept { return block_; }
  [[nodiscard]] const core::Extents3D& cell_extents() const noexcept { return cells_; }
  [[nodiscard]] const core::Extents3D& volume_extents() const noexcept { return volume_; }

  /// Value range of cell (cx, cy, cz); coordinates must be in
  /// cell_extents().
  [[nodiscard]] ValueRange range(std::uint32_t cx, std::uint32_t cy,
                                 std::uint32_t cz) const noexcept {
    return range(CellCoord{cx, cy, cz});
  }

  [[nodiscard]] ValueRange range(const CellCoord& c) const noexcept {
    const std::size_t idx = index(c);
    return ValueRange{min_[idx], max_[idx]};
  }

  /// Row-major (x fastest) position of cell `c` in cell_extents().
  [[nodiscard]] std::size_t index(const CellCoord& c) const noexcept {
    return c.i + static_cast<std::size_t>(cells_.nx) *
                     (c.j + static_cast<std::size_t>(cells_.ny) * c.k);
  }

  /// Cell containing continuous voxel position `p`, clamped to the grid —
  /// positions in the half-voxel apron around the volume (the renderer's
  /// bounding box extends 0.5 voxels past the lattice) map to the border
  /// cells whose clamped footprint covers the apron samples.
  [[nodiscard]] CellCoord cell_of(const Vec3& p) const noexcept {
    const auto clamp_axis = [](float v, float inv_b, std::uint32_t n) {
      const float c = std::floor(v * inv_b);
      return static_cast<std::uint32_t>(
          std::clamp(c, 0.0f, static_cast<float>(n - 1)));
    };
    return CellCoord{clamp_axis(p.x, inv_block_, cells_.nx),
                     clamp_axis(p.y, inv_block_, cells_.ny),
                     clamp_axis(p.z, inv_block_, cells_.nz)};
  }

  /// Ray parameter at which the ray leaves cell `c`, computed per-axis
  /// from the ray origin (no accumulated DDA state, so it cannot drift).
  /// `inv_dir` holds 1/dir per component (+-inf where dir is 0). May be
  /// smaller than the current parameter for positions that were clamped
  /// into a border cell; the traversal guarantees progress regardless.
  [[nodiscard]] float cell_exit(const Vec3& origin, const Vec3& inv_dir,
                                const CellCoord& c) const noexcept {
    float t = std::numeric_limits<float>::max();
    t = std::min(t, exit_term(origin.x, inv_dir.x, c.i));
    t = std::min(t, exit_term(origin.y, inv_dir.y, c.j));
    t = std::min(t, exit_term(origin.z, inv_dir.z, c.k));
    return t;
  }

  /// Amanatides & Woo successor: moves `c` to the neighbour across the
  /// face through which the ray leaves it and returns true. That face is
  /// the axis whose cell_exit term is smallest: the same per-axis
  /// expression, a NaN term passed over as cell_exit's std::min passes
  /// over it, and ties broken toward x, then y, then z. Returns false and
  /// leaves `c` unchanged when that face is the grid's boundary, or when
  /// the smallest term is not finite: -inf marks a cell the ray is not in
  /// (a position clamped into a border cell), and no term below float max
  /// a ray that leaves by no face.
  [[nodiscard]] bool next_cell(const Vec3& origin, const Vec3& inv_dir,
                               CellCoord& c) const noexcept {
    const float tx = exit_term(origin.x, inv_dir.x, c.i);
    const float ty = exit_term(origin.y, inv_dir.y, c.j);
    const float tz = exit_term(origin.z, inv_dir.z, c.k);
    float t = std::numeric_limits<float>::max();
    int axis = -1;
    if (tx < t) {
      t = tx;
      axis = 0;
    }
    if (ty < t) {
      t = ty;
      axis = 1;
    }
    if (tz < t) {
      t = tz;
      axis = 2;
    }
    if (axis < 0 || t == -std::numeric_limits<float>::infinity()) {
      return false;
    }
    // Across exit_term's choice of face: the upper one for inv >= 0.
    const auto cross = [](std::uint32_t& v, float inv, std::uint32_t n) {
      const bool up = inv >= 0.0f;
      if (up ? v + 1 >= n : v == 0) {
        return false;
      }
      v = up ? v + 1 : v - 1;
      return true;
    };
    switch (axis) {
      case 0:
        return cross(c.i, inv_dir.x, cells_.nx);
      case 1:
        return cross(c.j, inv_dir.y, cells_.ny);
      default:
        return cross(c.k, inv_dir.z, cells_.nz);
    }
  }

 private:
  /// Ray parameter at which a ray from `o` with reciprocal direction `inv`
  /// crosses cell `cell`'s forward face on one axis: cell_exit's and
  /// next_cell's shared per-axis expression. +-inf or NaN when inv is
  /// +-inf.
  [[nodiscard]] float exit_term(float o, float inv, std::uint32_t cell) const noexcept {
    const float b = static_cast<float>(block_);
    const float lo = static_cast<float>(cell) * b;
    const float bound = inv >= 0.0f ? lo + b : lo;
    return (bound - o) * inv;
  }

  template <core::ReadView3D ViewT>
  static void compute_cell(const core::Extents3D& e, const ViewT& view,
                           std::uint32_t block, const CellCoord& c, float& out_min,
                           float& out_max);

  core::Extents3D volume_{};
  core::Extents3D cells_{};
  std::uint32_t block_ = 0;
  float inv_block_ = 0.0f;
  std::vector<float> min_, max_;
};

/// A macrocell grid together with each cell's class under one transfer
/// function, computed once, one byte per cell: a cell is transparent when
/// max_opacity over its value range is <= 0, so every sample inside it
/// classifies to alpha exactly 0. The composite ray walk reads only this
/// table; MIP reads the ranges through grid(). Refers to `grid`, which
/// must outlive it.
class ClassifiedCells {
 public:
  ClassifiedCells(const MacrocellGrid& grid, const TransferFunction& tf);
  ClassifiedCells(MacrocellGrid&&, const TransferFunction&) = delete;

  [[nodiscard]] const MacrocellGrid& grid() const noexcept { return *grid_; }
  [[nodiscard]] bool transparent(const CellCoord& c) const noexcept {
    return transparent_[grid_->index(c)] != 0;
  }

 private:
  const MacrocellGrid* grid_;
  std::vector<std::uint8_t> transparent_;
};

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

template <core::ReadView3D ViewT>
void MacrocellGrid::compute_cell(const core::Extents3D& e, const ViewT& view,
                                 std::uint32_t block, const CellCoord& c, float& out_min,
                                 float& out_max) {
  const std::int64_t b = block;
  // Inclusive footprint box: block widened by one voxel per side, clamped.
  const auto fp_lo = [&](std::uint32_t cell) { return std::max<std::int64_t>(0, cell * b - 1); };
  const auto fp_hi = [&](std::uint32_t cell, std::uint32_t n) {
    return std::min<std::int64_t>(n - 1, (cell + std::int64_t{1}) * b + 1);
  };
  const std::int64_t x0 = fp_lo(c.i), x1 = fp_hi(c.i, e.nx);
  const std::int64_t y0 = fp_lo(c.j), y1 = fp_hi(c.j, e.ny);
  const std::int64_t z0 = fp_lo(c.k), z1 = fp_hi(c.k, e.nz);

  // The fold runs kLanes independent min/max chains, so it is not one
  // latency-bound chain of dependent min/max operations: each full group of
  // kLanes voxels in a row spreads over the lanes, and the row's remainder
  // folds into lane 0 (constant lane indices keep the lanes in registers).
  // Voxels are read in the same order as one chain would read them (a
  // bricked view acquires its bricks in that order), and min/max are exact,
  // so the lanes fold to the same range.
  constexpr std::int64_t kLanes = 4;
  float mn[kLanes], mx[kLanes];
  std::fill(mn, mn + kLanes, std::numeric_limits<float>::max());
  std::fill(mx, mx + kLanes, std::numeric_limits<float>::lowest());
  // std::min/std::max drop NaN, so NaN is tracked on the side.
  bool nan = false;
  const auto fold = [&](std::int64_t lane, std::int64_t i, std::int64_t j, std::int64_t k) {
    const float v = view.at(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j),
                            static_cast<std::uint32_t>(k));
    mn[lane] = std::min(mn[lane], v);
    mx[lane] = std::max(mx[lane], v);
    nan |= std::isnan(v);
  };
  for (std::int64_t k = z0; k <= z1; ++k) {
    for (std::int64_t j = y0; j <= y1; ++j) {
      std::int64_t i = x0;
      for (; i + kLanes - 1 <= x1; i += kLanes) {
        for (std::int64_t q = 0; q < kLanes; ++q) {
          fold(q, i + q, j, k);
        }
      }
      for (; i <= x1; ++i) {
        fold(0, i, j, k);
      }
    }
  }
  for (std::int64_t q = 1; q < kLanes; ++q) {
    mn[0] = std::min(mn[0], mn[q]);
    mx[0] = std::max(mx[0], mx[q]);
  }
  if (nan) {
    // A NaN sample classifies as the transfer function's first point, so
    // the cell must never skip: max_opacity over [-inf, +inf] covers the
    // whole envelope, and no MIP peak is above +inf.
    mn[0] = -std::numeric_limits<float>::infinity();
    mx[0] = std::numeric_limits<float>::infinity();
  }
  out_min = mn[0];
  out_max = mx[0];
}

template <core::VolumeBackend VolT>
MacrocellGrid MacrocellGrid::build(const VolT& volume, std::uint32_t block,
                                   exec::ExecutionContext* ctx) {
  MacrocellGrid grid;
  SFCVIS_TRACE_SPAN("macrocell.build", ctx != nullptr ? "parallel" : "serial");
  grid.volume_ = volume.extents();
  grid.cells_ = macrocell_extents(grid.volume_, block);
  grid.block_ = block;
  grid.inv_block_ = 1.0f / static_cast<float>(block);
  const std::size_t n = grid.cells_.size();
  grid.min_.resize(n);
  grid.max_.resize(n);

  const auto cell_at = [&](std::size_t idx) {
    const std::uint32_t cx = static_cast<std::uint32_t>(idx % grid.cells_.nx);
    const std::uint32_t cy = static_cast<std::uint32_t>((idx / grid.cells_.nx) % grid.cells_.ny);
    const std::uint32_t cz = static_cast<std::uint32_t>(idx / (static_cast<std::size_t>(grid.cells_.nx) * grid.cells_.ny));
    return CellCoord{cx, cy, cz};
  };
  if (ctx != nullptr) {
    // One read view per worker: out-of-core views carry per-worker brick
    // pins and must not be shared across threads (a PlainView is free).
    std::vector<decltype(core::make_read_view(volume))> views;
    views.reserve(ctx->size());
    for (unsigned t = 0; t < ctx->size(); ++t) {
      views.push_back(core::make_read_view(volume));
    }
    ctx->parallel_dynamic(n, [&](std::size_t idx, unsigned tid) {
      compute_cell(grid.volume_, views[tid], block, cell_at(idx), grid.min_[idx],
                   grid.max_[idx]);
    });
  } else {
    const auto view = core::make_read_view(volume);
    for (std::size_t idx = 0; idx < n; ++idx) {
      compute_cell(grid.volume_, view, block, cell_at(idx), grid.min_[idx], grid.max_[idx]);
    }
  }
  return grid;
}

}  // namespace sfcvis::render
