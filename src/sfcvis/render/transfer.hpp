// Transfer function mapping scalar data values to color and opacity —
// the standard volume-rendering classification stage (Levoy 1988; Drebin
// et al. 1988, both cited by the paper).
#pragma once

#include <vector>

#include "sfcvis/render/image.hpp"

namespace sfcvis::render {

/// One control point of a piecewise-linear transfer function.
struct TransferPoint {
  float value = 0;  ///< scalar data value
  Rgba color;       ///< color + opacity at that value (straight alpha)
};

/// Piecewise-linear color/opacity map over scalar values.
class TransferFunction {
 public:
  /// Control points must be sorted by value, with finite values and
  /// colours and alpha in [0, 1] (validated; throws std::invalid_argument
  /// otherwise). At least one point is required. Finite colours keep the
  /// renderer's skip of transparent samples exact (inf * 0 is NaN), and
  /// alpha <= 1 keeps the opacity correction's pow base non-negative.
  explicit TransferFunction(std::vector<TransferPoint> points);

  /// Linearly interpolated RGBA at `value`; clamps outside the range. NaN
  /// maps to the first control point's colour.
  [[nodiscard]] Rgba sample(float value) const noexcept;

  /// Conservative upper bound on the opacity the transfer function assigns
  /// to any value in [lo, hi] (endpoints inclusive, order-insensitive,
  /// clamped to the control-point range like sample()).
  ///
  /// Backed by a binned piecewise-max table over the control-point alpha
  /// envelope plus a sparse max table, so the query is O(1) — it is the
  /// macrocell transparency test on the renderer's per-ray hot path. The
  /// bound is exact up to one guard bin on each side of the interval:
  /// never smaller than the true maximum, and never larger than the
  /// maximum over the interval widened by two bins. In particular it
  /// returns exactly 0 iff the alpha envelope is identically 0 on the
  /// covered bins, which is what makes "max_opacity(min, max) <= 0" a safe
  /// empty-space classification for macrocells.
  [[nodiscard]] float max_opacity(float lo, float hi) const noexcept;

  /// Flame-style map for combustion-like [0, 1] fields: fully transparent
  /// cold regions (alpha exactly 0 below the fuel-haze threshold, so
  /// empty-space skipping can classify them), glowing orange sheet, bright
  /// white core.
  [[nodiscard]] static TransferFunction flame();

  /// Grayscale map with linear opacity ramp for MRI-like data.
  [[nodiscard]] static TransferFunction grayscale(float min_value, float max_value);

  [[nodiscard]] const std::vector<TransferPoint>& points() const noexcept { return points_; }

 private:
  void build_opacity_envelope();
  [[nodiscard]] float alpha_at(float value) const noexcept;

  std::vector<TransferPoint> points_;

  // Binned alpha envelope: env_[level][b] is the max alpha over bins
  // [b, b + 2^level); level 0 holds the per-bin piecewise maxima.
  // Sparse-table layout gives O(1) range-max queries.
  std::vector<std::vector<float>> env_;
  float env_lo_ = 0.0f;        ///< value of the left edge of bin 0
  float env_inv_width_ = 0.0f; ///< 1 / bin width (0 for a degenerate range)
};

}  // namespace sfcvis::render
