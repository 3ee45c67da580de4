// Memory-layout policies mapping logical (i, j, k) coordinates to linear
// storage offsets.
//
// The study design (paper Sec. III-C) requires that swapping the layout is
// transparent to the kernels: all four policies satisfy the Layout3D
// concept below, and kernels are templated on the policy.
//
//  * ArrayOrderLayout        — classic row-major: the unpadded control.
//  * GeneralizedMortonLayout — any per-axis bit interleave (core/gmorton.hpp);
//                              its canonical pattern is the Morton/Z curve,
//                              the paper's subject.
//  * TiledLayout             — blocked/tiled layout: the blocking baseline
//                              (Pascucci & Frank's "3D blocking" comparator).
//  * HilbertLayout           — Hilbert space-filling curve: SFC baseline with
//                              better locality but costlier indexing
//                              (Reissmann et al. 2014).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string_view>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/hilbert.hpp"

namespace sfcvis::core {

/// A 3D layout maps in-bounds (i, j, k) to a unique offset inside
/// [0, required_capacity()).
template <class L>
concept Layout3D = requires(const L layout, std::uint32_t c) {
  { layout.index(c, c, c) } -> std::same_as<std::size_t>;
  { layout.extents() } -> std::convertible_to<Extents3D>;
  { layout.required_capacity() } -> std::same_as<std::size_t>;
  { L::name() } -> std::convertible_to<std::string_view>;
};

/// A Layout3D whose index is a sum of per-axis terms:
/// index(i, j, k) == x_offset(i) + y_offset(j) + z_offset(k). These are the
/// paper's per-axis offset tables (Sec. III-C: A-order i + yoffset[j] +
/// zoffset[k], Z-order xtab[i] | ytab[j] | ztab[k]); Grid3D::cell_clamped
/// uses them to address a 2x2x2 cell with six axis terms and eight adds.
template <class L>
concept SeparableLayout = Layout3D<L> && requires(const L layout, std::uint32_t c) {
  { layout.x_offset(c) } -> std::same_as<std::size_t>;
  { layout.y_offset(c) } -> std::same_as<std::size_t>;
  { layout.z_offset(c) } -> std::same_as<std::size_t>;
};

// ---------------------------------------------------------------------------
// Array order (row-major)
// ---------------------------------------------------------------------------

/// Row-major layout: index = i + nx*(j + ny*k). X is fastest-varying.
class ArrayOrderLayout {
 public:
  ArrayOrderLayout() = default;
  explicit ArrayOrderLayout(const Extents3D& e) : extents_(e) { validate_extents(e); }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return i + static_cast<std::size_t>(extents_.nx) *
                   (j + static_cast<std::size_t>(extents_.ny) * k);
  }

  /// Per-axis terms of index(): i, j*nx and k*nx*ny.
  [[nodiscard]] std::size_t x_offset(std::uint32_t i) const noexcept { return i; }
  [[nodiscard]] std::size_t y_offset(std::uint32_t j) const noexcept {
    return static_cast<std::size_t>(extents_.nx) * j;
  }
  [[nodiscard]] std::size_t z_offset(std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(extents_.nx) * extents_.ny * k;
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept { return extents_.size(); }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "array-order"; }

 private:
  Extents3D extents_{};
};

// ---------------------------------------------------------------------------
// Tiled / blocked
// ---------------------------------------------------------------------------

/// Blocked layout: the volume is split into bx*by*bz tiles stored
/// contiguously; tiles are ordered row-major over the tile grid and voxels
/// row-major within a tile. Tile dims must be powers of two.
class TiledLayout {
 public:
  TiledLayout() = default;

  TiledLayout(const Extents3D& e, std::uint32_t bx, std::uint32_t by, std::uint32_t bz)
      : extents_(e), bx_(bx), by_(by), bz_(bz) {
    validate_extents(e);
    if (!std::has_single_bit(bx) || !std::has_single_bit(by) || !std::has_single_bit(bz)) {
      throw std::invalid_argument("TiledLayout: tile dims must be powers of two");
    }
    lbx_ = log2_pow2(bx);
    lby_ = log2_pow2(by);
    lbz_ = log2_pow2(bz);
    tiles_x_ = (e.nx + bx - 1) >> lbx_;
    tiles_y_ = (e.ny + by - 1) >> lby_;
    tiles_z_ = (e.nz + bz - 1) >> lbz_;
  }

  /// Cubic-tile convenience constructor (default 8^3 tiles: one 4-byte tile
  /// is then two cache lines wide in x).
  explicit TiledLayout(const Extents3D& e, std::uint32_t b = 8) : TiledLayout(e, b, b, b) {}

  /// (tile << tile_bits) + within-tile offset, with tile and within-tile
  /// offset both row-major: a sum of one term per axis.
  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return x_offset(i) + y_offset(j) + z_offset(k);
  }

  /// Per-axis terms of index(): each axis's tile step plus its in-tile step.
  [[nodiscard]] std::size_t x_offset(std::uint32_t i) const noexcept {
    return (static_cast<std::size_t>(i >> lbx_) << (lbx_ + lby_ + lbz_)) + (i & (bx_ - 1));
  }
  [[nodiscard]] std::size_t y_offset(std::uint32_t j) const noexcept {
    return ((static_cast<std::size_t>(tiles_x_) * (j >> lby_)) << (lbx_ + lby_ + lbz_)) +
           (static_cast<std::size_t>(j & (by_ - 1)) << lbx_);
  }
  [[nodiscard]] std::size_t z_offset(std::uint32_t k) const noexcept {
    return ((static_cast<std::size_t>(tiles_x_) * tiles_y_ * (k >> lbz_))
            << (lbx_ + lby_ + lbz_)) +
           (static_cast<std::size_t>(k & (bz_ - 1)) << (lbx_ + lby_));
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept {
    return (static_cast<std::size_t>(tiles_x_) * tiles_y_ * tiles_z_) << (lbx_ + lby_ + lbz_);
  }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "tiled"; }

  [[nodiscard]] std::uint32_t tile_x() const noexcept { return bx_; }
  [[nodiscard]] std::uint32_t tile_y() const noexcept { return by_; }
  [[nodiscard]] std::uint32_t tile_z() const noexcept { return bz_; }

 private:
  Extents3D extents_{};
  std::uint32_t bx_ = 1, by_ = 1, bz_ = 1;
  unsigned lbx_ = 0, lby_ = 0, lbz_ = 0;
  std::uint32_t tiles_x_ = 0, tiles_y_ = 0, tiles_z_ = 0;
};

// ---------------------------------------------------------------------------
// Hilbert order
// ---------------------------------------------------------------------------

/// Hilbert-curve layout over the enclosing power-of-two cube. Indexing is
/// computed per access (the curve is not separable into per-axis tables),
/// which is exactly the cost asymmetry Reissmann et al. observed; see
/// bench/abl_layout_compare.
class HilbertLayout {
 public:
  HilbertLayout() = default;
  explicit HilbertLayout(const Extents3D& e) : extents_(e) {
    validate_extents(e);
    const Extents3D p = padded_pow2(e);
    bits_ = log2_pow2(std::max(p.nx, std::max(p.ny, p.nz)));
  }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(hilbert_encode_3d(i, j, k, bits_));
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept {
    return std::size_t{1} << (3 * bits_);
  }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "hilbert"; }

  [[nodiscard]] unsigned bits() const noexcept { return bits_; }

 private:
  Extents3D extents_{};
  unsigned bits_ = 0;
};

static_assert(Layout3D<ArrayOrderLayout>);
static_assert(Layout3D<GeneralizedMortonLayout>);
static_assert(Layout3D<TiledLayout>);
static_assert(Layout3D<HilbertLayout>);
static_assert(SeparableLayout<ArrayOrderLayout>);
static_assert(SeparableLayout<GeneralizedMortonLayout>);
static_assert(SeparableLayout<TiledLayout>);
static_assert(!SeparableLayout<HilbertLayout>);

}  // namespace sfcvis::core
