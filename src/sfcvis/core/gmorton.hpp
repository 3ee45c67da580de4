// Generalized Morton layouts: arbitrary per-axis bit-interleave patterns.
//
// The paper's Z-order index (Sec. III-C, after Pascucci & Frank 2001)
// interleaves the coordinate bits round-robin (x0 y0 z0 x1 y1 z1 ...) and
// serves each access from three per-axis tables. Swatman et al.
// (arXiv:2309.07002) observe that this is one point in a much larger
// family: ANY assignment of the padded extents' coordinate bit-planes to
// output bit positions yields a valid bijective layout, and which member
// of the family is fastest depends on the kernel's access pattern, the
// volume shape, and the machine. This header provides that family, and
// with it the paper's layout: LayoutKind::kZOrder is the canonical
// pattern below.
//
//  * InterleavePattern — a validated interleave string such as
//    "zyxzyxzzyyxx". The string is read most-significant-bit first
//    (leftmost character = highest output bit), so canonical Z-order over
//    a cube is "zyxzyx...zyx", row-major array order is "zz..yy..xx"
//    (x fastest), and a pow2 tiled layout groups the low bits of each
//    axis at the bottom. Those three classic layouts are exactly the
//    degenerate points the generators below produce (pinned by
//    tests/test_gmorton.cpp).
//  * GeneralizedMortonLayout — the Layout3D policy: per-axis deposit
//    tables (index = xtab[i] + ytab[j] + ztab[k], three loads and two adds
//    regardless of the pattern — the paper's equal-footing property holds
//    for every family member). A row walk along one axis holds the other
//    two terms fixed, so it pays one table load and one add per element.
//
// tools/layout_tuner searches this family per (kernel, shape, machine)
// and prints the winner as a layout spec, "gmorton:<pattern>".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sfcvis/core/extents.hpp"

namespace sfcvis::core {

/// A validated generalized-Morton interleave pattern for one padded
/// extent. The string is most-significant-bit first; within one axis the
/// n-th occurrence of its character counted from the RIGHT carries
/// coordinate bit-plane n, so every axis's bit-planes appear in
/// increasing output position.
class InterleavePattern {
 public:
  InterleavePattern() = default;

  /// Parses and validates `pattern` against `extents`: the string must
  /// contain only 'x', 'y', 'z' and exactly log2(padded axis) characters
  /// per axis. Throws std::invalid_argument with a message naming the
  /// expected per-axis counts otherwise.
  InterleavePattern(std::string_view pattern, const Extents3D& extents);

  /// Canonical member — the paper's Z-order: round-robin x, y, z from the
  /// least significant bit-plane up while an axis still has bits left, so
  /// anisotropic extents concatenate the surplus high bits of the larger
  /// axes and the index space is exactly the padded volume.
  [[nodiscard]] static InterleavePattern canonical(const Extents3D& extents);

  /// Row-major member: all x bits lowest, then y, then z — array order
  /// over the padded extents ("zz..yy..xx").
  [[nodiscard]] static InterleavePattern array_order(const Extents3D& extents);

  /// Pow2-tiled member: row-major within a (bx, by, bz) tile, then
  /// row-major over the tile grid. Matches TiledLayout bit-for-bit on
  /// power-of-two extents.
  [[nodiscard]] static InterleavePattern tiled(const Extents3D& extents, std::uint32_t bx,
                                               std::uint32_t by, std::uint32_t bz);

  /// The MSB-first string ("zyxzyx..." style).
  [[nodiscard]] const std::string& str() const noexcept { return str_; }

  /// Padded (power-of-two per axis) extents the pattern addresses.
  [[nodiscard]] const Extents3D& padded() const noexcept { return padded_; }

  /// Number of bit-planes of `axis` (0 = x).
  [[nodiscard]] unsigned axis_bits(unsigned axis) const noexcept { return bits_[axis]; }

  /// Output bit position of bit-plane `plane` of `axis`.
  [[nodiscard]] unsigned bit_position(unsigned axis, unsigned plane) const noexcept {
    return bitpos_[axis][plane];
  }

  /// Total output bits (== sum of axis_bits).
  [[nodiscard]] unsigned total_bits() const noexcept {
    return bits_[0] + bits_[1] + bits_[2];
  }

  friend bool operator==(const InterleavePattern& a, const InterleavePattern& b) {
    return a.str_ == b.str_ && a.padded_ == b.padded_;
  }

 private:
  struct Trusted {};  // disambiguates from the validating public ctor
  InterleavePattern(Trusted, std::string str, const Extents3D& padded);

  std::string str_;
  Extents3D padded_{};
  unsigned bits_[3] = {0, 0, 0};
  unsigned bitpos_[3][22] = {};
};

/// Precomputed per-axis deposit tables for one interleave pattern: entry c
/// of an axis table holds coordinate c's bits already deposited at their
/// output positions.
class GMortonTables {
 public:
  GMortonTables() = default;
  explicit GMortonTables(const Extents3D& logical, const InterleavePattern& pattern);

  /// Combined index of (i, j, k): three loads, two adds. Precondition:
  /// coordinates inside the padded extents. The per-axis patterns are
  /// disjoint, so + and | are interchangeable.
  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(xtab_[i] + ytab_[j] + ztab_[k]);
  }

  [[nodiscard]] const Extents3D& padded() const noexcept { return pattern_.padded(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const InterleavePattern& pattern() const noexcept { return pattern_; }

  /// True when the pattern is the canonical one for its extents, i.e. the
  /// tables are the paper's Z-order (recorded once, at construction).
  [[nodiscard]] bool canonical() const noexcept { return canonical_; }

  /// Inverse mapping: recovers (i, j, k) from a linear index.
  [[nodiscard]] Coord3D decode(std::size_t index) const noexcept;

  /// Deposited bit pattern of coordinate `c` on `axis` (0 = x) — the
  /// per-axis summand of index(), for row walks that hold the other two
  /// axes fixed.
  [[nodiscard]] std::uint64_t axis_entry(unsigned axis, std::uint32_t c) const noexcept {
    const std::vector<std::uint64_t>& tab = axis == 0 ? xtab_ : axis == 1 ? ytab_ : ztab_;
    return tab[c];
  }

 private:
  InterleavePattern pattern_;
  bool canonical_ = false;
  std::size_t capacity_ = 0;
  std::vector<std::uint64_t> xtab_, ytab_, ztab_;
};

/// Generalized-Morton layout policy: any interleave pattern, served by three
/// table loads and two adds whatever the pattern. Each axis is padded to a
/// power of two (paper Sec. V limitation); required_capacity() reflects the
/// padding. Tables are shared_ptr-held so layout objects are cheap to copy
/// into per-thread kernel state.
class GeneralizedMortonLayout {
 public:
  GeneralizedMortonLayout() = default;

  /// Canonical-pattern member — the paper's Z-order: what extents-only
  /// construction (conversion helpers, make_volume(kZOrder)) yields.
  explicit GeneralizedMortonLayout(const Extents3D& e)
      : GeneralizedMortonLayout(e, InterleavePattern::canonical(e)) {}

  GeneralizedMortonLayout(const Extents3D& e, const InterleavePattern& pattern)
      : extents_(e), tables_(std::make_shared<GMortonTables>(e, pattern)) {}

  /// Convenience: parse + validate the string form.
  GeneralizedMortonLayout(const Extents3D& e, std::string_view pattern)
      : GeneralizedMortonLayout(e, InterleavePattern(pattern, e)) {}

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return tables_->index(i, j, k);
  }

  /// Per-axis terms of index(): the deposit-table entries.
  [[nodiscard]] std::size_t x_offset(std::uint32_t i) const noexcept {
    return static_cast<std::size_t>(tables_->axis_entry(0, i));
  }
  [[nodiscard]] std::size_t y_offset(std::uint32_t j) const noexcept {
    return static_cast<std::size_t>(tables_->axis_entry(1, j));
  }
  [[nodiscard]] std::size_t z_offset(std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(tables_->axis_entry(2, k));
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept {
    return tables_ ? tables_->capacity() : 0;
  }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "gmorton"; }

  /// Inverse mapping (layout explorer, conversion checks).
  [[nodiscard]] Coord3D decode(std::size_t idx) const noexcept { return tables_->decode(idx); }

  [[nodiscard]] const GMortonTables& tables() const noexcept { return *tables_; }
  [[nodiscard]] const InterleavePattern& pattern() const noexcept {
    return tables_->pattern();
  }
  /// True for the canonical pattern, i.e. the paper's Z-order.
  [[nodiscard]] bool canonical() const noexcept { return tables_ && tables_->canonical(); }

 private:
  Extents3D extents_{};
  std::shared_ptr<const GMortonTables> tables_;
};

}  // namespace sfcvis::core
