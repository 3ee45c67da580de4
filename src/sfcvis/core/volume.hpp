// Runtime volume facade: one value type over the four float Grid3D layout
// instantiations plus the out-of-core BrickedVolume backend.
//
// The paper's Sec. III-C requirement is that swapping the memory layout be
// transparent to the application. The Layout3D templates deliver that at
// compile time; AnyVolume extends it to runtime so drivers, benches, and
// tools can pick a layout from a flag without spelling the 4-way template
// cross-product. make_volume() (volume.cpp) is the ONLY place in the
// library where the per-layout Grid3D instantiations are written out —
// a CI grep gate (tools/check_layout_gate.sh) keeps it that way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/layout_kind.hpp"

namespace sfcvis::core {

/// Inverse of to_string (also accepts "array" and "zorder" shorthands).
/// Throws std::invalid_argument for unknown names; the message lists the
/// valid names and the "gmorton:<pattern>" spec syntax.
[[nodiscard]] LayoutKind parse_layout_kind(std::string_view name);

/// A layout selection as it appears on a command line: a kind plus, for
/// generalized Morton, an optional interleave string.
struct LayoutSpec {
  LayoutKind kind = LayoutKind::kArray;
  std::string interleave;  ///< gmorton pattern; empty = canonical
};

/// Parses "array-order", "z-order", ..., "gmorton" (canonical pattern), or
/// "gmorton:zyxzyxzzyyxx" (explicit pattern; validated against the extents
/// at make_volume time). Throws std::invalid_argument for unknown names.
[[nodiscard]] LayoutSpec parse_layout_spec(std::string_view spec);

/// Named aliases for the four concrete volumes. Kernel drivers spell their
/// array-order outputs with ArrayVolume; the per-layout spellings
/// themselves stay confined to core/ (enforced by the CI grep gate).
/// Z-order volumes are GMortonVolumes with the canonical pattern.
using ArrayVolume = Grid3D<float, ArrayOrderLayout>;
using TiledVolume = Grid3D<float, TiledLayout>;
using HilbertVolume = Grid3D<float, HilbertLayout>;
using GMortonVolume = Grid3D<float, GeneralizedMortonLayout>;

/// Construction knobs for make_volume.
struct VolumeOpts {
  std::uint32_t tile = 8;  ///< tiled-layout block edge (pow2)
  std::string interleave;  ///< gmorton pattern; empty = canonical
};

/// A float volume in any of the in-core layouts or the out-of-core
/// bricked backend — std::variant underneath, so it is a value type
/// (copy/move work; a copied bricked volume shares its cache) and visit()
/// recovers the static type for kernels.
class AnyVolume {
 public:
  using Variant =
      std::variant<ArrayVolume, TiledVolume, HilbertVolume, GMortonVolume, BrickedVolume>;

  AnyVolume() = default;

  /// Wraps (moves in) a concrete grid.
  template <Layout3D L>
  AnyVolume(Grid3D<float, L> grid) : v_(std::move(grid)) {}  // NOLINT(google-explicit-constructor)

  /// Wraps an opened out-of-core bricked volume.
  AnyVolume(BrickedVolume bricked) : v_(std::move(bricked)) {}  // NOLINT(google-explicit-constructor)

  /// The held layout kind. A generalized-Morton volume reports kZOrder
  /// when its pattern is the canonical one for its extents, kGMorton
  /// otherwise.
  [[nodiscard]] LayoutKind kind() const noexcept;

  /// Layout name of the held grid (same strings as to_string(kind())).
  [[nodiscard]] const char* layout_name() const noexcept { return to_string(kind()); }

  /// Invokes fn with the concrete Grid3D&; returns fn's result.
  template <class Fn>
  decltype(auto) visit(Fn&& fn) {
    return std::visit(std::forward<Fn>(fn), v_);
  }
  template <class Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), v_);
  }

  /// The held grid as its concrete type; throws std::bad_variant_access
  /// when the kind does not match.
  template <Layout3D L>
  [[nodiscard]] Grid3D<float, L>& as() {
    return std::get<Grid3D<float, L>>(v_);
  }
  template <Layout3D L>
  [[nodiscard]] const Grid3D<float, L>& as() const {
    return std::get<Grid3D<float, L>>(v_);
  }
  [[nodiscard]] BrickedVolume& as_bricked() { return std::get<BrickedVolume>(v_); }
  [[nodiscard]] const BrickedVolume& as_bricked() const {
    return std::get<BrickedVolume>(v_);
  }

  // Common Grid3D surface, forwarded through the variant.
  [[nodiscard]] const Extents3D& extents() const noexcept {
    return visit([](const auto& g) -> const Extents3D& { return g.extents(); });
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return visit([](const auto& g) { return g.size(); });
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return visit([](const auto& g) { return g.capacity(); });
  }
  [[nodiscard]] float* data() noexcept {
    return visit([](auto& g) { return g.data(); });
  }
  [[nodiscard]] const float* data() const noexcept {
    return visit([](const auto& g) { return g.data(); });
  }
  [[nodiscard]] float& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) noexcept {
    return visit([&](auto& g) -> float& { return g.at(i, j, k); });
  }
  [[nodiscard]] const float& at(std::uint32_t i, std::uint32_t j,
                                std::uint32_t k) const noexcept {
    return visit([&](const auto& g) -> const float& { return g.at(i, j, k); });
  }

  /// Fills every logical element from fn(i, j, k) -> float.
  template <class Fn>
  void fill_from(Fn&& fn) {
    visit([&](auto& g) { g.fill_from(fn); });
  }

  /// Copies logical contents from another volume (any layout pair).
  /// Extents must match.
  void copy_from(const AnyVolume& other) {
    visit([&](auto& dst) {
      other.visit([&](const auto& src) { dst.copy_from(src); });
    });
  }

  /// Same contents re-laid-out as `kind` (layout conversion through the
  /// facade); opts supplies the tile size and gmorton pattern.
  [[nodiscard]] AnyVolume convert_to(LayoutKind kind, const VolumeOpts& opts = {}) const;

 private:
  Variant v_;
};

/// Allocates a zeroed volume of the given layout kind — the single place
/// the four Grid3D instantiations are spelled. kZOrder is the canonical
/// generalized-Morton pattern; for kGMorton, opts.interleave selects the
/// pattern (empty = canonical, i.e. the same mapping as kZOrder).
/// kBricked throws std::invalid_argument: a bricked volume is opened from
/// a packed file (pack_brick_file + BrickedVolume::open), never allocated.
[[nodiscard]] AnyVolume make_volume(LayoutKind kind, const Extents3D& extents,
                                    const VolumeOpts& opts = {});

}  // namespace sfcvis::core
