// Grid3D: an owning 3D container whose element placement is controlled by a
// Layout3D policy. This is the "single block of 3D data accessed via an
// interface that encapsulates the Z-order or array-order indexing in a way
// transparent to the application" of the paper's Sec. III.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sfcvis/core/align.hpp"
#include "sfcvis/core/layout.hpp"

namespace sfcvis::core {

/// Owning 3D grid with layout-policy-controlled element placement.
///
/// Storage is 64-byte aligned and sized to layout.required_capacity(),
/// which for padded layouts (Z-order, Hilbert, tiled) exceeds
/// extents().size(); padding elements are value-initialized and are never
/// visited by for_each_* or exposed by at().
template <class T, Layout3D LayoutT>
class Grid3D {
 public:
  using value_type = T;
  using layout_type = LayoutT;
  /// Opts into the VolumeBackend concept (core/traced_view.hpp): kernels
  /// templated on a backend accept Grid3D and BrickedVolume alike.
  using is_volume_backend_tag = void;

  Grid3D() = default;

  /// Allocates a zero-initialized grid with the given layout.
  explicit Grid3D(LayoutT layout)
      : layout_(std::move(layout)), data_(layout_.required_capacity()) {}

  /// Allocates with an explicit placement policy (huge pages, first-touch
  /// initialization). What was actually applied is in alloc_report().
  Grid3D(LayoutT layout, const MemoryPolicy& policy, const FirstTouchFn& first_touch = {})
      : layout_(std::move(layout)),
        data_(layout_.required_capacity(), policy, first_touch) {}

  /// Convenience: construct the layout from extents.
  explicit Grid3D(const Extents3D& e) : Grid3D(LayoutT(e)) {}

  /// Element access (unchecked in release builds).
  [[nodiscard]] T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) noexcept {
    assert(layout_.extents().contains(i, j, k));
    return data_[layout_.index(i, j, k)];
  }
  [[nodiscard]] const T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) const noexcept {
    assert(layout_.extents().contains(i, j, k));
    return data_[layout_.index(i, j, k)];
  }
  [[nodiscard]] T& operator()(std::uint32_t i, std::uint32_t j, std::uint32_t k) noexcept {
    return at(i, j, k);
  }
  [[nodiscard]] const T& operator()(std::uint32_t i, std::uint32_t j,
                                    std::uint32_t k) const noexcept {
    return at(i, j, k);
  }

  /// Border-clamped access: out-of-range coordinates are clamped to the
  /// nearest edge voxel (the boundary policy both kernels use).
  [[nodiscard]] const T& at_clamped(std::int64_t i, std::int64_t j,
                                    std::int64_t k) const noexcept {
    const auto& e = layout_.extents();
    const auto ci = static_cast<std::uint32_t>(std::clamp<std::int64_t>(i, 0, e.nx - 1));
    const auto cj = static_cast<std::uint32_t>(std::clamp<std::int64_t>(j, 0, e.ny - 1));
    const auto ck = static_cast<std::uint32_t>(std::clamp<std::int64_t>(k, 0, e.nz - 1));
    return data_[layout_.index(ci, cj, ck)];
  }

  /// Border-clamped 2x2x2 cell load: the eight values at_clamped returns
  /// for (i | i+1, j | j+1, k | k+1), in the order c000, c100, c010, c110,
  /// c001, c101, c011, c111 (x fastest) — the trilinear stencil. The six
  /// coordinates are clamped once; on a SeparableLayout each becomes its
  /// per-axis offset once (the paper's Sec. III-C tables), so the eight
  /// indices cost eight adds. Other layouts index the eight corners.
  /// Forced inline, so the packet raycaster's per-lane calls compile to
  /// straight-line loads.
  [[nodiscard, gnu::always_inline]] std::array<T, 8> cell_clamped(
      std::int64_t i, std::int64_t j, std::int64_t k) const noexcept {
    const auto& e = layout_.extents();
    const auto clamp = [](std::int64_t v, std::uint32_t n) {
      return static_cast<std::uint32_t>(std::clamp<std::int64_t>(v, 0, n - 1));
    };
    const std::uint32_t i0 = clamp(i, e.nx), i1 = clamp(i + 1, e.nx);
    const std::uint32_t j0 = clamp(j, e.ny), j1 = clamp(j + 1, e.ny);
    const std::uint32_t k0 = clamp(k, e.nz), k1 = clamp(k + 1, e.nz);
    const T* d = data_.data();
    if constexpr (SeparableLayout<LayoutT>) {
      const std::size_t x0 = layout_.x_offset(i0), x1 = layout_.x_offset(i1);
      const std::size_t y0 = layout_.y_offset(j0), y1 = layout_.y_offset(j1);
      const std::size_t z0 = layout_.z_offset(k0), z1 = layout_.z_offset(k1);
      const std::size_t s00 = y0 + z0, s10 = y1 + z0, s01 = y0 + z1, s11 = y1 + z1;
      return {d[x0 + s00], d[x1 + s00], d[x0 + s10], d[x1 + s10],
              d[x0 + s01], d[x1 + s01], d[x0 + s11], d[x1 + s11]};
    } else {
      const auto load = [&](std::uint32_t ci, std::uint32_t cj, std::uint32_t ck) {
        return d[layout_.index(ci, cj, ck)];
      };
      return {load(i0, j0, k0), load(i1, j0, k0), load(i0, j1, k0), load(i1, j1, k0),
              load(i0, j0, k1), load(i1, j0, k1), load(i0, j1, k1), load(i1, j1, k1)};
    }
  }

  [[nodiscard]] const LayoutT& layout() const noexcept { return layout_; }
  [[nodiscard]] const Extents3D& extents() const noexcept { return layout_.extents(); }
  [[nodiscard]] std::size_t size() const noexcept { return layout_.extents().size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return data_.size(); }

  /// Raw storage (includes layout padding). Needed by IO and by the traced
  /// views, which must know the base address to model cache behaviour.
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

  /// What the allocation actually did (huge-page / first-touch outcome).
  [[nodiscard]] const AllocReport& alloc_report() const noexcept { return data_.report(); }

  /// Invokes fn(i, j, k) for every logical element in array-order
  /// (x fastest). Iteration order is independent of the storage layout.
  template <class Fn>
  void for_each_index(Fn&& fn) const {
    const auto& e = layout_.extents();
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          fn(i, j, k);
        }
      }
    }
  }

  /// Fills every logical element from fn(i, j, k) -> T.
  template <class Fn>
  void fill_from(Fn&& fn) {
    for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      at(i, j, k) = fn(i, j, k);
    });
  }

  /// Copies logical contents from any readable volume backend (a grid with
  /// any other layout, or an out-of-core BrickedVolume). Extents must match.
  template <class SrcT>
    requires requires(const SrcT& s) {
      s.at(std::uint32_t{}, std::uint32_t{}, std::uint32_t{});
      s.extents();
    }
  void copy_from(const SrcT& other) {
    assert(extents() == other.extents());
    for_each_index([&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      at(i, j, k) = other.at(i, j, k);
    });
  }

 private:
  LayoutT layout_{};
  AlignedBuffer<T> data_;
};

/// Builds a grid of `DstLayoutT` holding the same logical contents as `src`.
template <Layout3D DstLayoutT, class T, Layout3D SrcLayoutT>
[[nodiscard]] Grid3D<T, DstLayoutT> convert_layout(const Grid3D<T, SrcLayoutT>& src) {
  Grid3D<T, DstLayoutT> dst{DstLayoutT(src.extents())};
  dst.copy_from(src);
  return dst;
}

}  // namespace sfcvis::core
