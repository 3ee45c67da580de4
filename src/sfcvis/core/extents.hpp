// Basic 3D extent arithmetic shared by every layout and kernel.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace sfcvis::core {

/// Logical size of a 3D structured grid. X is the fastest-varying axis in
/// the array-order sense throughout the library.
struct Extents3D {
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;
  std::uint32_t nz = 0;

  friend constexpr bool operator==(const Extents3D&, const Extents3D&) = default;

  /// Number of logical elements (not counting any layout padding).
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(nx) * ny * nz;
  }

  [[nodiscard]] constexpr bool empty() const noexcept { return size() == 0; }

  /// True when (i, j, k) addresses a logical element.
  [[nodiscard]] constexpr bool contains(std::uint32_t i, std::uint32_t j,
                                        std::uint32_t k) const noexcept {
    return i < nx && j < ny && k < nz;
  }

  /// True when all three extents are powers of two (the sweet spot for SFC
  /// layouts, per the paper's Sec. V discussion).
  [[nodiscard]] constexpr bool is_pow2() const noexcept {
    return std::has_single_bit(nx) && std::has_single_bit(ny) && std::has_single_bit(nz);
  }

  /// Returns a cube extent n*n*n.
  [[nodiscard]] static constexpr Extents3D cube(std::uint32_t n) noexcept {
    return Extents3D{n, n, n};
  }
};

/// Integer coordinate triple, e.g. recovered from a curve index by decode.
struct Coord3D {
  std::uint32_t i = 0, j = 0, k = 0;
  friend constexpr bool operator==(const Coord3D&, const Coord3D&) = default;
};

/// Smallest power of two >= v (v = 0 maps to 1).
[[nodiscard]] constexpr std::uint32_t next_pow2(std::uint32_t v) noexcept {
  return v <= 1 ? 1u : std::bit_ceil(v);
}

/// Per-axis power-of-two padding of an extent.
[[nodiscard]] constexpr Extents3D padded_pow2(const Extents3D& e) noexcept {
  return Extents3D{next_pow2(e.nx), next_pow2(e.ny), next_pow2(e.nz)};
}

/// log2 of a power of two.
[[nodiscard]] constexpr unsigned log2_pow2(std::uint32_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v) - 1);
}

/// Throws std::invalid_argument when an extent is zero or exceeds what a
/// 64-bit SFC index can address (2^21 per axis).
inline void validate_extents(const Extents3D& e) {
  if (e.nx == 0 || e.ny == 0 || e.nz == 0) {
    throw std::invalid_argument("Extents3D: all extents must be nonzero, got " +
                                std::to_string(e.nx) + "x" + std::to_string(e.ny) + "x" +
                                std::to_string(e.nz));
  }
  constexpr std::uint32_t kMax = 1u << 21;
  if (e.nx > kMax || e.ny > kMax || e.nz > kMax) {
    throw std::invalid_argument("Extents3D: extents above 2^21 are not addressable");
  }
}

}  // namespace sfcvis::core
