// Morton (Z-order) encoding and decoding for 3D coordinates.
//
// The Z-order curve maps a d-dimensional coordinate to a 1-D index by
// interleaving the bits of each coordinate component.  Points that are close
// in index space land close in the 1-D address space at every power-of-two
// scale, which is the spatial-locality property the library is built around
// (Bethel et al., HPDIC 2015, Sec. II-B).
//
// The codec is the branch-free magic-bits one: a parallel bit deposit via
// shift/mask ladders. The per-axis table scheme the layouts index with
// (one table per axis holding the pre-interleaved bit pattern of every
// possible coordinate value, after Pascucci & Frank 2001) lives in
// gmorton.hpp, whose canonical pattern is this curve.
#pragma once

#include <cstdint>

namespace sfcvis::core {

/// Maximum bits per axis representable in a 64-bit 3D Morton index.
inline constexpr unsigned kMortonMaxBits3D = 21;

// ---------------------------------------------------------------------------
// Magic-bits codecs
// ---------------------------------------------------------------------------

/// Spreads the low 21 bits of `v` so bit i moves to bit 3*i.
[[nodiscard]] constexpr std::uint64_t part_bits_3(std::uint64_t v) noexcept {
  v &= 0x1fffff;  // 21 bits
  v = (v | (v << 32)) & 0x001f00000000ffffULL;
  v = (v | (v << 16)) & 0x001f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

/// Inverse of part_bits_3: gathers every third bit back into the low 21 bits.
[[nodiscard]] constexpr std::uint64_t compact_bits_3(std::uint64_t v) noexcept {
  v &= 0x1249249249249249ULL;
  v = (v ^ (v >> 2)) & 0x10c30c30c30c30c3ULL;
  v = (v ^ (v >> 4)) & 0x100f00f00f00f00fULL;
  v = (v ^ (v >> 8)) & 0x001f0000ff0000ffULL;
  v = (v ^ (v >> 16)) & 0x001f00000000ffffULL;
  v = (v ^ (v >> 32)) & 0x1fffff;
  return v;
}

/// Encodes (x, y, z) into a 3D Morton index; x occupies the least
/// significant interleave slot (bit 0), matching the z-major curve the
/// layouts use. Coordinates above 21 bits are truncated.
[[nodiscard]] constexpr std::uint64_t morton_encode_3d(std::uint32_t x,
                                                       std::uint32_t y,
                                                       std::uint32_t z) noexcept {
  return part_bits_3(x) | (part_bits_3(y) << 1) | (part_bits_3(z) << 2);
}

/// Decoded 3D coordinate triple.
struct MortonCoord3D {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  std::uint32_t z = 0;
  friend constexpr bool operator==(const MortonCoord3D&, const MortonCoord3D&) = default;
};

/// Decodes a 3D Morton index back into its coordinate triple.
[[nodiscard]] constexpr MortonCoord3D morton_decode_3d(std::uint64_t m) noexcept {
  return MortonCoord3D{static_cast<std::uint32_t>(compact_bits_3(m)),
                       static_cast<std::uint32_t>(compact_bits_3(m >> 1)),
                       static_cast<std::uint32_t>(compact_bits_3(m >> 2))};
}

// ---------------------------------------------------------------------------
// Neighbour stepping without full decode/re-encode
// ---------------------------------------------------------------------------
// Adding d to one axis of a Morton index works directly on the interleaved
// form: dilated-integer addition (Raman & Wise; Bader 2013, Sec. 4;
// Holzmüller, arXiv:1710.06384). The delta is reduced to 21-bit two's
// complement and dilated into the axis' bit positions, the other axes' bits
// are forced to 1 so carries ripple straight through them, and the sum is
// re-masked — one add regardless of |d|; a step of -1 is the decrement.
// Axis arithmetic is modulo 2^21; stepping a stencil window that stays
// inside the grid never wraps. The bricked backend hops between bricks
// this way on the brick-grid code (core/bricked.hpp).

inline constexpr std::uint64_t kMortonMaskX3D = 0x1249249249249249ULL;
inline constexpr std::uint64_t kMortonMaskY3D = 0x2492492492492492ULL;
inline constexpr std::uint64_t kMortonMaskZ3D = 0x4924924924924924ULL;

/// Morton index of the (x + d) neighbour (d may be negative).
[[nodiscard]] constexpr std::uint64_t morton_step_x(std::uint64_t m, std::int32_t d) noexcept {
  const std::uint64_t dd = part_bits_3(static_cast<std::uint32_t>(d) & 0x1fffff);
  return (((m | ~kMortonMaskX3D) + dd) & kMortonMaskX3D) | (m & ~kMortonMaskX3D);
}

/// Morton index of the (y + d) neighbour (d may be negative).
[[nodiscard]] constexpr std::uint64_t morton_step_y(std::uint64_t m, std::int32_t d) noexcept {
  const std::uint64_t dd = part_bits_3(static_cast<std::uint32_t>(d) & 0x1fffff) << 1;
  return (((m | ~kMortonMaskY3D) + dd) & kMortonMaskY3D) | (m & ~kMortonMaskY3D);
}

/// Morton index of the (z + d) neighbour (d may be negative).
[[nodiscard]] constexpr std::uint64_t morton_step_z(std::uint64_t m, std::int32_t d) noexcept {
  const std::uint64_t dd = part_bits_3(static_cast<std::uint32_t>(d) & 0x1fffff) << 2;
  return (((m | ~kMortonMaskZ3D) + dd) & kMortonMaskZ3D) | (m & ~kMortonMaskZ3D);
}

}  // namespace sfcvis::core
