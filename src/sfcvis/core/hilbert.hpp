// 3D Hilbert curve codec (Skilling's transposed-coordinate algorithm,
// "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004).
//
// Included as the SFC baseline the paper's related work compares against
// (Reissmann et al. 2014 found Hilbert's locality gains are offset by its
// higher indexing cost; bench/abl_layout_compare reproduces that trade-off).
#pragma once

#include <cstdint>

#include "sfcvis/core/extents.hpp"  // Coord3D

namespace sfcvis::core {

/// Encodes (x, y, z) on a 2^bits cube into a Hilbert index.
/// Precondition: each coordinate < 2^bits, bits <= 21.
[[nodiscard]] std::uint64_t hilbert_encode_3d(std::uint32_t x, std::uint32_t y,
                                              std::uint32_t z, unsigned bits) noexcept;

/// Decodes a Hilbert index on a 2^bits cube back to coordinates.
[[nodiscard]] Coord3D hilbert_decode_3d(std::uint64_t h, unsigned bits) noexcept;

}  // namespace sfcvis::core
