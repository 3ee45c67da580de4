#include "sfcvis/core/morton.hpp"

#include <array>

namespace sfcvis::core {
namespace {

// 256-entry byte-interleave tables, generated at static-init time from the
// magic-bits codecs so the two strategies cannot drift apart.
struct Lut3D {
  std::array<std::uint32_t, 256> spread{};   // byte -> bits at stride 3 (24 bits)
  std::array<std::uint8_t, 512> compact{};   // 9 interleaved bits -> 3 source bits
  Lut3D() {
    for (unsigned b = 0; b < 256; ++b) {
      spread[b] = static_cast<std::uint32_t>(part_bits_3(b));
    }
    for (unsigned m = 0; m < 512; ++m) {
      compact[m] = static_cast<std::uint8_t>(compact_bits_3(m));
    }
  }
};

const Lut3D& lut3d() {
  static const Lut3D t;
  return t;
}

std::uint64_t spread3_lut(std::uint32_t v) {
  const auto& t = lut3d().spread;
  // 21 usable bits -> three bytes (the top byte contributes 5 bits).
  return static_cast<std::uint64_t>(t[v & 0xff]) |
         (static_cast<std::uint64_t>(t[(v >> 8) & 0xff]) << 24) |
         (static_cast<std::uint64_t>(t[(v >> 16) & 0x1f]) << 48);
}

}  // namespace

std::uint64_t morton_encode_3d_lut(std::uint32_t x, std::uint32_t y,
                                   std::uint32_t z) noexcept {
  return spread3_lut(x) | (spread3_lut(y) << 1) | (spread3_lut(z) << 2);
}

MortonCoord3D morton_decode_3d_lut(std::uint64_t m) noexcept {
  const auto& t = lut3d().compact;
  MortonCoord3D c;
  // Process nine interleaved bits (three per axis) per round.
  for (unsigned round = 0; round < 7; ++round) {
    const unsigned shift = round * 9;
    const auto chunk = static_cast<std::uint32_t>((m >> shift) & 0x1ff);
    c.x |= static_cast<std::uint32_t>(t[chunk]) << (round * 3);
    c.y |= static_cast<std::uint32_t>(t[chunk >> 1]) << (round * 3);
    c.z |= static_cast<std::uint32_t>(t[chunk >> 2]) << (round * 3);
  }
  return c;
}

}  // namespace sfcvis::core
