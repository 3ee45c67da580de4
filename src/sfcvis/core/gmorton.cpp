#include "sfcvis/core/gmorton.hpp"

#include <algorithm>
#include <stdexcept>

namespace sfcvis::core {

namespace {

unsigned axis_of(char c) {
  switch (c) {
    case 'x': return 0;
    case 'y': return 1;
    case 'z': return 2;
    default: return 3;
  }
}

}  // namespace

InterleavePattern::InterleavePattern(Trusted, std::string str, const Extents3D& padded)
    : str_(std::move(str)), padded_(padded) {
  // Private trusted constructor: assign bit positions. Characters are
  // MSB-first, so walk from the back of the string upward; the n-th
  // occurrence of an axis character from the right is that axis'
  // bit-plane n.
  unsigned out = 0;
  for (auto it = str_.rbegin(); it != str_.rend(); ++it, ++out) {
    const unsigned axis = axis_of(*it);
    bitpos_[axis][bits_[axis]++] = out;
  }
}

InterleavePattern::InterleavePattern(std::string_view pattern, const Extents3D& extents) {
  validate_extents(extents);
  padded_ = padded_pow2(extents);
  const unsigned want[3] = {log2_pow2(padded_.nx), log2_pow2(padded_.ny),
                            log2_pow2(padded_.nz)};
  unsigned have[3] = {0, 0, 0};
  for (const char c : pattern) {
    const unsigned axis = axis_of(c);
    if (axis > 2) {
      throw std::invalid_argument(
          "InterleavePattern: invalid character '" + std::string(1, c) +
          "' in \"" + std::string(pattern) + "\" (only 'x', 'y', 'z' are allowed)");
    }
    ++have[axis];
  }
  if (have[0] != want[0] || have[1] != want[1] || have[2] != want[2]) {
    throw std::invalid_argument(
        "InterleavePattern: \"" + std::string(pattern) + "\" has " +
        std::to_string(have[0]) + "x/" + std::to_string(have[1]) + "y/" +
        std::to_string(have[2]) + "z bits but extents " + std::to_string(extents.nx) +
        "x" + std::to_string(extents.ny) + "x" + std::to_string(extents.nz) +
        " (padded " + std::to_string(padded_.nx) + "x" + std::to_string(padded_.ny) +
        "x" + std::to_string(padded_.nz) + ") need " + std::to_string(want[0]) + "x/" +
        std::to_string(want[1]) + "y/" + std::to_string(want[2]) + "z");
  }
  *this = InterleavePattern(Trusted{}, std::string(pattern), padded_);
}

InterleavePattern InterleavePattern::canonical(const Extents3D& extents) {
  validate_extents(extents);
  const Extents3D p = padded_pow2(extents);
  const unsigned bits[3] = {log2_pow2(p.nx), log2_pow2(p.ny), log2_pow2(p.nz)};
  // Walk the bit-planes from least significant upward; at each plane the
  // axes that still have bits left claim consecutive output slots in x, y,
  // z order. For cubic power-of-two extents this is classic Morton
  // interleaving; for anisotropic extents the surplus high bits of the
  // larger axes end up contiguous at the top, keeping the index space
  // exactly px*py*pz. Built as the LSB-first character sequence, then
  // reversed into MSB-first form.
  std::string lsb_first;
  const unsigned max_bits = std::max(bits[0], std::max(bits[1], bits[2]));
  for (unsigned plane = 0; plane < max_bits; ++plane) {
    for (unsigned axis = 0; axis < 3; ++axis) {
      if (plane < bits[axis]) {
        lsb_first.push_back("xyz"[axis]);
      }
    }
  }
  std::reverse(lsb_first.begin(), lsb_first.end());
  return InterleavePattern(Trusted{}, std::move(lsb_first), p);
}

InterleavePattern InterleavePattern::array_order(const Extents3D& extents) {
  validate_extents(extents);
  const Extents3D p = padded_pow2(extents);
  std::string msb_first;
  msb_first.append(log2_pow2(p.nz), 'z');
  msb_first.append(log2_pow2(p.ny), 'y');
  msb_first.append(log2_pow2(p.nx), 'x');
  return InterleavePattern(Trusted{}, std::move(msb_first), p);
}

InterleavePattern InterleavePattern::tiled(const Extents3D& extents, std::uint32_t bx,
                                           std::uint32_t by, std::uint32_t bz) {
  validate_extents(extents);
  const Extents3D p = padded_pow2(extents);
  const unsigned bits[3] = {log2_pow2(p.nx), log2_pow2(p.ny), log2_pow2(p.nz)};
  if (!std::has_single_bit(bx) || !std::has_single_bit(by) || !std::has_single_bit(bz)) {
    throw std::invalid_argument("InterleavePattern::tiled: tile dims must be powers of two");
  }
  const unsigned tile_bits[3] = {std::min(bits[0], log2_pow2(bx)),
                                 std::min(bits[1], log2_pow2(by)),
                                 std::min(bits[2], log2_pow2(bz))};
  // LSB-first: row-major within the tile, then row-major over tiles.
  std::string lsb_first;
  for (unsigned axis = 0; axis < 3; ++axis) {
    lsb_first.append(tile_bits[axis], "xyz"[axis]);
  }
  for (unsigned axis = 0; axis < 3; ++axis) {
    lsb_first.append(bits[axis] - tile_bits[axis], "xyz"[axis]);
  }
  std::reverse(lsb_first.begin(), lsb_first.end());
  return InterleavePattern(Trusted{}, std::move(lsb_first), p);
}

GMortonTables::GMortonTables(const Extents3D& logical, const InterleavePattern& pattern)
    : pattern_(pattern) {
  validate_extents(logical);
  if (padded_pow2(logical) != pattern.padded()) {
    throw std::invalid_argument("GMortonTables: pattern was built for different extents");
  }
  canonical_ = pattern == InterleavePattern::canonical(logical);
  capacity_ = pattern.padded().size();

  auto build = [this](unsigned axis, std::uint32_t n) {
    std::vector<std::uint64_t> tab(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      std::uint64_t deposited = 0;
      for (unsigned plane = 0; plane < pattern_.axis_bits(axis); ++plane) {
        if ((v >> plane) & 1u) {
          deposited |= std::uint64_t{1} << pattern_.bit_position(axis, plane);
        }
      }
      tab[v] = deposited;
    }
    return tab;
  };
  xtab_ = build(0, pattern.padded().nx);
  ytab_ = build(1, pattern.padded().ny);
  ztab_ = build(2, pattern.padded().nz);
}

Coord3D GMortonTables::decode(std::size_t index) const noexcept {
  Coord3D c;
  std::uint32_t* comp[3] = {&c.i, &c.j, &c.k};
  for (unsigned axis = 0; axis < 3; ++axis) {
    std::uint32_t v = 0;
    for (unsigned plane = 0; plane < pattern_.axis_bits(axis); ++plane) {
      v |= static_cast<std::uint32_t>((index >> pattern_.bit_position(axis, plane)) & 1u)
           << plane;
    }
    *comp[axis] = v;
  }
  return c;
}

}  // namespace sfcvis::core
