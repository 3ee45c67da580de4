// LayoutKind: the runtime tag naming every AnyVolume backend.
//
// Split out of volume.hpp so leaf headers (the brick-file codec, the
// bricked backend) can name layout kinds without pulling in the variant
// facade — volume.hpp includes bricked.hpp, so the include arrow must
// point this way.
#pragma once

#include <cstdint>

namespace sfcvis::core {

/// The storage layouts under study, as a runtime tag. The numeric values
/// are stored in SFCBRK01 brick-file headers (pinned in brick_file.cpp).
enum class LayoutKind : std::uint8_t {
  kArray = 0,  ///< row-major array order (the baseline)
  kZOrder,     ///< Morton / Z-order curve (the paper's layout): canonical gmorton pattern
  kTiled,      ///< pow2-block tiling (the classic bricking alternative)
  kHilbert,    ///< Hilbert curve (related-work SFC variant)
  kGMorton,    ///< generalized Morton: arbitrary interleave pattern (tuner family)
  kBricked,    ///< out-of-core Morton-ordered brick file (core/bricked.hpp)
};

/// The five *in-core* layouts — the cross-product the fuzz matrix and the
/// ablation benches sweep, and the set make_volume can allocate. kBricked
/// is deliberately absent: a bricked volume is opened from a packed file
/// (BrickedVolume::open), never allocated blank.
inline constexpr LayoutKind kAllLayoutKinds[] = {LayoutKind::kArray, LayoutKind::kZOrder,
                                                 LayoutKind::kTiled, LayoutKind::kHilbert,
                                                 LayoutKind::kGMorton};

/// Stable lowercase name ("array-order", "z-order", "tiled", "hilbert",
/// "gmorton", "bricked") — matches the static Layout3D::name() strings;
/// "z-order" names the canonical GeneralizedMortonLayout.
[[nodiscard]] const char* to_string(LayoutKind kind) noexcept;

}  // namespace sfcvis::core
