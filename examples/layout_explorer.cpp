// Example: an educational tool that makes the layouts visible.
//
//   * prints the linear offsets of a small 2D slice under each layout —
//     the Z-curve's recursive N-shape is directly readable;
//   * prints per-axis cache-line boundary-crossing rates, the locality
//     quantity the paper's counters are a proxy for;
//   * prints how the padded capacity behaves for awkward extents.
//
// Usage: layout_explorer [--n=8]
#include <cstdio>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"

namespace {

using namespace sfcvis;

template <core::Layout3D L>
void print_slice(const char* name, const L& layout, std::uint32_t n) {
  std::printf("%s: offsets of the k=0 slice (%ux%u)\n", name, n, n);
  for (std::uint32_t j = 0; j < n; ++j) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::printf("%5zu", layout.index(i, j, 0));
    }
    std::printf("\n");
  }
  std::printf("\n");
}

template <core::Layout3D L>
void print_crossings(const char* name, const L& layout, std::uint32_t n) {
  // Fraction of unit steps along each axis that leave a 64-byte line
  // (16 floats). Array order: x rarely, y/z always. Z-order: balanced.
  const std::size_t line_elems = 16;
  const char* axis_names[3] = {"x", "y", "z"};
  std::printf("%-12s", name);
  for (unsigned axis = 0; axis < 3; ++axis) {
    std::size_t crossings = 0, steps = 0;
    for (std::uint32_t k = 0; k < n - (axis == 2); ++k) {
      for (std::uint32_t j = 0; j < n - (axis == 1); ++j) {
        for (std::uint32_t i = 0; i < n - (axis == 0); ++i) {
          const auto a = layout.index(i, j, k) / line_elems;
          const auto b =
              layout.index(i + (axis == 0), j + (axis == 1), k + (axis == 2)) / line_elems;
          crossings += (a != b);
          ++steps;
        }
      }
    }
    std::printf("  %s: %5.1f%%", axis_names[axis],
                100.0 * static_cast<double>(crossings) / static_cast<double>(steps));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  const std::uint32_t n = opts.get_u32("n", 8);
  const core::Extents3D e = core::Extents3D::cube(n);

  // Every layout is reached through the facade: make_volume is the single
  // dispatch point, and visit() hands the concrete layout back to the
  // templated printers. Sections are labelled by kind, not by layout type:
  // z-order is the canonical generalized-Morton layout.
  const auto for_layout = [](core::LayoutKind kind, const core::Extents3D& ext,
                             std::uint32_t tile, auto&& fn) {
    core::VolumeOpts vopts;
    vopts.tile = tile;
    core::make_volume(kind, ext, vopts).visit([&](const auto& g) {
      // Only in-core grids carry a layout object (the bricked backend is
      // never produced by make_volume, but the visit instantiates it).
      if constexpr (requires { g.layout(); }) {
        fn(g.layout());
      }
    });
  };

  for (const auto kind : core::kAllLayoutKinds) {
    for_layout(kind, e, std::min(n, 4u),
               [&](const auto& l) { print_slice(core::to_string(kind), l, n); });
  }

  std::printf("fraction of unit steps crossing a 64-byte line boundary (32^3):\n");
  const core::Extents3D big = core::Extents3D::cube(32);
  for (const auto kind : core::kAllLayoutKinds) {
    for_layout(kind, big, 4,
               [&](const auto& l) { print_crossings(core::to_string(kind), l, 32); });
  }

  std::printf("\npadding behaviour for awkward extents (20 x 7 x 5):\n");
  const core::Extents3D odd{20, 7, 5};
  const auto capacity_of = [&](core::LayoutKind kind) {
    return core::make_volume(kind, odd).capacity();
  };
  std::printf("  logical size: %zu elements\n", odd.size());
  std::printf("  array-order capacity: %zu\n", capacity_of(core::LayoutKind::kArray));
  std::printf("  z-order capacity:     %zu (pads each axis to a power of two;\n"
              "                        the paper's Sec. V limitation)\n",
              capacity_of(core::LayoutKind::kZOrder));
  std::printf("  tiled 8^3 capacity:   %zu\n", capacity_of(core::LayoutKind::kTiled));
  std::printf("  hilbert capacity:     %zu (pads to the enclosing cube)\n",
              capacity_of(core::LayoutKind::kHilbert));
  return 0;
}
