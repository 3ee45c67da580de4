// The paper's runtime indexing facade (Sec. III-C): after one-time
// construction of static offset tables, the application calls
// getIndex(i, j, k) and receives the array-order or Z-order offset without
// knowing which layout is active.
//
// Equal-footing property: both orders are served by the *same* arithmetic —
// three table loads and two additions.
//
//  * array order: xtab[i] = i, ytab[j] = j*nx, ztab[k] = k*nx*ny
//    (the paper's yoffset/zoffset tables, plus an identity x table);
//  * Z order:     per-axis pre-interleaved bit patterns, whose bit sets are
//    disjoint, so addition is exactly bitwise OR.
//
// The measured cost of index computation is therefore identical for the two
// layouts, and any performance difference is attributable to memory layout
// alone — the paper's central methodological requirement.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/gmorton.hpp"

namespace sfcvis::core {

/// Which in-memory order an Indexer (or a bench configuration) uses.
enum class Order : std::uint8_t {
  kArray,  ///< row-major ("a-order" in the paper's figures)
  kZ,      ///< Z-order / Morton ("z-order")
};

/// Human-readable name matching the paper's figure labels.
[[nodiscard]] constexpr std::string_view to_string(Order o) noexcept {
  return o == Order::kArray ? "a-order" : "z-order";
}

/// Runtime-selected array-/Z-order indexer with precomputed tables.
class Indexer {
 public:
  Indexer() = default;

  /// Builds the static tables for `order` over `extents`. O(nx+ny+nz) space.
  Indexer(Order order, const Extents3D& extents);

  /// The linear offset of (i, j, k): three loads and two adds regardless of
  /// the active order. Precondition: (i, j, k) inside extents().
  [[nodiscard]] std::size_t getIndex(std::uint32_t i, std::uint32_t j,
                                     std::uint32_t k) const noexcept {
    return xtab_[i] + ytab_[j] + ztab_[k];
  }

  [[nodiscard]] Order order() const noexcept { return order_; }
  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }

  /// Buffer size the indexed data must have (padded for Z-order).
  [[nodiscard]] std::size_t required_capacity() const noexcept { return capacity_; }

 private:
  Order order_ = Order::kArray;
  Extents3D extents_{};
  std::size_t capacity_ = 0;
  std::vector<std::size_t> xtab_, ytab_, ztab_;
};

}  // namespace sfcvis::core
