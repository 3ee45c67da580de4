#include "sfcvis/render/macrocell.hpp"

#include <stdexcept>

namespace sfcvis::render {

core::Extents3D macrocell_extents(const core::Extents3D& volume, std::uint32_t block) {
  if (block == 0) {
    throw std::invalid_argument("MacrocellGrid: block size must be nonzero");
  }
  core::validate_extents(volume);
  return core::Extents3D{(volume.nx + block - 1) / block, (volume.ny + block - 1) / block,
                         (volume.nz + block - 1) / block};
}

ClassifiedCells::ClassifiedCells(const MacrocellGrid& grid, const TransferFunction& tf)
    : grid_(&grid), transparent_(grid.cell_extents().size()) {
  const core::Extents3D& c = grid.cell_extents();
  for (std::uint32_t k = 0; k < c.nz; ++k) {
    for (std::uint32_t j = 0; j < c.ny; ++j) {
      for (std::uint32_t i = 0; i < c.nx; ++i) {
        const CellCoord cell{i, j, k};
        const ValueRange r = grid.range(cell);
        transparent_[grid.index(cell)] = tf.max_opacity(r.min, r.max) <= 0.0f ? 1 : 0;
      }
    }
  }
}

}  // namespace sfcvis::render
