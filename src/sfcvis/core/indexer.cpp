#include "sfcvis/core/indexer.hpp"

namespace sfcvis::core {

Indexer::Indexer(Order order, const Extents3D& extents)
    : order_(order), extents_(extents) {
  validate_extents(extents);
  if (order == Order::kArray) {
    capacity_ = extents.size();
    xtab_.resize(extents.nx);
    ytab_.resize(extents.ny);
    ztab_.resize(extents.nz);
    for (std::uint32_t i = 0; i < extents.nx; ++i) {
      xtab_[i] = i;
    }
    for (std::uint32_t j = 0; j < extents.ny; ++j) {
      ytab_[j] = static_cast<std::size_t>(j) * extents.nx;
    }
    for (std::uint32_t k = 0; k < extents.nz; ++k) {
      ztab_[k] = static_cast<std::size_t>(k) * extents.nx * extents.ny;
    }
  } else {
    const GMortonTables tables(extents, InterleavePattern::canonical(extents));
    capacity_ = tables.capacity();
    xtab_.resize(extents.nx);
    ytab_.resize(extents.ny);
    ztab_.resize(extents.nz);
    for (std::uint32_t i = 0; i < extents.nx; ++i) {
      xtab_[i] = tables.index(i, 0, 0);
    }
    for (std::uint32_t j = 0; j < extents.ny; ++j) {
      ytab_[j] = tables.index(0, j, 0);
    }
    for (std::uint32_t k = 0; k < extents.nz; ++k) {
      ztab_[k] = tables.index(0, 0, k);
    }
  }
}

}  // namespace sfcvis::core
