#include "sfcvis/render/image.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace sfcvis::render {

void write_ppm(const std::filesystem::path& path, const Image& image) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_ppm: cannot open " + path.string());
  }
  out << "P6\n" << image.width() << " " << image.height() << "\n255\n";
  std::vector<unsigned char> row(static_cast<std::size_t>(image.width()) * 3);
  for (std::uint32_t y = 0; y < image.height(); ++y) {
    for (std::uint32_t x = 0; x < image.width(); ++x) {
      const Rgba& p = image.at(x, y);
      // Premultiplied color over black: the accumulated r/g/b already carry
      // alpha; just clamp and quantize.
      row[3 * x + 0] = static_cast<unsigned char>(std::clamp(p.r, 0.0f, 1.0f) * 255.0f);
      row[3 * x + 1] = static_cast<unsigned char>(std::clamp(p.g, 0.0f, 1.0f) * 255.0f);
      row[3 * x + 2] = static_cast<unsigned char>(std::clamp(p.b, 0.0f, 1.0f) * 255.0f);
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
  if (!out) {
    throw std::runtime_error("write_ppm: write failed for " + path.string());
  }
}

TileDecomposition::TileDecomposition(std::uint32_t width, std::uint32_t height,
                                     std::uint32_t tile_size)
    : width_(width), height_(height), tile_size_(tile_size) {
  if (tile_size == 0) {
    throw std::invalid_argument("TileDecomposition: tile_size must be nonzero");
  }
  // In 64 bits: for tile sizes near 2^32, width + tile_size - 1 would wrap
  // 32 bits and leave no tiles at all.
  tiles_x_ = static_cast<std::uint32_t>((std::uint64_t{width} + tile_size - 1) / tile_size);
  tiles_y_ = static_cast<std::uint32_t>((std::uint64_t{height} + tile_size - 1) / tile_size);
}

Tile TileDecomposition::bounds(std::size_t index) const noexcept {
  const auto tx = static_cast<std::uint32_t>(index % tiles_x_);
  const auto ty = static_cast<std::uint32_t>(index / tiles_x_);
  Tile t;
  t.x0 = tx * tile_size_;
  t.y0 = ty * tile_size_;
  // x0 < width, so clipping the tile's width before adding never wraps
  // where x0 + tile_size_ could.
  t.x1 = t.x0 + std::min(tile_size_, width_ - t.x0);
  t.y1 = t.y0 + std::min(tile_size_, height_ - t.y0);
  return t;
}

}  // namespace sfcvis::render
