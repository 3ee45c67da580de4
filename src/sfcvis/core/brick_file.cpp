#include "sfcvis/core/brick_file.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/volume.hpp"

namespace sfcvis::core {

namespace {

constexpr char kMagic[8] = {'S', 'F', 'C', 'B', 'R', 'K', '0', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kFixedHeaderBytes = 48;
constexpr std::size_t kPayloadAlign = 64;

// The header's inner-kind field stores LayoutKind numerically, so the enum
// values are part of the SFCBRK01 format.
static_assert(static_cast<std::uint32_t>(LayoutKind::kArray) == 0);
static_assert(static_cast<std::uint32_t>(LayoutKind::kZOrder) == 1);
static_assert(static_cast<std::uint32_t>(LayoutKind::kTiled) == 2);
static_assert(static_cast<std::uint32_t>(LayoutKind::kHilbert) == 3);
static_assert(static_cast<std::uint32_t>(LayoutKind::kGMorton) == 4);
static_assert(static_cast<std::uint32_t>(LayoutKind::kBricked) == 5);

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
  throw std::runtime_error("brick file \"" + path + "\": " + reason);
}

/// RAII stdio handle (keeps every early-throw path leak-free).
struct File {
  std::FILE* f = nullptr;
  File(const std::string& path, const char* mode) : f(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

void put_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

[[nodiscard]] std::uint64_t payload_offset_for(std::size_t interleave_len) {
  const std::size_t raw = kFixedHeaderBytes + interleave_len;
  return (raw + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign;
}

void validate_brick_edge(std::uint32_t edge) {
  if (edge < 2 || edge > 64 || !std::has_single_bit(edge)) {
    throw std::invalid_argument("brick_edge must be a power of two in [2, 64], got " +
                                std::to_string(edge));
  }
}

}  // namespace

namespace detail {

std::vector<std::uint32_t> brick_inner_offsets(std::uint32_t edge, LayoutKind inner_kind,
                                               std::uint32_t inner_tile,
                                               const std::string& interleave) {
  validate_brick_edge(edge);
  const Extents3D cube = Extents3D::cube(edge);
  const std::size_t elems = static_cast<std::size_t>(edge) * edge * edge;
  const unsigned s = log2_pow2(edge);

  std::vector<std::uint32_t> lut(elems);
  const auto fill = [&](const auto& layout) {
    if (layout.required_capacity() != elems) {
      // Cannot happen for a pow2 cube (every in-core layout's padded space
      // is then exactly the cube); kept as a hard check because the LUT
      // indexes raw brick storage.
      throw std::runtime_error("brick inner layout capacity mismatch");
    }
    for (std::uint32_t lk = 0; lk < edge; ++lk) {
      for (std::uint32_t lj = 0; lj < edge; ++lj) {
        for (std::uint32_t li = 0; li < edge; ++li) {
          lut[li + (static_cast<std::size_t>(lj) << s) +
              (static_cast<std::size_t>(lk) << (2 * s))] =
              static_cast<std::uint32_t>(layout.index(li, lj, lk));
        }
      }
    }
  };

  switch (inner_kind) {
    case LayoutKind::kArray:
      fill(ArrayOrderLayout(cube));
      return lut;
    case LayoutKind::kTiled: {
      std::uint32_t tile = inner_tile == 0 ? 8 : inner_tile;
      tile = std::min(std::bit_floor(tile), edge);
      fill(TiledLayout(cube, tile));
      return lut;
    }
    case LayoutKind::kHilbert:
      fill(HilbertLayout(cube));
      return lut;
    case LayoutKind::kZOrder:
    case LayoutKind::kGMorton: {
      // Z-order is the canonical pattern; only gmorton reads the interleave.
      const InterleavePattern pattern =
          inner_kind == LayoutKind::kZOrder || interleave.empty()
              ? InterleavePattern::canonical(cube)
              : InterleavePattern(interleave, cube);
      fill(GeneralizedMortonLayout(cube, pattern));
      return lut;
    }
    case LayoutKind::kBricked:
      break;
  }
  throw std::invalid_argument("brick inner layout must be an in-core LayoutKind");
}

std::vector<std::uint64_t> brick_codes(const Extents3D& grid) {
  std::vector<std::uint64_t> codes;
  codes.reserve(grid.size());
  for (std::uint32_t bk = 0; bk < grid.nz; ++bk) {
    for (std::uint32_t bj = 0; bj < grid.ny; ++bj) {
      for (std::uint32_t bi = 0; bi < grid.nx; ++bi) {
        codes.push_back(morton_encode_3d(bi, bj, bk));
      }
    }
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

}  // namespace detail

BrickFileInfo pack_brick_file(const std::string& path, const AnyVolume& src,
                              const BrickPackOptions& opts) {
  validate_brick_edge(opts.brick_edge);
  BrickFileInfo info;
  info.extents = src.extents();
  validate_extents(info.extents);
  info.brick_edge = opts.brick_edge;
  info.inner_kind = opts.inner_kind;
  info.inner_tile =
      std::min(std::bit_floor(opts.inner_tile == 0 ? 8u : opts.inner_tile), opts.brick_edge);
  info.interleave = opts.interleave;
  info.payload_offset = payload_offset_for(info.interleave.size());

  // Validates the inner kind + interleave before any byte is written.
  const std::vector<std::uint32_t> lut = detail::brick_inner_offsets(
      info.brick_edge, info.inner_kind, info.inner_tile, info.interleave);
  const Extents3D grid = info.brick_grid();
  const std::vector<std::uint64_t> codes = detail::brick_codes(grid);
  info.brick_count = codes.size();

  File file(path, "wb");
  if (file.f == nullptr) {
    fail(path, "cannot open for writing");
  }

  std::vector<unsigned char> header(info.payload_offset, 0);
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  put_u32(header.data() + 8, kVersion);
  put_u32(header.data() + 12, info.extents.nx);
  put_u32(header.data() + 16, info.extents.ny);
  put_u32(header.data() + 20, info.extents.nz);
  put_u32(header.data() + 24, info.brick_edge);
  put_u32(header.data() + 28, static_cast<std::uint32_t>(info.inner_kind));
  put_u32(header.data() + 32, info.inner_tile);
  put_u32(header.data() + 36, static_cast<std::uint32_t>(info.interleave.size()));
  put_u64(header.data() + 40, info.brick_count);
  std::memcpy(header.data() + kFixedHeaderBytes, info.interleave.data(),
              info.interleave.size());
  if (std::fwrite(header.data(), 1, header.size(), file.f) != header.size()) {
    fail(path, "header write failed");
  }

  const std::uint32_t edge = info.brick_edge;
  const unsigned s = log2_pow2(edge);
  const Extents3D& e = info.extents;
  std::vector<float> scratch(info.brick_elems());
  bool ok = true;
  src.visit([&](const auto& g) {
    for (const std::uint64_t code : codes) {
      const MortonCoord3D b = morton_decode_3d(code);
      const std::uint32_t i0 = b.x * edge;
      const std::uint32_t j0 = b.y * edge;
      const std::uint32_t k0 = b.z * edge;
      for (std::uint32_t lk = 0; lk < edge; ++lk) {
        for (std::uint32_t lj = 0; lj < edge; ++lj) {
          for (std::uint32_t li = 0; li < edge; ++li) {
            const std::uint32_t i = i0 + li;
            const std::uint32_t j = j0 + lj;
            const std::uint32_t k = k0 + lk;
            const float v = e.contains(i, j, k) ? g.at(i, j, k) : 0.0f;
            scratch[lut[li + (static_cast<std::size_t>(lj) << s) +
                        (static_cast<std::size_t>(lk) << (2 * s))]] = v;
          }
        }
      }
      if (std::fwrite(scratch.data(), sizeof(float), scratch.size(), file.f) !=
          scratch.size()) {
        ok = false;
        return;
      }
    }
  });
  if (!ok || std::fflush(file.f) != 0) {
    fail(path, "payload write failed (disk full?)");
  }
  return info;
}

BrickFileInfo read_brick_file_header(const std::string& path) {
  File file(path, "rb");
  if (file.f == nullptr) {
    fail(path, "cannot open for reading");
  }
  unsigned char fixed[kFixedHeaderBytes];
  if (std::fread(fixed, 1, sizeof(fixed), file.f) != sizeof(fixed)) {
    fail(path, "truncated header (file shorter than " +
                   std::to_string(kFixedHeaderBytes) + " bytes)");
  }
  if (std::memcmp(fixed, kMagic, sizeof(kMagic)) != 0) {
    fail(path, "bad magic (not an SFCBRK01 brick file)");
  }
  if (get_u32(fixed + 8) != kVersion) {
    fail(path, "unsupported version " + std::to_string(get_u32(fixed + 8)));
  }

  BrickFileInfo info;
  info.extents = Extents3D{get_u32(fixed + 12), get_u32(fixed + 16), get_u32(fixed + 20)};
  info.brick_edge = get_u32(fixed + 24);
  const std::uint32_t inner = get_u32(fixed + 28);
  info.inner_tile = get_u32(fixed + 32);
  const std::uint32_t interleave_len = get_u32(fixed + 36);
  info.brick_count = get_u64(fixed + 40);

  try {
    validate_extents(info.extents);
    validate_brick_edge(info.brick_edge);
  } catch (const std::invalid_argument& ex) {
    fail(path, std::string("corrupt header: ") + ex.what());
  }
  if (inner > static_cast<std::uint32_t>(LayoutKind::kGMorton)) {
    fail(path, "corrupt header: inner layout kind " + std::to_string(inner) +
                   " is not an in-core LayoutKind");
  }
  info.inner_kind = static_cast<LayoutKind>(inner);
  if (info.inner_tile == 0 || info.inner_tile > info.brick_edge ||
      !std::has_single_bit(info.inner_tile)) {
    fail(path, "corrupt header: inner tile " + std::to_string(info.inner_tile) +
                   " (must be a pow2 <= brick edge)");
  }
  if (interleave_len > 3 * kMortonMaxBits3D) {
    fail(path, "corrupt header: interleave length " + std::to_string(interleave_len));
  }
  info.interleave.resize(interleave_len);
  if (interleave_len != 0 &&
      std::fread(info.interleave.data(), 1, interleave_len, file.f) != interleave_len) {
    fail(path, "truncated header (interleave pattern cut short)");
  }
  info.payload_offset = payload_offset_for(interleave_len);

  const std::uint64_t expected_bricks = info.brick_grid().size();
  if (info.brick_count != expected_bricks) {
    fail(path, "corrupt header: brick count " + std::to_string(info.brick_count) +
                   " does not match the brick grid (" + std::to_string(expected_bricks) +
                   " bricks)");
  }
  if (info.brick_count >
      (std::numeric_limits<std::uint64_t>::max() - info.payload_offset) /
          info.brick_bytes()) {
    fail(path, "corrupt header: payload size overflows");
  }

  if (std::fseek(file.f, 0, SEEK_END) != 0) {
    fail(path, "seek failed");
  }
  const long end = std::ftell(file.f);
  if (end < 0) {
    fail(path, "tell failed");
  }
  const auto actual = static_cast<std::uint64_t>(end);
  const std::uint64_t expected = info.expected_file_size();
  if (actual != expected) {
    fail(path, "file size " + std::to_string(actual) + " does not match header (expected " +
                   std::to_string(expected) + (actual < expected ? "; truncated?)" : ")"));
  }
  return info;
}

}  // namespace sfcvis::core
