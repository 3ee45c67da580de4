// brick_pack: packs a volume into the SFCBRK01 out-of-core brick format
// (core/brick_file.hpp) that core::BrickedVolume /
// exec::ExecutionContext::open_bricked consume.
//
//   brick_pack --out=vol.sfcbrk --synthetic=phantom --size=128
//              --brick-edge=16 --inner=z-order
//   brick_pack --out=vol.sfcbrk --in=volume.bov --brick-edge=32
//              --inner=gmorton:zyxzyxzzyyxx
//   brick_pack --info=vol.sfcbrk
//
// Sources: --in reads a BOV header + float payload (data/volume_io.hpp);
// --synthetic generates one of the built-in fields (phantom, combustion,
// marschner-lobb) at --size (or --nx/--ny/--nz). --info prints and
// validates the header of an existing brick file (including the exact
// file-size check) without touching the payload.
#include <cstdio>
#include <exception>
#include <string>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/marschner_lobb.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/data/volume_io.hpp"

namespace {

using namespace sfcvis;

void print_info(const char* path, const core::BrickFileInfo& info) {
  const core::Extents3D grid = info.brick_grid();
  std::printf("%s:\n", path);
  std::printf("  extents      %u x %u x %u (%zu voxels)\n", info.extents.nx,
              info.extents.ny, info.extents.nz, info.extents.size());
  std::printf("  brick edge   %u (%zu floats, %zu bytes per brick)\n", info.brick_edge,
              info.brick_elems(), info.brick_bytes());
  std::printf("  brick grid   %u x %u x %u (%llu bricks, Morton order)\n", grid.nx,
              grid.ny, grid.nz, static_cast<unsigned long long>(info.brick_count));
  std::printf("  inner layout %s", core::to_string(info.inner_kind));
  if (info.inner_kind == core::LayoutKind::kTiled) {
    std::printf(" (tile %u)", info.inner_tile);
  }
  if (info.inner_kind == core::LayoutKind::kGMorton && !info.interleave.empty()) {
    std::printf(" (\"%s\")", info.interleave.c_str());
  }
  std::printf("\n  payload      %llu bytes at offset %llu\n",
              static_cast<unsigned long long>(info.expected_file_size() -
                                              info.payload_offset),
              static_cast<unsigned long long>(info.payload_offset));
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);
  try {
    const std::string info_path = opts.get_string("info", "");
    if (!info_path.empty()) {
      print_info(info_path.c_str(), core::read_brick_file_header(info_path));
      return 0;
    }

    const std::string out = opts.get_string("out", "");
    if (out.empty()) {
      std::fprintf(stderr,
                   "brick_pack: --out=<file> required (or --info=<file>); see the "
                   "header comment for usage\n");
      return 2;
    }

    core::AnyVolume src;
    const std::string in = opts.get_string("in", "");
    if (!in.empty()) {
      const data::RawVolume raw = data::load_bov(in);
      src = core::make_volume(core::LayoutKind::kArray, raw.extents);
      std::size_t cursor = 0;
      src.fill_from([&](std::uint32_t, std::uint32_t, std::uint32_t) {
        return raw.samples[cursor++];
      });
      std::printf("brick_pack: loaded %s (%u x %u x %u)\n", in.c_str(), raw.extents.nx,
                  raw.extents.ny, raw.extents.nz);
    } else {
      const std::uint32_t size = opts.get_u32("size", 64);
      const core::Extents3D e{opts.get_u32("nx", size), opts.get_u32("ny", size),
                              opts.get_u32("nz", size)};
      const std::string field = opts.get_string("synthetic", "phantom");
      src = core::make_volume(core::LayoutKind::kArray, e);
      if (field == "phantom") {
        data::fill_mri_phantom(src);
      } else if (field == "combustion") {
        data::fill_combustion(src);
      } else if (field == "marschner-lobb" || field == "ml") {
        data::fill_marschner_lobb(src);
      } else {
        std::fprintf(stderr,
                     "brick_pack: unknown --synthetic=%s (valid: phantom, combustion, "
                     "marschner-lobb)\n",
                     field.c_str());
        return 2;
      }
      std::printf("brick_pack: generated %s at %u x %u x %u\n", field.c_str(), e.nx,
                  e.ny, e.nz);
    }

    core::BrickPackOptions popts;
    popts.brick_edge = opts.get_u32("brick-edge", 16);
    const core::LayoutSpec inner =
        core::parse_layout_spec(opts.get_string("inner", "z-order"));
    popts.inner_kind = inner.kind;
    popts.interleave = inner.interleave;
    popts.inner_tile = opts.get_u32("inner-tile", 8);

    const core::BrickFileInfo info = core::pack_brick_file(out, src, popts);
    print_info(out.c_str(), info);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "brick_pack: %s\n", ex.what());
    return 1;
  }
}
