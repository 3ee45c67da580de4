#include "sfcvis/verify/goldens.hpp"

#include <utility>

#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/marschner_lobb.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gaussian.hpp"
#include "sfcvis/filters/median.hpp"
#include "sfcvis/render/camera.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/render/transfer.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/verify/rng.hpp"

namespace sfcvis::verify {

std::uint64_t image_checksum(const render::Image& img) {
  Fnv fnv;
  for (const auto& p : img.pixels()) {
    fnv.feed(p.r);
    fnv.feed(p.g);
    fnv.feed(p.b);
    fnv.feed(p.a);
  }
  return fnv.value();
}

namespace {

using core::ArrayOrderLayout;
using core::Extents3D;
using ArrayGrid = core::ArrayVolume;

/// Integer-only checksums first: these pin the SplitMix64 fill hash and the
/// Morton codec bit-for-bit and are portable across toolchains (no floats
/// were summed in their making).
std::uint64_t golden_fill_hash() {
  Fnv fnv;
  for (std::uint32_t k = 0; k < 9; ++k) {
    for (std::uint32_t j = 0; j < 10; ++j) {
      for (std::uint32_t i = 0; i < 12; ++i) {
        fnv.feed(hash_coord(42, i, j, k));
      }
    }
  }
  return fnv.value();
}

std::uint64_t golden_morton_codec() {
  Fnv fnv;
  // Encode a coordinate lattice, then walk steps in every direction from
  // each code — pins encode/decode and the dilated ripple-add increments.
  static constexpr std::uint32_t kCoords[] = {0, 1, 7, 8, 21, 255, (1u << 21) - 1};
  for (const std::uint32_t x : kCoords) {
    for (const std::uint32_t y : kCoords) {
      for (const std::uint32_t z : kCoords) {
        const std::uint64_t m = core::morton_encode_3d(x, y, z);
        fnv.feed(m);
        fnv.feed(core::morton_step_x(m, 1));
        fnv.feed(core::morton_step_y(m, 1));
        fnv.feed(core::morton_step_z(m, 1));
        fnv.feed(core::morton_step_x(m, -1));
        fnv.feed(core::morton_step_y(m, -1));
        fnv.feed(core::morton_step_z(m, -1));
      }
    }
  }
  return fnv.value();
}

}  // namespace

std::vector<GoldenEntry> compute_goldens() {
  std::vector<GoldenEntry> goldens;
  const auto add = [&](std::string name, std::uint64_t value) {
    goldens.push_back({std::move(name), value});
  };

  add("verify/fill-hash-12x10x9", golden_fill_hash());
  add("core/morton-codec", golden_morton_codec());

  const Extents3D e = Extents3D::cube(16);
  exec::ExecutionContext pool(3);

  ArrayGrid phantom(e);
  data::fill_mri_phantom(phantom,
                         {.seed = 1, .texture_amplitude = 0.02f, .noise_sigma = 0.03f});
  add("dataset/phantom-16", grid_checksum(phantom));

  ArrayGrid combustion(e);
  data::fill_combustion(combustion);
  add("dataset/combustion-16", grid_checksum(combustion));

  ArrayGrid lobb(e);
  data::fill_marschner_lobb(lobb);
  add("dataset/marschner-lobb-16", grid_checksum(lobb));

  ArrayGrid src(e);
  data::fill_mri_phantom(src, {.seed = 4, .texture_amplitude = 0.0f, .noise_sigma = 0.05f});
  ArrayGrid dst(e);

  {
    const filters::BilateralParams params{2, 1.5f, 0.15f};
    filters::bilateral_parallel(src, dst, params, pool);
    add("filters/bilateral-r2-exact-16", grid_checksum(dst));
  }
  {
    filters::BilateralParams params{1, 1.5f, 0.15f, filters::PencilAxis::kZ,
                                    filters::LoopOrder::kXYZ};
    params.use_gather = true;
    params.fast_exp = true;
    filters::bilateral_parallel(src, dst, params, pool);
    add("filters/bilateral-r1-gather-fastexp-16", grid_checksum(dst));
  }
  {
    filters::gaussian_convolve(src, dst, 2, 1.2f, pool);
    add("filters/gaussian-r2-16", grid_checksum(dst));
  }
  {
    filters::median_filter(src, dst, 1, pool);
    add("filters/median-r1-16", grid_checksum(dst));
  }

  const auto tf = render::TransferFunction::flame();
  {
    const auto cam = render::orbit_camera(3, 8, 16, 16, 16);
    const render::RenderConfig config{48, 48, 16, 0.6f, 0.98f};
    add("render/flame-vp3-48",
        image_checksum(render::raycast_parallel(combustion, cam, tf, config, pool)));
  }
  {
    const auto cam = render::orbit_camera(5, 8, 16, 16, 16);
    render::RenderConfig config{48, 48, 16, 0.6f, 0.98f};
    config.shade = true;
    config.use_macrocells = true;
    config.macrocell_size = 4;
    add("render/flame-shaded-mc-vp5-48",
        image_checksum(render::raycast_parallel(combustion, cam, tf, config, pool)));
  }
  {
    const auto cam = render::orbit_camera(1, 8, 16, 16, 16);
    render::RenderConfig config{48, 48, 16, 0.6f, 0.98f};
    config.mode = render::RenderMode::kMip;
    add("render/mip-vp1-48",
        image_checksum(render::raycast_parallel(combustion, cam, tf, config, pool)));
  }

  return goldens;
}

}  // namespace sfcvis::verify
