#include "sfcvis/core/volume.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

namespace sfcvis::core {

const char* to_string(LayoutKind kind) noexcept {
  // Kept in sync with each Layout::name() (z-order is the canonical
  // gmorton pattern); static_asserts below pin them.
  switch (kind) {
    case LayoutKind::kArray:
      return "array-order";
    case LayoutKind::kZOrder:
      return "z-order";
    case LayoutKind::kTiled:
      return "tiled";
    case LayoutKind::kHilbert:
      return "hilbert";
    case LayoutKind::kGMorton:
      return "gmorton";
    case LayoutKind::kBricked:
      return "bricked";
  }
  return "?";
}

static_assert(ArrayOrderLayout::name() == std::string_view{"array-order"});
static_assert(TiledLayout::name() == std::string_view{"tiled"});
static_assert(HilbertLayout::name() == std::string_view{"hilbert"});
static_assert(GeneralizedMortonLayout::name() == std::string_view{"gmorton"});

namespace {

[[noreturn]] void throw_unknown_layout(std::string_view name) {
  std::string msg = "unknown layout kind: \"" + std::string(name) + "\" (valid:";
  for (const LayoutKind kind : kAllLayoutKinds) {
    msg += ' ';
    msg += to_string(kind);
  }
  msg +=
      "; generalized Morton also accepts an explicit interleave pattern as "
      "\"gmorton:<pattern>\", e.g. \"gmorton:zyxzyxzzyyxx\" — MSB-first, one "
      "'x'/'y'/'z' per padded coordinate bit)";
  throw std::invalid_argument(msg);
}

}  // namespace

LayoutKind parse_layout_kind(std::string_view name) {
  if (name == "array-order" || name == "array" || name == "a-order") {
    return LayoutKind::kArray;
  }
  if (name == "z-order" || name == "zorder" || name == "morton") {
    return LayoutKind::kZOrder;
  }
  if (name == "tiled") {
    return LayoutKind::kTiled;
  }
  if (name == "hilbert") {
    return LayoutKind::kHilbert;
  }
  if (name == "gmorton" || name == "generalized-morton") {
    return LayoutKind::kGMorton;
  }
  if (name == "bricked") {
    return LayoutKind::kBricked;
  }
  throw_unknown_layout(name);
}

LayoutSpec parse_layout_spec(std::string_view spec) {
  LayoutSpec out;
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos) {
    out.kind = parse_layout_kind(spec);
    return out;
  }
  const std::string_view name = spec.substr(0, colon);
  const std::string_view arg = spec.substr(colon + 1);
  out.kind = parse_layout_kind(name);
  if (out.kind != LayoutKind::kGMorton) {
    throw std::invalid_argument("layout \"" + std::string(name) +
                                "\" takes no \":<pattern>\" argument (only gmorton does)");
  }
  if (arg.empty()) {
    throw std::invalid_argument(
        "gmorton: empty interleave pattern after ':' (use plain \"gmorton\" for the "
        "canonical pattern)");
  }
  out.interleave = std::string(arg);
  return out;
}

AnyVolume make_volume(LayoutKind kind, const Extents3D& extents, const VolumeOpts& opts) {
  switch (kind) {
    case LayoutKind::kArray:
      return AnyVolume(
          ArrayVolume(ArrayOrderLayout(extents), opts.memory, opts.first_touch));
    case LayoutKind::kZOrder:
      return AnyVolume(
          GMortonVolume(GeneralizedMortonLayout(extents), opts.memory, opts.first_touch));
    case LayoutKind::kTiled:
      return AnyVolume(
          TiledVolume(TiledLayout(extents, opts.tile), opts.memory, opts.first_touch));
    case LayoutKind::kHilbert:
      return AnyVolume(
          HilbertVolume(HilbertLayout(extents), opts.memory, opts.first_touch));
    case LayoutKind::kGMorton: {
      const InterleavePattern pattern =
          opts.interleave.empty() ? InterleavePattern::canonical(extents)
                                  : InterleavePattern(opts.interleave, extents);
      return AnyVolume(GMortonVolume(GeneralizedMortonLayout(extents, pattern), opts.memory,
                                     opts.first_touch));
    }
    case LayoutKind::kBricked:
      throw std::invalid_argument(
          "make_volume: \"bricked\" volumes cannot be allocated blank — pack a brick "
          "file (core::pack_brick_file or tools/brick_pack) and open it with "
          "core::BrickedVolume::open / exec::ExecutionContext::open_bricked");
  }
  throw std::invalid_argument("unknown LayoutKind");
}

LayoutKind AnyVolume::kind() const noexcept {
  // One entry per Variant alternative, in order.
  constexpr LayoutKind kByAlternative[] = {LayoutKind::kArray, LayoutKind::kTiled,
                                           LayoutKind::kHilbert, LayoutKind::kGMorton,
                                           LayoutKind::kBricked};
  static_assert(std::size(kByAlternative) == std::variant_size_v<Variant>);
  const GMortonVolume* gm = std::get_if<GMortonVolume>(&v_);
  if (gm != nullptr && gm->layout().canonical()) {
    return LayoutKind::kZOrder;
  }
  return kByAlternative[v_.index()];
}

AnyVolume AnyVolume::convert_to(LayoutKind kind, const VolumeOpts& opts) const {
  AnyVolume dst = make_volume(kind, extents(), opts);
  dst.copy_from(*this);
  return dst;
}

}  // namespace sfcvis::core
