// Perspective (and orthographic) camera plus the orbit-viewpoint generator
// of the paper's raycasting experiments (Sec. IV-B4): the viewpoint orbits
// the volume center so that at viewpoints 0 and 4 the rays run parallel to
// the x axis (with the array-order grain) and in between they are
// increasingly misaligned.
#pragma once

#include <cstdint>

#include "sfcvis/render/vec.hpp"

namespace sfcvis::render {

/// Projection mode. The paper's experiments use perspective, whose
/// per-pixel ray slopes make the access pattern "semi-structured";
/// orthographic is provided for the structured-access contrast.
enum class Projection : std::uint8_t { kPerspective, kOrthographic };

/// Pinhole camera.
class Camera {
 public:
  Camera() = default;

  /// Looks from `eye` toward `target` with `up` roughly up; `vfov_deg` is
  /// the vertical field of view (perspective) and `ortho_half_height` the
  /// half-height of the orthographic window. Throws std::invalid_argument
  /// when an argument is not finite, when eye == target, or when up is
  /// parallel to the view direction.
  Camera(Vec3 eye, Vec3 target, Vec3 up, float vfov_deg, Projection projection,
         float ortho_half_height = 1.0f);

  /// The ray through pixel center (px, py) of a width x height image.
  /// Pixel (0, 0) is the upper-left corner.
  [[nodiscard]] Ray ray_for_pixel(std::uint32_t px, std::uint32_t py, std::uint32_t width,
                                  std::uint32_t height) const noexcept;

  [[nodiscard]] Vec3 eye() const noexcept { return eye_; }
  [[nodiscard]] Vec3 forward() const noexcept { return forward_; }
  [[nodiscard]] Projection projection() const noexcept { return projection_; }

 private:
  Vec3 eye_{};
  Vec3 forward_{0, 0, -1};
  Vec3 right_{1, 0, 0};
  Vec3 up_{0, 1, 0};
  float tan_half_fov_ = 0.5f;
  float ortho_half_height_ = 1.0f;
  Projection projection_ = Projection::kPerspective;
};

/// Camera at orbit position `viewpoint` of `num_viewpoints` equally spaced
/// stops around the center of a volume with the given extents (in voxels).
/// The orbit lies in the x-z plane: viewpoint 0 looks down the -x axis
/// (rays aligned with the array-order fast axis), viewpoint
/// num_viewpoints/2 down +x, and the quarter points look along z (the
/// against-the-grain views).
[[nodiscard]] Camera orbit_camera(unsigned viewpoint, unsigned num_viewpoints, float nx,
                                  float ny, float nz,
                                  Projection projection = Projection::kPerspective,
                                  float distance_factor = 1.8f, float vfov_deg = 38.0f);

}  // namespace sfcvis::render
