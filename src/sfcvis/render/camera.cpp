#include "sfcvis/render/camera.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sfcvis::render {

namespace {

bool finite(Vec3 v) noexcept {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

}  // namespace

Camera::Camera(Vec3 eye, Vec3 target, Vec3 up, float vfov_deg, Projection projection,
               float ortho_half_height)
    : eye_(eye),
      ortho_half_height_(ortho_half_height),
      projection_(projection) {
  if (!(finite(eye) && finite(target) && finite(up) && std::isfinite(vfov_deg) &&
        std::isfinite(ortho_half_height))) {
    throw std::invalid_argument(
        "Camera: eye, target, up, vfov_deg and ortho_half_height must be finite");
  }
  // A zero forward or right vector would give every ray direction (0, 0, 0),
  // whose box span is unbounded. Orthographic rays take forward_ as their
  // direction, which intersect_box accepts only when it is unit length; a
  // target - eye whose squared length is subnormal does not normalize to 1.
  forward_ = normalized(target - eye);
  if (!is_unit(forward_)) {
    throw std::invalid_argument(
        "Camera: eye and target must be distinct (target - eye must normalize)");
  }
  right_ = normalized(cross(forward_, up));
  if (right_ == Vec3{} || !finite(right_)) {
    throw std::invalid_argument(
        "Camera: up must be non-zero and not parallel to the view direction");
  }
  up_ = cross(right_, forward_);
  tan_half_fov_ = std::tan(vfov_deg * std::numbers::pi_v<float> / 360.0f);
}

Ray Camera::ray_for_pixel(std::uint32_t px, std::uint32_t py, std::uint32_t width,
                          std::uint32_t height) const noexcept {
  // Pixel centers mapped to [-1, 1] with y flipped (image y grows down).
  const float u =
      (2.0f * (static_cast<float>(px) + 0.5f) / static_cast<float>(width) - 1.0f);
  const float v =
      (1.0f - 2.0f * (static_cast<float>(py) + 0.5f) / static_cast<float>(height));
  const float aspect = static_cast<float>(width) / static_cast<float>(height);

  if (projection_ == Projection::kPerspective) {
    const Vec3 dir = normalized(forward_ + right_ * (u * tan_half_fov_ * aspect) +
                                up_ * (v * tan_half_fov_));
    return Ray{eye_, dir};
  }
  const Vec3 offset =
      right_ * (u * ortho_half_height_ * aspect) + up_ * (v * ortho_half_height_);
  return Ray{eye_ + offset, forward_};
}

Camera orbit_camera(unsigned viewpoint, unsigned num_viewpoints, float nx, float ny,
                    float nz, Projection projection, float distance_factor,
                    float vfov_deg) {
  const Vec3 center{0.5f * nx, 0.5f * ny, 0.5f * nz};
  const float radius = distance_factor * std::max(nx, std::max(ny, nz));
  const float theta = 2.0f * std::numbers::pi_v<float> * static_cast<float>(viewpoint) /
                      static_cast<float>(num_viewpoints);
  // Orbit in the x-z plane, slightly lifted so the up vector is never
  // degenerate. viewpoint 0 sits on +x looking toward -x.
  const Vec3 eye = center + Vec3{radius * std::cos(theta), 0.07f * radius,
                                 radius * std::sin(theta)};
  const float ortho_half = 0.55f * std::max(ny, std::max(nx, nz));
  return Camera(eye, center, Vec3{0, 1, 0}, vfov_deg, projection, ortho_half);
}

}  // namespace sfcvis::render
