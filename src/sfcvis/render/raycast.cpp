#include "sfcvis/render/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sfcvis::render {

void validate_step(float step) {
  if (!(std::isfinite(step) && step > 0.0f)) {
    throw std::invalid_argument("RenderConfig::step must be finite and positive (got " +
                                std::to_string(step) + ")");
  }
}

void validate_step(float step, const core::Extents3D& extents) {
  validate_step(step);
  const double diagonal = std::sqrt(static_cast<double>(extents.nx) * extents.nx +
                                    static_cast<double>(extents.ny) * extents.ny +
                                    static_cast<double>(extents.nz) * extents.nz);
  const double smallest = diagonal / kMaxRaySamples;
  if (step < smallest) {
    std::ostringstream msg;
    msg << "RenderConfig::step " << step << " needs more than 2^24 samples along the "
        << extents.nx << "x" << extents.ny << "x" << extents.nz
        << " volume's diagonal; the smallest step is " << smallest;
    throw std::invalid_argument(msg.str());
  }
}

void validate_cells(const MacrocellGrid& cells, const core::Extents3D& extents) {
  const core::Extents3D& e = cells.volume_extents();
  if (e != extents) {
    std::ostringstream msg;
    msg << "macrocell grid summarizes a " << e.nx << "x" << e.ny << "x" << e.nz
        << " volume, not the rendered " << extents.nx << "x" << extents.ny << "x"
        << extents.nz << " one";
    throw std::invalid_argument(msg.str());
  }
}

std::optional<std::pair<float, float>> intersect_box(const Ray& ray, Vec3 lo,
                                                     Vec3 hi) noexcept {
  const float o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
  const float d[3] = {ray.dir.x, ray.dir.y, ray.dir.z};
  // trace_ray steps RenderConfig::step voxels along t only for a unit
  // direction. A zero, tiny or non-finite direction, or a non-finite
  // origin, has no bounded sample count: (1e-30, 0, 0) spans [0, 4e30] in
  // an 8^3 box.
  const bool finite_origin = std::isfinite(o[0]) && std::isfinite(o[1]) && std::isfinite(o[2]);
  if (!finite_origin || !is_unit(ray.dir)) {
    return std::nullopt;
  }
  float t0 = 0.0f;  // clip to the forward half of the ray
  float t1 = std::numeric_limits<float>::max();
  const float lov[3] = {lo.x, lo.y, lo.z};
  const float hiv[3] = {hi.x, hi.y, hi.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (d[axis] == 0.0f) {
      if (o[axis] < lov[axis] || o[axis] > hiv[axis]) {
        return std::nullopt;
      }
      continue;
    }
    const float inv = 1.0f / d[axis];
    float ta = (lov[axis] - o[axis]) * inv;
    float tb = (hiv[axis] - o[axis]) * inv;
    if (ta > tb) {
      std::swap(ta, tb);
    }
    t0 = std::max(t0, ta);
    t1 = std::min(t1, tb);
    if (t0 > t1) {
      return std::nullopt;
    }
  }
  return std::make_pair(t0, t1);
}

namespace detail {

// Out of line on purpose — see the header: one compiled body means every
// trace_ray instantiation sees identical FP-contraction choices.
float sample_param(float t_enter, std::uint64_t n, float step) noexcept {
  return t_enter + static_cast<float>(n) * step;
}

Vec3 sample_position(const Ray& ray, float t) noexcept { return ray.at(t); }

float headlight_scale(const Vec3& normal, const Vec3& dir, float ambient) noexcept {
  const float len = length(normal);
  if (len <= 1e-6f) {
    return 1.0f;
  }
  const float diffuse = std::abs(dot(normal, dir)) / len;
  return ambient + (1.0f - ambient) * diffuse;
}

}  // namespace detail

}  // namespace sfcvis::render
