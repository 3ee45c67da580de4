#include "sfcvis/render/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace sfcvis::render {

void validate_step(float step) {
  if (!(std::isfinite(step) && step > 0.0f)) {
    throw std::invalid_argument("RenderConfig::step must be finite and positive (got " +
                                std::to_string(step) + ")");
  }
}

std::optional<std::pair<float, float>> intersect_box(const Ray& ray, Vec3 lo,
                                                     Vec3 hi) noexcept {
  float t0 = 0.0f;  // clip to the forward half of the ray
  float t1 = std::numeric_limits<float>::max();
  const float o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
  const float d[3] = {ray.dir.x, ray.dir.y, ray.dir.z};
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
