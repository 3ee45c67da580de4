// Minimal 3-vector math for the raycaster. Float precision throughout: the
// renderer works in voxel coordinates where float is ample up to 2^21 axes.
#pragma once

#include <cmath>

namespace sfcvis::render {

struct Vec3 {
  float x = 0, y = 0, z = 0;

  friend constexpr Vec3 operator+(Vec3 a, Vec3 b) noexcept {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend constexpr Vec3 operator-(Vec3 a, Vec3 b) noexcept {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend constexpr Vec3 operator*(Vec3 a, float s) noexcept {
    return {a.x * s, a.y * s, a.z * s};
  }
  friend constexpr Vec3 operator*(float s, Vec3 a) noexcept { return a * s; }
  friend constexpr Vec3 operator-(Vec3 a) noexcept { return {-a.x, -a.y, -a.z}; }
  friend constexpr bool operator==(const Vec3&, const Vec3&) = default;
};

[[nodiscard]] constexpr float dot(Vec3 a, Vec3 b) noexcept {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

[[nodiscard]] constexpr Vec3 cross(Vec3 a, Vec3 b) noexcept {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

[[nodiscard]] inline float length(Vec3 v) noexcept { return std::sqrt(dot(v, v)); }

[[nodiscard]] inline Vec3 normalized(Vec3 v) noexcept {
  const float len = length(v);
  return len > 0.0f ? v * (1.0f / len) : Vec3{};
}

/// True when v's squared length is within 1e-3 of 1: a unit vector up to
/// float rounding. False for zero, tiny and non-finite vectors.
[[nodiscard]] inline bool is_unit(Vec3 v) noexcept {
  return std::abs(dot(v, v) - 1.0f) <= 1e-3f;
}

/// A ray: origin plus unit direction. The direction must be is_unit():
/// trace_ray steps along it in voxels, and intersect_box rejects any other.
struct Ray {
  Vec3 origin;
  Vec3 dir;

  [[nodiscard]] constexpr Vec3 at(float t) const noexcept { return origin + dir * t; }
};

}  // namespace sfcvis::render
