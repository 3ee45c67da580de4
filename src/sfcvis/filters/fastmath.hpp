// Scalar exp(-u) approximation behind the bilateral fast_exp mode.
//
// The bilateral filter's photometric term costs one exp per stencil tap,
// and a std::exp call there dominates the tap loop. The approximation
// below is branch-free, uses only +,*,float<->int moves, and rounds via
// the float magic-number trick, so it maps one-to-one onto vector lanes:
// simd::fast_exp_neg (core/simd.hpp) is its lane-exact twin, which the
// gather path's explicit-SIMD tap loop calls, and tests/test_simd.cpp
// pins the two bit-for-bit. Accuracy is driven by the gather fast path's
// contract: filter output within 1e-5 of the exact kernel
// (tests/test_bilateral_gather.cpp pins both the <1e-6 relative error here
// and the end-to-end bound).
#pragma once

#include <bit>
#include <cstdint>

namespace sfcvis::filters {

/// exp(-u) for u >= 0. Relative error < ~2e-6 for u < 8 (where bilateral
/// weights are non-negligible), growing like u * 2^-24 beyond that from
/// single-precision argument reduction (~7e-6 at u ~ 80); inputs
/// beyond the underflow knee (-u * log2 e < -125) clamp to 2^-125 * p
/// (~1e-38) instead of producing denormals. Do not pass negative or NaN u.
[[nodiscard]] inline float fast_exp_neg(float u) noexcept {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2 = 0.69314718055994531f;
  constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23: adds round-to-nearest
  float t = -u * kLog2e;
  t = t < -125.0f ? -125.0f : t;
  const float n = (t + kRoundMagic) - kRoundMagic;  // nearest integer to t
  const float g = (t - n) * kLn2;                   // |g| <= ln2 / 2
  // exp(g) on [-ln2/2, ln2/2]: degree-6 Taylor, truncation < 1.3e-7 rel.
  float p = 1.0f / 720.0f;
  p = p * g + 1.0f / 120.0f;
  p = p * g + 1.0f / 24.0f;
  p = p * g + 1.0f / 6.0f;
  p = p * g + 0.5f;
  p = p * g + 1.0f;
  p = p * g + 1.0f;
  // 2^n by exponent-field construction; n is in [-125, 0] after the clamp.
  const auto ni = static_cast<std::int32_t>(n);
  const float scale = std::bit_cast<float>(static_cast<std::uint32_t>(ni + 127) << 23);
  return p * scale;
}

}  // namespace sfcvis::filters
