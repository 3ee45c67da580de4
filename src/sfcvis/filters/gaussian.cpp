#include "sfcvis/filters/gaussian.hpp"

#include <cmath>

namespace sfcvis::filters {

std::vector<float> gaussian_kernel_1d(unsigned radius, float sigma) {
  detail::require_finite_falloff(sigma, "gaussian sigma");
  std::vector<float> taps(2 * static_cast<std::size_t>(radius) + 1);
  const float inv2s2 = 1.0f / (2.0f * sigma * sigma);
  float norm = 0.0f;
  for (std::size_t n = 0; n < taps.size(); ++n) {
    const auto d = static_cast<float>(static_cast<int>(n) - static_cast<int>(radius));
    taps[n] = std::exp(-d * d * inv2s2);
    norm += taps[n];
  }
  for (auto& t : taps) {
    t /= norm;
  }
  return taps;
}

}  // namespace sfcvis::filters
