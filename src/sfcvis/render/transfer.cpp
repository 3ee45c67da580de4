#include "sfcvis/render/transfer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace sfcvis::render {

namespace {

/// Bin count of the alpha-envelope table. 256 bins over the control-point
/// range keep the transparency classification tight (a macrocell is only
/// misclassified as non-transparent when the envelope rises within two
/// bins of its value range) at a few KB per transfer function.
constexpr std::size_t kEnvelopeBins = 256;

}  // namespace

TransferFunction::TransferFunction(std::vector<TransferPoint> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("TransferFunction: at least one control point required");
  }
  if (!std::is_sorted(points_.begin(), points_.end(),
                      [](const auto& a, const auto& b) { return a.value < b.value; })) {
    throw std::invalid_argument("TransferFunction: control points must be sorted by value");
  }
  for (const auto& p : points_) {
    const Rgba& c = p.color;
    if (!std::isfinite(p.value) || !std::isfinite(c.r) || !std::isfinite(c.g) ||
        !std::isfinite(c.b)) {
      throw std::invalid_argument("TransferFunction: values and colours must be finite");
    }
    if (!(c.a >= 0.0f && c.a <= 1.0f)) {
      throw std::invalid_argument("TransferFunction: alpha must lie in [0, 1]");
    }
  }
  build_opacity_envelope();
  const auto visible = std::find_if(points_.begin(), points_.end(),
                                    [](const auto& p) { return p.color.a != 0.0f; });
  if (visible == points_.end()) {
    transparent_bound_ = std::numeric_limits<float>::infinity();
  } else if (visible == points_.begin()) {
    // Not -inf: -inf <= -inf, and a -inf value samples as the visible
    // first point. No value compares <= NaN.
    transparent_bound_ = std::numeric_limits<float>::quiet_NaN();
  } else {
    // sample() at a value shared by the last transparent point and the
    // first visible one may return the visible colour.
    const float last = std::prev(visible)->value;
    const float below = std::nextafter(last, -std::numeric_limits<float>::infinity());
    transparent_bound_ = visible->value > last ? last : below;
  }
}

Rgba TransferFunction::sample(float value) const noexcept {
  // Written so NaN takes the first branch: it fails every comparison, and
  // the segment scan below would run past a one-point table.
  if (!(value > points_.front().value)) {
    return points_.front().color;
  }
  if (value >= points_.back().value) {
    return points_.back().color;
  }
  // Find the bracketing segment (few points: linear scan beats binary
  // search on branch prediction).
  std::size_t hi = 1;
  while (points_[hi].value < value) {
    ++hi;
  }
  const auto& a = points_[hi - 1];
  const auto& b = points_[hi];
  const float t = (value - a.value) / (b.value - a.value);
  return Rgba{a.color.r + t * (b.color.r - a.color.r),
              a.color.g + t * (b.color.g - a.color.g),
              a.color.b + t * (b.color.b - a.color.b),
              a.color.a + t * (b.color.a - a.color.a)};
}

float TransferFunction::alpha_at(float value) const noexcept {
  if (!(value > points_.front().value)) {  // NaN included, as in sample()
    return points_.front().color.a;
  }
  if (value >= points_.back().value) {
    return points_.back().color.a;
  }
  std::size_t hi = 1;
  while (points_[hi].value < value) {
    ++hi;
  }
  const auto& a = points_[hi - 1];
  const auto& b = points_[hi];
  const float t = (value - a.value) / (b.value - a.value);
  return a.color.a + t * (b.color.a - a.color.a);
}

void TransferFunction::build_opacity_envelope() {
  env_lo_ = points_.front().value;
  const float span = points_.back().value - env_lo_;
  env_.clear();
  if (span <= 0.0f) {
    // Degenerate range: one bin holding the max alpha of all (coincident)
    // control points.
    env_inv_width_ = 0.0f;
    float m = points_.front().color.a;
    for (const auto& p : points_) {
      m = std::max(m, p.color.a);
    }
    env_.push_back({m});
    return;
  }
  const float width = span / static_cast<float>(kEnvelopeBins);
  env_inv_width_ = static_cast<float>(kEnvelopeBins) / span;

  // Level 0: exact piecewise-linear max per bin — the alpha envelope is
  // piecewise linear, so the max over a bin is attained at a bin edge or
  // at a control point inside the bin.
  std::vector<float> bins(kEnvelopeBins);
  for (std::size_t b = 0; b < kEnvelopeBins; ++b) {
    const float lo = env_lo_ + static_cast<float>(b) * width;
    const float hi = (b + 1 == kEnvelopeBins) ? points_.back().value : lo + width;
    bins[b] = std::max(alpha_at(lo), alpha_at(hi));
  }
  for (const auto& p : points_) {
    const auto b = static_cast<std::size_t>(std::clamp(
        (p.value - env_lo_) * env_inv_width_, 0.0f, static_cast<float>(kEnvelopeBins - 1)));
    bins[b] = std::max(bins[b], p.color.a);
  }
  env_.push_back(std::move(bins));

  // Sparse max table: env_[l][b] = max over bins [b, b + 2^l).
  for (std::size_t len = 2; len <= kEnvelopeBins; len *= 2) {
    const auto& prev = env_.back();
    std::vector<float> level(kEnvelopeBins - len + 1);
    for (std::size_t b = 0; b + len <= kEnvelopeBins; ++b) {
      level[b] = std::max(prev[b], prev[b + len / 2]);
    }
    env_.push_back(std::move(level));
  }
}

float TransferFunction::max_opacity(float lo, float hi) const noexcept {
  if (lo > hi) {
    std::swap(lo, hi);
  }
  if (env_inv_width_ == 0.0f) {
    return env_[0][0];
  }
  const auto last = static_cast<float>(kEnvelopeBins - 1);
  // Map to bin indices with one guard bin each side: the guard absorbs the
  // float rounding of the value-to-bin mapping, keeping the bound
  // conservative. Out-of-range values clamp, matching sample().
  const float fb0 = std::floor((lo - env_lo_) * env_inv_width_) - 1.0f;
  const float fb1 = std::floor((hi - env_lo_) * env_inv_width_) + 1.0f;
  const auto b0 = static_cast<std::size_t>(std::clamp(fb0, 0.0f, last));
  const auto b1 = static_cast<std::size_t>(std::clamp(fb1, 0.0f, last));
  // O(1) range max: two power-of-two windows covering [b0, b1].
  const std::size_t len = b1 - b0 + 1;
  const auto level = static_cast<std::size_t>(std::bit_width(len) - 1);
  return std::max(env_[level][b0], env_[level][b1 + 1 - (std::size_t{1} << level)]);
}

TransferFunction TransferFunction::flame() {
  return TransferFunction({
      {0.00f, {0.00f, 0.00f, 0.05f, 0.000f}},  // cold oxidizer: invisible
      {0.15f, {0.05f, 0.02f, 0.30f, 0.000f}},  // fuel haze: tinted, alpha 0
      {0.40f, {0.80f, 0.25f, 0.05f, 0.030f}},  // deep orange
      {0.70f, {1.00f, 0.60f, 0.10f, 0.120f}},  // bright flame sheet
      {1.00f, {1.00f, 0.95f, 0.80f, 0.250f}},  // white-hot core
  });
}

TransferFunction TransferFunction::grayscale(float min_value, float max_value) {
  return TransferFunction({
      {min_value, {0.0f, 0.0f, 0.0f, 0.0f}},
      {max_value, {1.0f, 1.0f, 1.0f, 0.08f}},
  });
}

}  // namespace sfcvis::render
