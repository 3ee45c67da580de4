#include "sfcvis/verify/diff.hpp"

#include <cstring>
#include <limits>
#include <sstream>

namespace sfcvis::verify {

std::uint64_t ulp_distance(float a, float b) noexcept {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  // Map the float bit pattern to a monotone integer line: non-negative
  // floats keep their pattern, negative floats mirror below zero, so the
  // integer difference counts representable values between a and b
  // (treating -0 and +0 as the same point).
  const auto to_line = [](float v) {
    std::int32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits >= 0 ? static_cast<std::int64_t>(bits)
                     : -static_cast<std::int64_t>(bits & 0x7fffffff);
  };
  const std::int64_t la = to_line(a);
  const std::int64_t lb = to_line(b);
  return static_cast<std::uint64_t>(la > lb ? la - lb : lb - la);
}

std::string Tolerance::to_string() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kBitIdentical:
      out << "bit-identical";
      break;
    case Kind::kAbsolute:
      out << "|diff|<=" << max_abs;
      break;
  }
  return out.str();
}

std::string DiffReport::to_string() const {
  std::ostringstream out;
  if (ok) {
    out << "OK   " << context << ": " << compared << " elements, tier "
        << tolerance.to_string();
    return out.str();
  }
  out << "FAIL " << context << ": first divergence at (" << i << "," << j << "," << k
      << "): expected " << std::hexfloat << expected << " actual " << actual
      << std::defaultfloat << " (ulps=" << ulps << ", |diff|=" << std::abs(expected - actual)
      << "), " << mismatches << "/" << compared << " mismatched, tier "
      << tolerance.to_string();
  return out.str();
}

DiffReport compare_images(const render::Image& expected, const render::Image& actual,
                          const Tolerance& tol, std::string context) {
  if (expected.width() != actual.width() || expected.height() != actual.height()) {
    DiffReport report;
    report.ok = false;
    report.context = std::move(context) + " [image size mismatch]";
    report.tolerance = tol;
    report.mismatches = 1;
    return report;
  }
  const std::uint64_t w = expected.width();
  const std::uint64_t count = w * expected.height() * 4;
  const auto channel = [](const render::Rgba& p, std::uint32_t c) {
    return c == 0 ? p.r : c == 1 ? p.g : c == 2 ? p.b : p.a;
  };
  return detail::compare_elements(
      count, tol, std::move(context),
      [&](std::uint64_t n) {
        const auto c = static_cast<std::uint32_t>(n & 3);
        const auto x = static_cast<std::uint32_t>((n >> 2) % w);
        const auto y = static_cast<std::uint32_t>((n >> 2) / w);
        return std::pair<float, float>(channel(expected.at(x, y), c),
                                       channel(actual.at(x, y), c));
      },
      [&](std::uint64_t n) {
        return std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>(
            static_cast<std::uint32_t>((n >> 2) % w),
            static_cast<std::uint32_t>((n >> 2) / w), static_cast<std::uint32_t>(n & 3));
      });
}

DiffReport compare_images_mirrored_x(const render::Image& expected,
                                     const render::Image& actual, const Tolerance& tol,
                                     std::string context) {
  if (expected.width() != actual.width() || expected.height() != actual.height()) {
    DiffReport report;
    report.ok = false;
    report.context = std::move(context) + " [image size mismatch]";
    report.tolerance = tol;
    report.mismatches = 1;
    return report;
  }
  const std::uint64_t w = expected.width();
  const std::uint64_t count = w * expected.height() * 4;
  const auto channel = [](const render::Rgba& p, std::uint32_t c) {
    return c == 0 ? p.r : c == 1 ? p.g : c == 2 ? p.b : p.a;
  };
  return detail::compare_elements(
      count, tol, std::move(context),
      [&](std::uint64_t n) {
        const auto c = static_cast<std::uint32_t>(n & 3);
        const auto x = static_cast<std::uint32_t>((n >> 2) % w);
        const auto y = static_cast<std::uint32_t>((n >> 2) / w);
        const auto mx = static_cast<std::uint32_t>(w - 1) - x;
        return std::pair<float, float>(channel(expected.at(x, y), c),
                                       channel(actual.at(mx, y), c));
      },
      [&](std::uint64_t n) {
        return std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>(
            static_cast<std::uint32_t>((n >> 2) % w),
            static_cast<std::uint32_t>((n >> 2) / w), static_cast<std::uint32_t>(n & 3));
      });
}

}  // namespace sfcvis::verify
