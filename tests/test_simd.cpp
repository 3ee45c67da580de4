// Per-op tests for core/simd.hpp, the native-width vector layer under the
// explicit bilateral tap loop. They run at simd::kNativeLanes on whatever
// backend the build selected (AVX-512 / AVX2 / NEON / scalar, see
// simd::active_isa()); the portable CI build pins the scalar backend.
//
// The load-bearing assertions are the *bit-identity* ones: the kernels
// rely on vector ops (including fast_exp_neg) matching scalar expressions
// of the same shape lane-for-lane.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sfcvis/core/simd.hpp"
#include "sfcvis/filters/fastmath.hpp"

namespace simd = sfcvis::simd;

namespace {

constexpr int N = simd::kNativeLanes;
using VF = simd::vfloat<N>;
using VI = simd::vint<N>;
using Lanes = std::array<float, N>;

Lanes iota_lanes(float base, float stride) {
  Lanes a;
  for (int i = 0; i < N; ++i) {
    a[static_cast<std::size_t>(i)] = base + stride * static_cast<float>(i);
  }
  return a;
}

VF load(const Lanes& a) { return VF::loadu(a.data()); }

/// Deterministic "noise" in (0, 1) — same hash family as the test volumes.
float hash01(std::uint32_t i) {
  const std::uint32_t h = (i * 73856093u) ^ ((i + 7u) * 19349663u);
  return static_cast<float>(h % 100000u) / 100000.0f;
}

void expect_lanes_eq(const VF& v, const Lanes& want, const char* what) {
  const auto got = v.to_array();
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[s]),
              std::bit_cast<std::uint32_t>(want[s]))
        << what << " lane " << i << ": " << got[s] << " vs " << want[s];
  }
}

}  // namespace

TEST(Simd, ReportsBackend) {
  const std::string isa = simd::active_isa();
  const int want = isa == "avx512" ? 16 : (isa == "avx2" ? 8 : 4);
  EXPECT_EQ(simd::kNativeLanes, want) << isa;
}

TEST(Simd, LaneArithmetic) {
  const auto xs = iota_lanes(1.25f, 0.75f);
  const auto ys = iota_lanes(-3.0f, 1.125f);
  const VF x = load(xs);
  const VF y = load(ys);

  Lanes want;
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    want[s] = xs[s] + ys[s];
  }
  expect_lanes_eq(x + y, want, "add");
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    want[s] = xs[s] - ys[s];
  }
  expect_lanes_eq(x - y, want, "sub");
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    want[s] = xs[s] * ys[s];
  }
  expect_lanes_eq(x * y, want, "mul");
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    want[s] = -xs[s];
  }
  expect_lanes_eq(-x, want, "neg");

  // -0 negation must be an exact sign flip, not 0 - x.
  const auto nz = (-VF::zero()).to_array();
  for (int i = 0; i < N; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(nz[static_cast<std::size_t>(i)]),
              std::bit_cast<std::uint32_t>(-0.0f));
  }
}

TEST(Simd, MaskAndSelect) {
  // Comparisons feed masks; select picks `a` exactly where the mask is set.
  // ys sits below, on and above xs in turn, so equal lanes are covered too.
  const auto xs = iota_lanes(0.0f, 1.0f);
  Lanes ys;
  for (int i = 0; i < N; ++i) {
    ys[static_cast<std::size_t>(i)] = static_cast<float>(i) + static_cast<float>(i % 3 - 1);
  }
  const VF x = load(xs);
  const VF y = load(ys);
  const VF ones = VF::broadcast(1.0f);
  const VF twos = VF::broadcast(2.0f);
  const auto lt_sel = select(lt(x, y), ones, twos).to_array();
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    EXPECT_EQ(lt_sel[s], xs[s] < ys[s] ? 1.0f : 2.0f) << "lt lane " << i;
  }
}

TEST(Simd, LoadMaskedTails) {
  // Unaligned source with sentinels so masked loads can't over-read lanes
  // into the result.
  std::vector<float> buf(static_cast<std::size_t>(N) + 8, -99.0f);
  for (int i = 0; i < N; ++i) {
    buf[static_cast<std::size_t>(i) + 1] = static_cast<float>(i) + 0.5f;
  }
  const float* p = buf.data() + 1;

  const auto full = VF::loadu(p).to_array();
  for (int i = 0; i < N; ++i) {
    EXPECT_EQ(full[static_cast<std::size_t>(i)], static_cast<float>(i) + 0.5f);
  }

  // Every tail length: lanes [0, n) from memory, lanes [n, N) exactly +0.
  for (int n = 0; n <= N; ++n) {
    const auto got = VF::loadu_masked(p, n).to_array();
    for (int i = 0; i < N; ++i) {
      const auto s = static_cast<std::size_t>(i);
      if (i < n) {
        EXPECT_EQ(got[s], static_cast<float>(i) + 0.5f) << "n=" << n;
      } else {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[s]), 0u) << "n=" << n;
      }
    }
  }
}

TEST(Simd, IntConversions) {
  // vint add + shift + bit reinterpretation: the fast_exp_neg exponent
  // construction 2^n, checked against the scalar bit_cast expression.
  // Feeding it trunc_to_int of fractional lanes of both signs also checks
  // truncation toward zero, like static_cast<int32>.
  Lanes xs;
  for (int i = 0; i < N; ++i) {
    xs[static_cast<std::size_t>(i)] =
        (static_cast<float>(i) - static_cast<float>(N) / 2.0f) * 1.75f;
  }
  const VI n = trunc_to_int(load(xs));
  const auto scale = float_bits((n + VI::broadcast(127)) << 23).to_array();
  for (int i = 0; i < N; ++i) {
    const auto s = static_cast<std::size_t>(i);
    const auto ni = static_cast<std::int32_t>(xs[s]);
    const float want = std::bit_cast<float>(static_cast<std::uint32_t>(ni + 127) << 23);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(scale[s]), std::bit_cast<std::uint32_t>(want))
        << "lane " << i << " x=" << xs[s];
  }

  const auto b = float_bits((VI::broadcast(-7) + VI::broadcast(127)) << 23).to_array();
  for (int i = 0; i < N; ++i) {
    EXPECT_EQ(b[static_cast<std::size_t>(i)], 0.0078125f);  // 2^-7
  }
}

TEST(Simd, ReduceAddSequential) {
  // Magnitude-skewed lanes make the sum order-sensitive; reduce_add must
  // match the sequential lane 0..N-1 loop exactly on every backend.
  Lanes xs;
  for (int i = 0; i < N; ++i) {
    xs[static_cast<std::size_t>(i)] =
        (i % 2 == 0 ? 1.0e6f : 1.0f) + hash01(static_cast<std::uint32_t>(i));
  }
  float want = 0.0f;
  for (int i = 0; i < N; ++i) {
    want += xs[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(reduce_add(load(xs)), want);
}

TEST(Simd, FastExpNegBitIdenticalToScalar) {
  // Lane-exact twin of filters::fast_exp_neg: sweep u in [0, 16], where
  // bilateral range weights are non-negligible, densely, plus the far tail
  // out to the underflow clamp. Bit-identity, not a tolerance: the
  // accuracy bounds the FastExp tests pin on the scalar function must
  // carry over to the vector tap loop unchanged.
  Lanes us;
  int lane = 0;
  auto flush = [&] {
    for (int i = lane; i < N; ++i) {
      us[static_cast<std::size_t>(i)] = 0.0f;  // pad; still a valid input
    }
    const auto got = simd::fast_exp_neg(load(us)).to_array();
    for (int i = 0; i < lane; ++i) {
      const auto s = static_cast<std::size_t>(i);
      const float want = sfcvis::filters::fast_exp_neg(us[s]);
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[s]),
                std::bit_cast<std::uint32_t>(want))
          << "u=" << us[s] << " got " << got[s] << " want " << want;
    }
    lane = 0;
  };
  for (int step = 0; step <= 16000; ++step) {
    us[static_cast<std::size_t>(lane++)] = static_cast<float>(step) * 1e-3f;
    if (lane == N) {
      flush();
    }
  }
  for (float u = 16.0f; u <= 130.0f; u += 0.37f) {
    us[static_cast<std::size_t>(lane++)] = u;
    if (lane == N) {
      flush();
    }
  }
  flush();
}
