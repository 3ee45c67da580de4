// One native-width SIMD vector type for the explicit bilateral tap loop.
//
// The bilateral filter's fast_exp tap loop over its sliding-window ring
// scratch (filters/bilateral.hpp, detail::simd_tap_planes) runs on these
// explicit lanes. The instruction set is selected at configure time from the
// compiler's target macros and reported at runtime through active_isa() —
// the same "reported fallback" idiom as perfmon (perf counters) and alloc
// (THP): every build works, and tells you which path it took.
//
//   AVX-512F  -> 16 lanes
//   AVX2+FMA  ->  8 lanes
//   NEON(A64) ->  4 lanes
//   otherwise ->  4 scalar lane loops (e.g. the x86-64 baseline that
//                 -DSFCVIS_NATIVE_ARCH=OFF compiles for)
//
// Each build defines one width, kNativeLanes, and three types at it:
// vfloat<N> (f32 lanes), vint<N> (i32 lanes: the truncation and the
// exponent-field shift fast_exp_neg needs) and vmask<N> (per-lane booleans
// from the lt comparison, consumed by select). The ops are exactly the ones
// the tap loop calls.
//
// Determinism contract (what the differential fuzz relies on):
//  * Arithmetic ops use the compiler's built-in vector operators, NOT
//    explicit FMA intrinsics: GCC/Clang apply the same -ffp-contract
//    decisions to vector-extension expressions as to scalar ones, so
//    `a + b * c` contracts (or not) exactly like the scalar kernels it
//    mirrors — per-lane results are bit-identical to scalar code of the
//    same expression shape, on every ISA.
//  * reduce_add sums lanes sequentially 0..N-1.
//  * fast_exp_neg reproduces filters::fast_exp_neg lane-exactly (same
//    constants, same expression shapes; pinned by tests/test_simd.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__AVX512F__)
#define SFCVIS_SIMD_ISA_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define SFCVIS_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SFCVIS_SIMD_ISA_NEON 1
#include <arm_neon.h>
#endif

namespace sfcvis::simd {

/// Lane count of this build's vector types — the width the tap loop
/// instantiates.
#if defined(SFCVIS_SIMD_ISA_AVX512)
inline constexpr int kNativeLanes = 16;
#elif defined(SFCVIS_SIMD_ISA_AVX2)
inline constexpr int kNativeLanes = 8;
#else
inline constexpr int kNativeLanes = 4;
#endif

/// Which backend the configure-time selection picked (runtime-reported,
/// like perfmon's counter source / alloc's THP decision).
[[nodiscard]] inline const char* active_isa() noexcept {
#if defined(SFCVIS_SIMD_ISA_AVX512)
  return "avx512";
#elif defined(SFCVIS_SIMD_ISA_AVX2)
  return "avx2";
#elif defined(SFCVIS_SIMD_ISA_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

template <int N>
struct vfloat;
template <int N>
struct vint;
template <int N>
struct vmask;

#if defined(SFCVIS_SIMD_ISA_AVX512)

template <>
struct vmask<16> {
  __mmask16 raw;
};

template <>
struct vint<16> {
  __m512i raw;
  [[nodiscard]] static vint broadcast(std::int32_t v) noexcept {
    return {_mm512_set1_epi32(v)};
  }
  friend vint operator+(vint a, vint b) noexcept { return {_mm512_add_epi32(a.raw, b.raw)}; }
  friend vint operator<<(vint a, int count) noexcept {
    return {_mm512_maskz_sll_epi32(static_cast<__mmask16>(0xFFFF), a.raw,
                                   _mm_cvtsi32_si128(count))};
  }
};

template <>
struct vfloat<16> {
  __m512 raw;
  [[nodiscard]] static vfloat zero() noexcept { return {_mm512_setzero_ps()}; }
  [[nodiscard]] static vfloat broadcast(float v) noexcept { return {_mm512_set1_ps(v)}; }
  [[nodiscard]] static vfloat loadu(const float* p) noexcept { return {_mm512_loadu_ps(p)}; }
  /// Lanes [0, n) from p, remaining lanes zero (n in [0, 16]).
  [[nodiscard]] static vfloat loadu_masked(const float* p, int n) noexcept {
    const auto m = static_cast<__mmask16>((1u << n) - 1u);
    return {_mm512_maskz_loadu_ps(m, p)};
  }
  [[nodiscard]] std::array<float, 16> to_array() const noexcept {
    alignas(64) std::array<float, 16> out;
    _mm512_store_ps(out.data(), raw);
    return out;
  }
  // Built-in vector operators: contraction-consistent with scalar code.
  friend vfloat operator+(vfloat a, vfloat b) noexcept { return {a.raw + b.raw}; }
  friend vfloat operator-(vfloat a, vfloat b) noexcept { return {a.raw - b.raw}; }
  friend vfloat operator*(vfloat a, vfloat b) noexcept { return {a.raw * b.raw}; }
  friend vfloat operator-(vfloat a) noexcept {
    return {_mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(a.raw), _mm512_set1_epi32(INT32_C(0x80000000))))};
  }
  friend vmask<16> lt(vfloat a, vfloat b) noexcept {
    return {_mm512_cmp_ps_mask(a.raw, b.raw, _CMP_LT_OQ)};
  }
  /// m ? a : b, per lane.
  friend vfloat select(vmask<16> m, vfloat a, vfloat b) noexcept {
    return {_mm512_mask_blend_ps(m.raw, b.raw, a.raw)};
  }
  friend vint<16> trunc_to_int(vfloat a) noexcept {
    return {_mm512_maskz_cvttps_epi32(static_cast<__mmask16>(0xFFFF), a.raw)};
  }
};

inline vfloat<16> float_bits(vint<16> v) noexcept { return {_mm512_castsi512_ps(v.raw)}; }

#elif defined(SFCVIS_SIMD_ISA_AVX2)

namespace detail {
/// -1/0 staircase for building tail masks: &kTailMask32[8 - n] reads n
/// all-ones lanes followed by zeros.
alignas(64) inline constexpr std::int32_t kTailMask32[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
}  // namespace detail

template <>
struct vmask<8> {
  __m256 raw;
};

template <>
struct vint<8> {
  __m256i raw;
  [[nodiscard]] static vint broadcast(std::int32_t v) noexcept {
    return {_mm256_set1_epi32(v)};
  }
  friend vint operator+(vint a, vint b) noexcept { return {_mm256_add_epi32(a.raw, b.raw)}; }
  friend vint operator<<(vint a, int count) noexcept {
    return {_mm256_sll_epi32(a.raw, _mm_cvtsi32_si128(count))};
  }
};

template <>
struct vfloat<8> {
  __m256 raw;
  [[nodiscard]] static vfloat zero() noexcept { return {_mm256_setzero_ps()}; }
  [[nodiscard]] static vfloat broadcast(float v) noexcept { return {_mm256_set1_ps(v)}; }
  [[nodiscard]] static vfloat loadu(const float* p) noexcept { return {_mm256_loadu_ps(p)}; }
  /// Lanes [0, n) from p, remaining lanes zero (n in [0, 8]).
  [[nodiscard]] static vfloat loadu_masked(const float* p, int n) noexcept {
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(detail::kTailMask32 + (8 - n)));
    return {_mm256_maskload_ps(p, m)};
  }
  [[nodiscard]] std::array<float, 8> to_array() const noexcept {
    alignas(32) std::array<float, 8> out;
    _mm256_store_ps(out.data(), raw);
    return out;
  }
  // Built-in vector operators: contraction-consistent with scalar code.
  friend vfloat operator+(vfloat a, vfloat b) noexcept { return {a.raw + b.raw}; }
  friend vfloat operator-(vfloat a, vfloat b) noexcept { return {a.raw - b.raw}; }
  friend vfloat operator*(vfloat a, vfloat b) noexcept { return {a.raw * b.raw}; }
  friend vfloat operator-(vfloat a) noexcept {
    return {_mm256_xor_ps(a.raw, _mm256_set1_ps(-0.0f))};
  }
  friend vmask<8> lt(vfloat a, vfloat b) noexcept {
    return {_mm256_cmp_ps(a.raw, b.raw, _CMP_LT_OQ)};
  }
  /// m ? a : b, per lane.
  friend vfloat select(vmask<8> m, vfloat a, vfloat b) noexcept {
    return {_mm256_blendv_ps(b.raw, a.raw, m.raw)};
  }
  friend vint<8> trunc_to_int(vfloat a) noexcept { return {_mm256_cvttps_epi32(a.raw)}; }
};

inline vfloat<8> float_bits(vint<8> v) noexcept { return {_mm256_castsi256_ps(v.raw)}; }

#elif defined(SFCVIS_SIMD_ISA_NEON)

template <>
struct vmask<4> {
  uint32x4_t raw;
};

template <>
struct vint<4> {
  int32x4_t raw;
  [[nodiscard]] static vint broadcast(std::int32_t v) noexcept { return {vdupq_n_s32(v)}; }
  friend vint operator+(vint a, vint b) noexcept { return {vaddq_s32(a.raw, b.raw)}; }
  friend vint operator<<(vint a, int count) noexcept {
    return {vshlq_s32(a.raw, vdupq_n_s32(count))};
  }
};

template <>
struct vfloat<4> {
  float32x4_t raw;
  [[nodiscard]] static vfloat zero() noexcept { return {vdupq_n_f32(0.0f)}; }
  [[nodiscard]] static vfloat broadcast(float v) noexcept { return {vdupq_n_f32(v)}; }
  [[nodiscard]] static vfloat loadu(const float* p) noexcept { return {vld1q_f32(p)}; }
  /// Lanes [0, n) from p, remaining lanes zero (n in [0, 4]).
  [[nodiscard]] static vfloat loadu_masked(const float* p, int n) noexcept {
    std::array<float, 4> tmp{};
    for (int i = 0; i < n; ++i) {
      tmp[static_cast<std::size_t>(i)] = p[i];
    }
    return loadu(tmp.data());
  }
  [[nodiscard]] std::array<float, 4> to_array() const noexcept {
    std::array<float, 4> out;
    vst1q_f32(out.data(), raw);
    return out;
  }
  // Built-in vector operators: contraction-consistent with scalar code.
  friend vfloat operator+(vfloat a, vfloat b) noexcept { return {a.raw + b.raw}; }
  friend vfloat operator-(vfloat a, vfloat b) noexcept { return {a.raw - b.raw}; }
  friend vfloat operator*(vfloat a, vfloat b) noexcept { return {a.raw * b.raw}; }
  friend vfloat operator-(vfloat a) noexcept { return {vnegq_f32(a.raw)}; }
  friend vmask<4> lt(vfloat a, vfloat b) noexcept { return {vcltq_f32(a.raw, b.raw)}; }
  /// m ? a : b, per lane.
  friend vfloat select(vmask<4> m, vfloat a, vfloat b) noexcept {
    return {vbslq_f32(m.raw, a.raw, b.raw)};
  }
  friend vint<4> trunc_to_int(vfloat a) noexcept { return {vcvtq_s32_f32(a.raw)}; }
};

inline vfloat<4> float_bits(vint<4> v) noexcept { return {vreinterpretq_f32_s32(v.raw)}; }

#else  // scalar lane loops

template <>
struct vmask<4> {
  std::array<std::uint32_t, 4> raw;  ///< 0 or ~0 per lane
};

template <>
struct vint<4> {
  std::array<std::int32_t, 4> raw;
  [[nodiscard]] static vint broadcast(std::int32_t v) noexcept {
    return {{v, v, v, v}};
  }
  friend vint operator+(vint a, vint b) noexcept {
    vint r{};
    for (std::size_t i = 0; i < 4; ++i) {
      r.raw[i] = a.raw[i] + b.raw[i];
    }
    return r;
  }
  friend vint operator<<(vint a, int count) noexcept {
    vint r{};
    for (std::size_t i = 0; i < 4; ++i) {
      r.raw[i] = a.raw[i] << count;
    }
    return r;
  }
};

#define SFCVIS_SIMD_LANEWISE(result, expr)            \
  vfloat result{};                                    \
  for (std::size_t q_ = 0; q_ < 4; ++q_) {            \
    result.raw[q_] = (expr);                          \
  }                                                   \
  return result

template <>
struct vfloat<4> {
  std::array<float, 4> raw;
  [[nodiscard]] static vfloat zero() noexcept { return {{0.0f, 0.0f, 0.0f, 0.0f}}; }
  [[nodiscard]] static vfloat broadcast(float v) noexcept { return {{v, v, v, v}}; }
  [[nodiscard]] static vfloat loadu(const float* p) noexcept {
    return {{p[0], p[1], p[2], p[3]}};
  }
  /// Lanes [0, n) from p, remaining lanes zero (n in [0, 4]).
  [[nodiscard]] static vfloat loadu_masked(const float* p, int n) noexcept {
    vfloat r = zero();
    for (int i = 0; i < n; ++i) {
      r.raw[static_cast<std::size_t>(i)] = p[i];
    }
    return r;
  }
  [[nodiscard]] std::array<float, 4> to_array() const noexcept { return raw; }
  friend vfloat operator+(vfloat a, vfloat b) noexcept {
    SFCVIS_SIMD_LANEWISE(r, a.raw[q_] + b.raw[q_]);
  }
  friend vfloat operator-(vfloat a, vfloat b) noexcept {
    SFCVIS_SIMD_LANEWISE(r, a.raw[q_] - b.raw[q_]);
  }
  friend vfloat operator*(vfloat a, vfloat b) noexcept {
    SFCVIS_SIMD_LANEWISE(r, a.raw[q_] * b.raw[q_]);
  }
  friend vfloat operator-(vfloat a) noexcept { SFCVIS_SIMD_LANEWISE(r, -a.raw[q_]); }
  friend vmask<4> lt(vfloat a, vfloat b) noexcept {
    vmask<4> m{};
    for (std::size_t i = 0; i < 4; ++i) {
      m.raw[i] = a.raw[i] < b.raw[i] ? ~0u : 0u;
    }
    return m;
  }
  /// m ? a : b, per lane.
  friend vfloat select(vmask<4> m, vfloat a, vfloat b) noexcept {
    SFCVIS_SIMD_LANEWISE(r, m.raw[q_] != 0 ? a.raw[q_] : b.raw[q_]);
  }
  friend vint<4> trunc_to_int(vfloat a) noexcept {
    vint<4> r{};
    for (std::size_t i = 0; i < 4; ++i) {
      r.raw[i] = static_cast<std::int32_t>(a.raw[i]);
    }
    return r;
  }
};

#undef SFCVIS_SIMD_LANEWISE

inline vfloat<4> float_bits(vint<4> v) noexcept {
  vfloat<4> r{};
  std::memcpy(r.raw.data(), v.raw.data(), sizeof(r.raw));
  return r;
}

#endif  // backends

/// Sequential lane sum (lane 0 first — one documented order on every ISA).
template <int N>
[[nodiscard]] inline float reduce_add(const vfloat<N>& v) noexcept {
  const auto a = v.to_array();
  float sum = 0.0f;
  for (std::size_t i = 0; i < static_cast<std::size_t>(N); ++i) {
    sum += a[i];
  }
  return sum;
}

/// exp(-u) for u >= 0 — the vector twin of filters::fast_exp_neg, same
/// constants and expression shapes, so every lane is bit-identical to the
/// scalar call (tests/test_simd.cpp pins this over u in [0, 130]).
/// Do not pass negative or NaN u.
template <int N>
[[nodiscard]] inline vfloat<N> fast_exp_neg(vfloat<N> u) noexcept {
  using VF = vfloat<N>;
  const VF k_log2e = VF::broadcast(1.44269504088896341f);
  const VF k_ln2 = VF::broadcast(0.69314718055994531f);
  const VF k_magic = VF::broadcast(12582912.0f);  // 1.5 * 2^23: round-to-nearest
  VF t = (-u) * k_log2e;
  const VF k_knee = VF::broadcast(-125.0f);
  t = select(lt(t, k_knee), k_knee, t);
  const VF n = (t + k_magic) - k_magic;
  const VF g = (t - n) * k_ln2;
  VF p = VF::broadcast(1.0f / 720.0f);
  p = p * g + VF::broadcast(1.0f / 120.0f);
  p = p * g + VF::broadcast(1.0f / 24.0f);
  p = p * g + VF::broadcast(1.0f / 6.0f);
  p = p * g + VF::broadcast(0.5f);
  p = p * g + VF::broadcast(1.0f);
  p = p * g + VF::broadcast(1.0f);
  const vint<N> ni = trunc_to_int(n);
  const VF scale = float_bits((ni + vint<N>::broadcast(127)) << 23);
  return p * scale;
}

}  // namespace sfcvis::simd
