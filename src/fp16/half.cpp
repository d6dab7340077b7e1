#include "fp16/half.hpp"

#include <bit>
#include <cmath>
#include <ostream>

#if defined(PD_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace pd {

std::uint16_t float_to_half_bits(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t exp32 = (f >> 23) & 0xffu;
  std::uint32_t mant32 = f & 0x007fffffu;

  if (exp32 == 0xffu) {  // inf or NaN
    if (mant32 == 0) {
      return static_cast<std::uint16_t>(sign | 0x7c00u);
    }
    // Preserve a quiet NaN; keep the top mantissa bits so payload ordering
    // survives where it fits.
    std::uint32_t nan_mant = mant32 >> 13;
    if (nan_mant == 0) nan_mant = 1;
    return static_cast<std::uint16_t>(sign | 0x7c00u | 0x0200u | nan_mant);
  }

  // Unbiased exponent; binary16 bias is 15, binary32 bias is 127.
  const int unbiased = static_cast<int>(exp32) - 127;
  int exp16 = unbiased + 15;

  if (exp16 >= 0x1f) {  // overflow -> infinity
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  if (exp16 <= 0) {
    // Subnormal half (or zero).  The effective mantissa (with implicit bit,
    // if the input is normal) must be shifted right by (1 - exp16) extra
    // positions on top of the usual 13-bit narrowing.
    if (exp16 < -10) {
      // Too small for even the largest subnormal: round to (signed) zero,
      // except values >= 2^-25 exactly at the halfway point round to the
      // smallest subnormal — handled by the shift path below when exp16==-10.
      return static_cast<std::uint16_t>(sign);
    }
    mant32 |= 0x00800000u;  // make the implicit bit explicit
    const int shift = 14 - exp16;  // 13 narrowing bits + (1 - exp16)
    const std::uint32_t mant = mant32 >> shift;
    const std::uint32_t rem = mant32 & ((1u << shift) - 1u);
    const std::uint32_t half_point = 1u << (shift - 1);
    std::uint32_t rounded = mant;
    if (rem > half_point || (rem == half_point && (mant & 1u))) {
      ++rounded;  // may carry into the exponent (to min normal) — that is fine
    }
    return static_cast<std::uint16_t>(sign | rounded);
  }

  // Normal half: narrow the 23-bit mantissa to 10 bits with RNE.
  std::uint32_t mant = mant32 >> 13;
  const std::uint32_t rem = mant32 & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (mant & 1u))) {
    ++mant;
    if (mant == 0x400u) {  // mantissa overflow carries into the exponent
      mant = 0;
      ++exp16;
      if (exp16 >= 0x1f) {
        return static_cast<std::uint16_t>(sign | 0x7c00u);
      }
    }
  }
  return static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(exp16) << 10) | mant);
}


Half::Half(float value) : bits_(float_to_half_bits(value)) {}

Half::Half(double value)
    // Double -> half via float rounds twice.  Binary32 keeps 13 more
    // mantissa bits than binary16, but a double within half a binary32 ulp
    // of a binary16 midpoint still rounds onto the midpoint first and then
    // ties to even, so the result is not always correctly rounded
    // (Half(1 + 2^-11 + 2^-40) is 0x3c00, not 0x3c01).  Every stored matrix
    // half and golden number depends on this, so it stays as it is.
    : bits_(float_to_half_bits(static_cast<float>(value))) {}

Half::Half(int value) : Half(static_cast<double>(value)) {}

namespace {

void convert_to_half_scalar(const double* in, std::size_t n, Half* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Half(in[i]);
  }
}

#if defined(PD_X86_DISPATCH)
/// Eight values per step along Half(double)'s own path.  VCVTPD2PS rounds
/// under MXCSR exactly like the scalar static_cast<float>, and VCVTPS2PH with
/// _MM_FROUND_TO_NEAREST_INT is float_to_half_bits' round-to-nearest-even on
/// every non-NaN binary32 value.  NaN payloads are where the two converters
/// differ (a signalling binary32 NaN with its payload in the low 13 bits
/// becomes 0x7e00 in hardware and 0x7e01 in float_to_half_bits), so a block
/// holding a NaN is converted by the scalar code and keeps its encoding by
/// construction.
__attribute__((target("f16c"))) void convert_to_half_f16c(const double* in,
                                                          std::size_t n,
                                                          Half* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d lo = _mm256_loadu_pd(in + i);
    const __m256d hi = _mm256_loadu_pd(in + i + 4);
    const __m256d nan = _mm256_or_pd(_mm256_cmp_pd(lo, lo, _CMP_UNORD_Q),
                                     _mm256_cmp_pd(hi, hi, _CMP_UNORD_Q));
    if (_mm256_movemask_pd(nan) != 0) {
      convert_to_half_scalar(in + i, 8, out + i);
      continue;
    }
    const __m256 f =
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT));
  }
  // Clear the upper YMM halves before the scalar tail and the return.  GCC 12
  // omits the VZEROUPPER on the path through the out-of-line scalar call, and
  // dirty upper state makes every later legacy-SSE instruction of the thread
  // pay a merge penalty: the scalar Monte Carlo generation that followed ran
  // 2.7x slower in CPU time.
  _mm256_zeroupper();
  convert_to_half_scalar(in + i, n - i, out + i);
}
#endif

}  // namespace

void convert_to_half(const double* in, std::size_t n, Half* out) {
#if defined(PD_X86_DISPATCH)
  if (kHaveF16c) {
    convert_to_half_f16c(in, n, out);
    return;
  }
#endif
  convert_to_half_scalar(in, n, out);
}

bool Half::is_nan() const {
  return ((bits_ & 0x7c00u) == 0x7c00u) && ((bits_ & 0x3ffu) != 0);
}

bool Half::is_inf() const { return (bits_ & 0x7fffu) == 0x7c00u; }

bool Half::is_subnormal() const {
  return ((bits_ & 0x7c00u) == 0) && ((bits_ & 0x3ffu) != 0);
}

bool Half::is_zero() const { return (bits_ & 0x7fffu) == 0; }

std::ostream& operator<<(std::ostream& os, Half h) { return os << h.to_float(); }

double half_ulp(double x) {
  x = std::fabs(x);
  if (x < 6.103515625e-05) {  // below min normal: fixed subnormal spacing
    return 5.960464477539063e-08;  // 2^-24
  }
  const int e = static_cast<int>(std::floor(std::log2(x)));
  return std::ldexp(1.0, e - 10);
}

}  // namespace pd
