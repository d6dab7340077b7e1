#pragma once
// Software IEEE-754 binary16 ("half") implementation.
//
// The paper stores dose-deposition-matrix entries in IEEE-754 half precision
// (matching the 16 bits RayStation's CPU code uses) while keeping the SpMV
// input/output vectors in double.  CUDA provides `__half` in hardware; on this
// substrate we implement binary16 in software with bit-exact conversions:
//  * half -> float/double conversion is exact (binary16 ⊂ binary32 ⊂ binary64),
//  * float -> half rounds to nearest, ties to even,
//  * double -> half is float -> half applied to static_cast<float>(x), so it
//    rounds twice and is not always correctly rounded: a double just above a
//    half midpoint can round onto the midpoint in binary32 and then tie to
//    even (Half(1 + 2^-11 + 2^-40) is 0x3c00; correct rounding gives 0x3c01).
//    Every stored matrix half depends on this behaviour, so it is kept, and
//    the bulk converter below reproduces it,
//  * subnormals, ±inf and NaN are fully supported.
// Arithmetic operators convert to float, compute, and round back — the same
// semantics as CUDA's promoted-half arithmetic.

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>

// The one gate for runtime x86 ISA dispatch: code built with
// __attribute__((target(...))) and chosen by the CPU feature flags below.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PD_X86_DISPATCH 1
#endif

namespace pd {

#if defined(PD_X86_DISPATCH)
// CPU feature flags, probed once per process and shared by every dispatch
// site: the half converters here and the host kernels in src/kernels/.
/// F16C half<->float converters (VCVTPH2PS, VCVTPS2PH): convert_to_half
/// below and the native kernels' widening on load.
inline const bool kHaveF16c = __builtin_cpu_supports("f16c") != 0;
/// AVX2: native batched/delta kernels, rsformat decode, SELL-C-σ gathers.
inline const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;
/// AVX-512F: the 8-lane SELL-C-σ gather.
inline const bool kHaveAvx512f = __builtin_cpu_supports("avx512f") != 0;
#endif

class Half {
 public:
  constexpr Half() = default;

  /// Construct from raw binary16 bits.
  static constexpr Half from_bits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  explicit Half(float value);
  explicit Half(double value);
  explicit Half(int value);

  constexpr std::uint16_t bits() const { return bits_; }

  /// Exact widening conversions.
  float to_float() const;
  double to_double() const;
  explicit operator float() const { return to_float(); }
  explicit operator double() const { return to_double(); }

  bool is_nan() const;
  bool is_inf() const;
  bool is_subnormal() const;
  bool is_zero() const;  ///< true for both +0 and -0.
  bool signbit() const { return (bits_ & 0x8000u) != 0; }

  Half operator-() const { return from_bits(static_cast<std::uint16_t>(bits_ ^ 0x8000u)); }

  friend Half operator+(Half a, Half b) { return Half(a.to_float() + b.to_float()); }
  friend Half operator-(Half a, Half b) { return Half(a.to_float() - b.to_float()); }
  friend Half operator*(Half a, Half b) { return Half(a.to_float() * b.to_float()); }
  friend Half operator/(Half a, Half b) { return Half(a.to_float() / b.to_float()); }

  Half& operator+=(Half o) { return *this = *this + o; }
  Half& operator-=(Half o) { return *this = *this - o; }
  Half& operator*=(Half o) { return *this = *this * o; }
  Half& operator/=(Half o) { return *this = *this / o; }

  /// IEEE comparison semantics (NaN compares unordered/false).
  friend bool operator==(Half a, Half b) {
    if (a.is_nan() || b.is_nan()) return false;
    if (a.is_zero() && b.is_zero()) return true;  // +0 == -0
    return a.bits_ == b.bits_;
  }
  friend bool operator!=(Half a, Half b) { return !(a == b); }
  friend bool operator<(Half a, Half b) { return a.to_float() < b.to_float(); }
  friend bool operator<=(Half a, Half b) { return a.to_float() <= b.to_float(); }
  friend bool operator>(Half a, Half b) { return a.to_float() > b.to_float(); }
  friend bool operator>=(Half a, Half b) { return a.to_float() >= b.to_float(); }

  static constexpr Half zero() { return from_bits(0x0000); }
  static constexpr Half one() { return from_bits(0x3c00); }
  static constexpr Half infinity() { return from_bits(0x7c00); }
  static constexpr Half quiet_nan() { return from_bits(0x7e00); }
  static constexpr Half max() { return from_bits(0x7bff); }       ///< 65504
  static constexpr Half min_normal() { return from_bits(0x0400); } ///< 2^-14
  static constexpr Half denorm_min() { return from_bits(0x0001); } ///< 2^-24

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(Half) == 2, "Half must be 2 bytes — its size is the point");

/// Round-to-nearest-even conversion of a binary32 value to binary16 bits.
std::uint16_t float_to_half_bits(float value);

/// Bulk Half(double): out[i] = Half(in[i]) bit for bit, for i < n — the
/// double rounding included.  With F16C it converts eight values at a time
/// (VCVTPD2PS, then VCVTPS2PH with round-to-nearest-even); a block holding a
/// NaN, the tail, and CPUs without F16C take the scalar path.  It never uses
/// a direct double -> half instruction, which would round once and change
/// the stored bits.
void convert_to_half(const double* in, std::size_t n, Half* out);

/// Exact conversion of binary16 bits to binary32.  Inline: this sits on the
/// per-element hot path of every half-precision SpMV (both the simulated
/// kernels and the native backend convert each matrix entry on load), and an
/// out-of-line call per non-zero dominates the native backend's runtime.
inline float half_bits_to_float(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exp16 = (bits >> 10) & 0x1fu;
  std::uint32_t mant = bits & 0x3ffu;

  std::uint32_t f;
  if (exp16 == 0) {
    if (mant == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal half: renormalize into a binary32 normal.
      int e = -1;
      do {
        ++e;
        mant <<= 1;
      } while ((mant & 0x400u) == 0);
      mant &= 0x3ffu;
      const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
      f = sign | (exp32 << 23) | (mant << 13);
    }
  } else if (exp16 == 0x1f) {
    f = sign | 0x7f800000u | (mant << 13);  // inf / NaN (payload widened)
  } else {
    const std::uint32_t exp32 = exp16 + (127 - 15);
    f = sign | (exp32 << 23) | (mant << 13);
  }
  return std::bit_cast<float>(f);
}

inline float Half::to_float() const { return half_bits_to_float(bits_); }

inline double Half::to_double() const {
  return static_cast<double>(to_float());
}

std::ostream& operator<<(std::ostream& os, Half h);

/// Unit in the last place of a half value near |x| — the quantization step of
/// the dose-matrix entries, used by tests to bound mixed-precision error.
double half_ulp(double x);

namespace literals {
inline Half operator""_h(long double v) { return Half(static_cast<double>(v)); }
}  // namespace literals

}  // namespace pd

template <>
struct std::numeric_limits<pd::Half> {
  static constexpr bool is_specialized = true;
  static constexpr bool is_signed = true;
  static constexpr bool is_integer = false;
  static constexpr bool is_exact = false;
  static constexpr bool has_infinity = true;
  static constexpr bool has_quiet_NaN = true;
  static constexpr int digits = 11;       // implicit bit + 10 mantissa bits
  static constexpr int max_exponent = 16; // 2^15 < 65504 < 2^16
  static constexpr int min_exponent = -13;
  static pd::Half min() { return pd::Half::min_normal(); }
  static pd::Half max() { return pd::Half::max(); }
  static pd::Half lowest() { return -pd::Half::max(); }
  static pd::Half epsilon() { return pd::Half::from_bits(0x1400); }  // 2^-10
  static pd::Half infinity() { return pd::Half::infinity(); }
  static pd::Half quiet_NaN() { return pd::Half::quiet_nan(); }
  static pd::Half denorm_min() { return pd::Half::denorm_min(); }
};
