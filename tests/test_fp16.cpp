// Tests for the software binary16 implementation: exhaustive round-trips,
// round-to-nearest-even cases, specials, arithmetic, the quantization bound
// the dose matrices rely on, and the bulk double -> half converter.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "fp16/half.hpp"

#if defined(PD_X86_DISPATCH)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pd {
namespace {

TEST(Half, SizeIsTwoBytes) { EXPECT_EQ(sizeof(Half), 2u); }

TEST(Half, ExhaustiveBitRoundTrip) {
  // Every non-NaN binary16 value must survive half -> float -> half exactly.
  int checked = 0;
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const Half h = Half::from_bits(static_cast<std::uint16_t>(bits));
    if (h.is_nan()) {
      continue;
    }
    const Half back(h.to_float());
    EXPECT_EQ(back.bits(), h.bits()) << "bits=" << bits;
    ++checked;
  }
  EXPECT_EQ(checked, 65536 - 2 * 1023);  // 2 * 1023 NaN payloads excluded
}

TEST(Half, ExhaustiveDoubleRoundTrip) {
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const Half h = Half::from_bits(static_cast<std::uint16_t>(bits));
    if (h.is_nan()) {
      continue;
    }
    EXPECT_EQ(Half(h.to_double()).bits(), h.bits());
  }
}

TEST(Half, KnownValues) {
  EXPECT_EQ(Half(1.0f).bits(), 0x3c00);
  EXPECT_EQ(Half(-2.0f).bits(), 0xc000);
  EXPECT_EQ(Half(0.5f).bits(), 0x3800);
  EXPECT_EQ(Half(65504.0f).bits(), 0x7bff);  // max finite
  EXPECT_EQ(Half(0.0f).bits(), 0x0000);
  EXPECT_EQ(Half(-0.0f).bits(), 0x8000);
  EXPECT_FLOAT_EQ(Half::from_bits(0x3555).to_float(), 0.33325195f);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; RNE keeps
  // the even mantissa (1.0).
  EXPECT_EQ(Half(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3c00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: rounds to even
  // mantissa 0x002 (1 + 2^-9).
  EXPECT_EQ(Half(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits(), 0x3c02);
  // Just above halfway (one binary32 ulp past the tie) rounds up.
  EXPECT_EQ(Half(std::nextafter(1.0f + std::ldexp(1.0f, -11), 2.0f)).bits(),
            0x3c01);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(Half(65520.0f).is_inf());   // rounds up past max finite
  EXPECT_TRUE(Half(1e10f).is_inf());
  EXPECT_TRUE(Half(-1e10f).is_inf());
  EXPECT_TRUE(Half(-1e10f).signbit());
  EXPECT_EQ(Half(65519.0f).bits(), 0x7bff);  // just below the rounding cut
}

TEST(Half, SubnormalsRepresented) {
  const float min_sub = std::ldexp(1.0f, -24);
  EXPECT_EQ(Half(min_sub).bits(), 0x0001);
  EXPECT_TRUE(Half(min_sub).is_subnormal());
  // Below half of the smallest subnormal: flush to zero by RNE.
  EXPECT_EQ(Half(std::ldexp(1.0f, -26)).bits(), 0x0000);
  // Subnormal round-trips exactly.
  EXPECT_FLOAT_EQ(Half::from_bits(0x0001).to_float(), min_sub);
  EXPECT_FLOAT_EQ(Half::from_bits(0x03ff).to_float(),
                  1023.0f * std::ldexp(1.0f, -24));
}

TEST(Half, SubnormalRoundsUpToNormal) {
  // Largest subnormal + half a step rounds into the smallest normal.
  const float just_below_normal = std::ldexp(1.0f, -14) * 0.99999f;
  EXPECT_EQ(Half(just_below_normal).bits(), 0x0400);
}

TEST(Half, NanAndInfPropagate) {
  EXPECT_TRUE(Half(std::numeric_limits<float>::quiet_NaN()).is_nan());
  EXPECT_TRUE(Half(std::numeric_limits<float>::infinity()).is_inf());
  EXPECT_TRUE(std::isnan(Half::quiet_nan().to_float()));
  EXPECT_TRUE(std::isinf(Half::infinity().to_float()));
  EXPECT_FALSE(Half::infinity().is_nan());
  EXPECT_FALSE(Half::quiet_nan().is_inf());
}

TEST(Half, ComparisonSemantics) {
  using namespace pd::literals;
  EXPECT_TRUE(1.0_h < 2.0_h);
  EXPECT_TRUE(2.0_h >= 2.0_h);
  EXPECT_TRUE(Half(0.0f) == Half(-0.0f));  // signed zeros compare equal
  EXPECT_FALSE(Half::quiet_nan() == Half::quiet_nan());
  EXPECT_TRUE(Half::quiet_nan() != Half::quiet_nan());
  EXPECT_FALSE(Half::quiet_nan() < 1.0_h);
}

TEST(Half, ArithmeticMatchesFloat) {
  Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    const Half a(rng.uniform(-100.0, 100.0));
    const Half b(rng.uniform(-100.0, 100.0));
    EXPECT_EQ((a + b).bits(), Half(a.to_float() + b.to_float()).bits());
    EXPECT_EQ((a * b).bits(), Half(a.to_float() * b.to_float()).bits());
    EXPECT_EQ((a - b).bits(), Half(a.to_float() - b.to_float()).bits());
  }
}

TEST(Half, CompoundAssignment) {
  Half a(2.0f);
  a += Half(3.0f);
  EXPECT_FLOAT_EQ(a.to_float(), 5.0f);
  a *= Half(2.0f);
  EXPECT_FLOAT_EQ(a.to_float(), 10.0f);
  a -= Half(4.0f);
  EXPECT_FLOAT_EQ(a.to_float(), 6.0f);
  a /= Half(3.0f);
  EXPECT_FLOAT_EQ(a.to_float(), 2.0f);
}

TEST(Half, NegationFlipsSignOnly) {
  EXPECT_EQ((-Half(1.5f)).bits(), Half(-1.5f).bits());
  EXPECT_TRUE((-Half::zero()).signbit());
}

TEST(Half, QuantizationErrorBound) {
  // Rounding any double to half must land within half_ulp/2 — this is the
  // bound the mixed-precision dose calculation inherits.
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.uniform(1e-4, 60000.0);
    const double q = Half(v).to_double();
    EXPECT_LE(std::fabs(q - v), 0.5 * half_ulp(v) * (1.0 + 1e-12)) << v;
  }
}

TEST(Half, UlpValues) {
  EXPECT_DOUBLE_EQ(half_ulp(1.0), std::ldexp(1.0, -10));
  EXPECT_DOUBLE_EQ(half_ulp(2.0), std::ldexp(1.0, -9));
  EXPECT_DOUBLE_EQ(half_ulp(1e-6), std::ldexp(1.0, -24));  // subnormal region
}

TEST(Half, NumericLimits) {
  using L = std::numeric_limits<Half>;
  EXPECT_TRUE(L::is_specialized);
  EXPECT_EQ(L::max().bits(), 0x7bff);
  EXPECT_EQ(L::min().bits(), 0x0400);
  EXPECT_EQ(L::lowest().bits(), 0xfbff);
  EXPECT_FLOAT_EQ(L::epsilon().to_float(), std::ldexp(1.0f, -10));
  EXPECT_EQ(L::digits, 11);
}

TEST(Half, StreamOutput) {
  std::ostringstream os;
  os << Half(1.5f);
  EXPECT_EQ(os.str(), "1.5");
}

TEST(Half, IntConstructor) {
  EXPECT_EQ(Half(3).bits(), Half(3.0f).bits());
  EXPECT_EQ(Half(-7).bits(), Half(-7.0f).bits());
}

TEST(Half, DoubleConversionRoundsTwice) {
  // 1 + 2^-11 + 2^-40 lies above the midpoint between 1.0 and its half
  // successor, so correct rounding gives 0x3c01.  Half(double) rounds to
  // binary32 first, which lands on the midpoint, and then ties to even.
  // Every stored matrix half depends on this behaviour.
  const double above_tie = 1.0 + std::ldexp(1.0, -11) + std::ldexp(1.0, -40);
  EXPECT_EQ(static_cast<double>(static_cast<float>(above_tie)),
            1.0 + std::ldexp(1.0, -11));
  EXPECT_EQ(Half(above_tie).bits(), 0x3c00);
  Half bulk;
  convert_to_half(&above_tie, 1, &bulk);
  EXPECT_EQ(bulk.bits(), 0x3c00);
}

// --- bulk conversion: convert_to_half must equal Half(double) bit for bit --

/// Convert `in` in bulk and compare every element with the scalar
/// Half(double); reports the first few mismatches.
void expect_bulk_matches_scalar(const std::vector<double>& in) {
  std::vector<Half> out(in.size(), Half::from_bits(0x5555));
  convert_to_half(in.data(), in.size(), out.data());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint16_t want = Half(in[i]).bits();
    if (out[i].bits() != want && ++mismatches <= 8) {
      ADD_FAILURE() << "index " << i << " input bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(in[i]) << ": bulk 0x"
                    << out[i].bits() << ", Half(double) 0x" << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << in.size() << " values";
}

TEST(HalfBulk, EveryHalfAndBothNeighbours) {
  std::vector<double> in;
  for (std::uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const double d = Half::from_bits(static_cast<std::uint16_t>(bits)).to_double();
    in.push_back(d);
    if (!std::isnan(d)) {
      in.push_back(std::nextafter(d, -std::numeric_limits<double>::infinity()));
      in.push_back(std::nextafter(d, std::numeric_limits<double>::infinity()));
    }
  }
  expect_bulk_matches_scalar(in);
}

TEST(HalfBulk, MidpointsAndDoubleRoundingNudges) {
  // Midpoints between adjacent finite halves are exact in double and float;
  // a 2^-40 relative nudge either way is exact in double but rounds back
  // onto the midpoint in binary32 — the cases where double rounding decides.
  const double up = 1.0 + std::ldexp(1.0, -40);
  const double down = 1.0 - std::ldexp(1.0, -40);
  std::vector<double> in;
  for (std::uint32_t bits = 0; bits < 0x7bff; ++bits) {
    const double lo = Half::from_bits(static_cast<std::uint16_t>(bits)).to_double();
    const double hi =
        Half::from_bits(static_cast<std::uint16_t>(bits + 1)).to_double();
    const double mid = 0.5 * (lo + hi);
    for (const double v : {mid, mid * up, mid * down}) {
      in.push_back(v);
      in.push_back(-v);
    }
  }
  expect_bulk_matches_scalar(in);
}

TEST(HalfBulk, SpecialsOverflowEdgeAndFloatSubnormals) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> in = {0.0, -0.0, inf, -inf, 65504.0, -65504.0,
                            65520.0, -65520.0,
                            std::nextafter(65520.0, 0.0),
                            std::nextafter(65520.0, inf),
                            std::nextafter(-65520.0, 0.0),
                            std::nextafter(-65520.0, -inf),
                            1e300, -1e300,
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min()};
  // Float subnormals (below 2^-126) and their neighbourhood, both signs.
  for (int e = -150; e <= -120; ++e) {
    for (const double m : {1.0, 1.5, 1.999}) {
      in.push_back(std::ldexp(m, e));
      in.push_back(-std::ldexp(m, e));
    }
  }
  in.push_back(static_cast<double>(std::numeric_limits<float>::denorm_min()));
  in.push_back(static_cast<double>(std::numeric_limits<float>::min()));
  expect_bulk_matches_scalar(in);
  std::vector<Half> out(in.size());
  convert_to_half(in.data(), in.size(), out.data());
  EXPECT_EQ(out[0].bits(), 0x0000);
  EXPECT_EQ(out[1].bits(), 0x8000);
  EXPECT_EQ(out[4].bits(), 0x7bff);
  EXPECT_TRUE(out[6].is_inf());  // the tie above 65504 rounds to even: inf
  // One double ulp below that tie rounds to 65504 when correctly rounded,
  // but binary32 rounds it onto the tie first: infinity again.
  EXPECT_TRUE(out[8].is_inf());
  EXPECT_TRUE(out[9].is_inf());
}

TEST(HalfBulk, NanAtEveryBlockPosition) {
  // Quiet and signalling NaNs of both signs, including payloads confined to
  // the low 29 bits (which binary32 cannot hold), placed at every lane of an
  // 8-wide block among finite neighbours that must still convert correctly.
  const std::uint64_t nans[] = {
      0x7ff8000000000000ull, 0xfff8000000000000ull, 0x7ff8000000000001ull,
      0x7ff800001fffffffull, 0x7ff0000000000001ull, 0xfff0000000000001ull,
      0x7ff000001fffffffull, 0x7ff4000000000000ull, 0x7fffffffffffffffull,
      0x7ff0000020000000ull};
  for (const std::uint64_t nan_bits : nans) {
    const double nan = std::bit_cast<double>(nan_bits);
    for (std::size_t lane = 0; lane < 8; ++lane) {
      std::vector<double> in(19);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = 0.37 * static_cast<double>(i) - 2.0;
      }
      in[lane] = nan;      // first block
      in[8 + lane] = nan;  // second block
      in[16 + lane % 3] = nan;  // scalar tail
      expect_bulk_matches_scalar(in);
      std::vector<Half> out(in.size());
      convert_to_half(in.data(), in.size(), out.data());
      EXPECT_TRUE(out[lane].is_nan());
      EXPECT_EQ(out[lane].signbit(), (nan_bits >> 63) != 0);
    }
  }
}

#if defined(PD_X86_DISPATCH)
/// XINUSE bit 2: set while the upper halves of the YMM registers are dirty.
__attribute__((target("xsave"))) bool upper_ymm_dirty() {
  return (_xgetbv(1) & 0x4u) != 0;
}
__attribute__((target("avx"))) void clear_upper_ymm() { _mm256_zeroupper(); }
#endif

TEST(HalfBulk, ReturnsWithCleanUpperYmmState) {
  // Dirty upper YMM state left behind makes all later legacy-SSE code of the
  // calling thread slower, so every exit path must clear it.
#if defined(PD_X86_DISPATCH)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  __cpuid_count(0xd, 1, eax, ebx, ecx, edx);
  if (!kHaveF16c || (eax & 0x4u) == 0) {
    GTEST_SKIP() << "needs F16C and XGETBV with ECX=1";
  }
  clear_upper_ymm();
  if (upper_ymm_dirty()) {
    GTEST_SKIP() << "this CPU does not report a clean upper YMM state";
  }
  const std::vector<double> in(17, 1.25);
  std::vector<Half> out(in.size());
  for (const std::size_t n : {3u, 8u, 9u, 16u, 17u}) {
    clear_upper_ymm();
    convert_to_half(in.data(), n, out.data());
    EXPECT_FALSE(upper_ymm_dirty()) << "n = " << n;
  }
#else
  GTEST_SKIP() << "no F16C dispatch on this target";
#endif
}

TEST(HalfBulk, EveryLengthAndMisalignedStart) {
  Rng rng(2024);
  std::vector<double> src(40);
  for (double& v : src) {
    v = std::ldexp(rng.uniform(-70000.0, 70000.0),
                   -static_cast<int>(rng.uniform_index(30)));
  }
  for (std::size_t start = 0; start < 4; ++start) {
    for (std::size_t n = 0; n <= 17; ++n) {
      std::vector<Half> out(24, Half::from_bits(0x5555));
      convert_to_half(src.data() + start, n, out.data() + start);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const bool inside = i >= start && i < start + n;
        const std::uint16_t want = inside ? Half(src[i]).bits() : 0x5555;
        EXPECT_EQ(out[i].bits(), want)
            << "start " << start << " n " << n << " index " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pd
