#pragma once
// Native SELL-C-σ SpMV — the fast tier's second kernel family
// (docs/fast_tier.md), putting the Ablation B container (sparse/sellcs.hpp,
// Kreutzer et al.) behind a real host kernel for the first time.
//
// The chunk layout is lane-major: element j of lane l lives at
// chunk_ptr[c] + j*C + l, so a 4-lane (AVX2) or 8-lane (AVX-512) group reads
// contiguous values/columns per step j and gathers x.  Padded slots carry
// column 0 and value 0, so they contribute +0.0 and need no masking; only
// the final scatter through row_perm guards lanes past num_rows.
//
// Determinism: each output row is one lane — a private accumulator added in
// ascending j (== ascending column) order, identical in the scalar, AVX2 and
// AVX-512 variants (SIMD vectorizes *across* lanes, never within a row) and
// under any chunk partition.  Unlike the fused rsformat kernel, this family
// is therefore bitwise invariant across thread counts and SIMD variants.
// It still sits in the fast tier, not the bitwise tier: values are stored as
// float (2^-24 relative narrowing error against the engine's stored matrix)
// and the sequential per-row order differs from the warp kernels' strided
// tree reduction, so it is verified with the derived tolerance bound.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fp16/half.hpp"  // PD_X86_DISPATCH and the CPU feature flags
#include "kernels/native_backend.hpp"
#include "kernels/spmv_common.hpp"
#include "sparse/partition.hpp"
#include "sparse/sellcs.hpp"

#if defined(PD_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace pd::kernels {

/// One chunk, scalar: j-outer / lane-inner keeps the slot reads contiguous;
/// out[l] receives lane l's full dot product (C doubles, caller-provided).
template <typename V, typename I>
inline void sellcs_chunk_scalar(const V* values, const I* col_idx,
                                std::uint64_t base, std::uint32_t width,
                                std::uint32_t chunk_height, const double* x,
                                double* out) {
  for (std::uint32_t l = 0; l < chunk_height; ++l) {
    out[l] = 0.0;
  }
  for (std::uint32_t j = 0; j < width; ++j) {
    const std::uint64_t row_base = base + std::uint64_t{j} * chunk_height;
    for (std::uint32_t l = 0; l < chunk_height; ++l) {
      const std::uint64_t slot = row_base + l;
      out[l] += convert_value<double>(values[slot]) *
                x[static_cast<std::uint64_t>(col_idx[slot])];
    }
  }
}

#if defined(PD_X86_DISPATCH)

/// AVX2: lane groups of 4; per step j a contiguous 4-float value load, a
/// contiguous 4-index load, and a gathered 4-double x read.  mul then add —
/// no FMA, same rounding as the scalar kernel.
__attribute__((target("avx2"))) inline void sellcs_chunk_avx2(
    const float* values, const std::uint32_t* col_idx, std::uint64_t base,
    std::uint32_t width, std::uint32_t chunk_height, const double* x,
    double* out) {
  for (std::uint32_t l = 0; l < chunk_height; l += 4) {
    __m256d acc = _mm256_setzero_pd();
    const float* vp = values + base + l;
    const std::uint32_t* cp = col_idx + base + l;
    for (std::uint32_t j = 0; j < width; ++j) {
      const __m128i ci =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cp));
      const __m256d xv = _mm256_i32gather_pd(x, ci, 8);
      const __m256d vv = _mm256_cvtps_pd(_mm_loadu_ps(vp));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, xv));
      vp += chunk_height;
      cp += chunk_height;
    }
    _mm256_storeu_pd(out + l, acc);
  }
}

/// AVX-512: same shape with 8-lane groups.
__attribute__((target("avx512f"))) inline void sellcs_chunk_avx512(
    const float* values, const std::uint32_t* col_idx, std::uint64_t base,
    std::uint32_t width, std::uint32_t chunk_height, const double* x,
    double* out) {
  for (std::uint32_t l = 0; l < chunk_height; l += 8) {
    __m512d acc = _mm512_setzero_pd();
    const float* vp = values + base + l;
    const std::uint32_t* cp = col_idx + base + l;
    for (std::uint32_t j = 0; j < width; ++j) {
      const __m256i ci =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cp));
      const __m512d xv = _mm512_i32gather_pd(ci, x, 8);
      const __m512d vv = _mm512_cvtps_pd(_mm256_loadu_ps(vp));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(vv, xv));
      vp += chunk_height;
      cp += chunk_height;
    }
    _mm512_storeu_pd(out + l, acc);
  }
}

#endif  // PD_X86_DISPATCH

/// SIMD variant the float/u32 kernel will use for chunk height C on this
/// host (bench / CLI reporting; dispatch in the kernel matches this).
inline const char* sellcs_spmv_variant_name(std::uint32_t chunk_height) {
#if defined(PD_X86_DISPATCH)
  if (kHaveAvx512f && chunk_height % 8 == 0) {
    return "avx512";
  }
  if (kHaveAvx2 && chunk_height % 4 == 0) {
    return "avx2";
  }
#else
  (void)chunk_height;
#endif
  return "scalar";
}

/// Matrix bytes one product streams (all chunk arrays are read once).
template <typename V, typename I>
std::uint64_t sellcs_streamed_bytes(const sparse::SellCsMatrix<V, I>& m) {
  return m.bytes();
}

/// y = A·x over the SELL-C-σ container, threaded over a slot-balanced chunk
/// partition (chunks own disjoint output rows, so no scratch/merge is
/// needed).  `allow_simd` forces the scalar variant for differential tests.
template <typename V, typename I>
void sellcs_spmv(const sparse::SellCsMatrix<V, I>& m, std::span<const double> x,
                 std::span<double> y, NativeExecutor& exec,
                 bool allow_simd = true) {
  PD_CHECK_MSG(x.size() == m.num_cols, "sellcs_spmv: x size mismatch");
  PD_CHECK_MSG(y.size() == m.num_rows, "sellcs_spmv: y size mismatch");
  if (m.num_rows == 0) {
    return;
  }
  const std::uint64_t chunks = m.num_chunks();
  const std::uint32_t C = m.chunk_height;
  const V* values = m.values.data();
  const I* col_idx = m.col_idx.data();
  const std::uint32_t* row_perm = m.row_perm.data();
  const double* xp = x.data();
  double* yp = y.data();

#if defined(PD_X86_DISPATCH)
  constexpr bool kSimdTypes =
      std::is_same_v<V, float> && std::is_same_v<I, std::uint32_t>;
  const bool use_avx512 =
      allow_simd && kSimdTypes && kHaveAvx512f && C % 8 == 0;
  const bool use_avx2 =
      allow_simd && kSimdTypes && kHaveAvx2 && C % 4 == 0;
#else
  (void)allow_simd;
#endif

  std::vector<std::uint64_t> costs(chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    costs[c] = m.chunk_ptr[c + 1] - m.chunk_ptr[c];
  }
  const sparse::RowPartition part =
      sparse::balanced_cost_partition(costs, exec.parts_for(chunks));
  exec.run(part.parts(), [&](std::size_t p) {
    std::vector<double> lane_out(C);
    for (std::uint64_t c = part.boundaries[p]; c < part.boundaries[p + 1];
         ++c) {
      const std::uint64_t base = m.chunk_ptr[c];
      const std::uint32_t width = m.chunk_width[c];
#if defined(PD_X86_DISPATCH)
      if constexpr (kSimdTypes) {
        if (use_avx512) {
          sellcs_chunk_avx512(reinterpret_cast<const float*>(values),
                              reinterpret_cast<const std::uint32_t*>(col_idx),
                              base, width, C, xp, lane_out.data());
        } else if (use_avx2) {
          sellcs_chunk_avx2(reinterpret_cast<const float*>(values),
                            reinterpret_cast<const std::uint32_t*>(col_idx),
                            base, width, C, xp, lane_out.data());
        } else {
          sellcs_chunk_scalar(values, col_idx, base, width, C, xp,
                              lane_out.data());
        }
      } else {
        sellcs_chunk_scalar(values, col_idx, base, width, C, xp,
                            lane_out.data());
      }
#else
      sellcs_chunk_scalar(values, col_idx, base, width, C, xp,
                          lane_out.data());
#endif
      const std::uint64_t row0 = c * C;
      const std::uint32_t active = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(C, m.num_rows - row0));
      for (std::uint32_t l = 0; l < active; ++l) {
        yp[row_perm[row0 + l]] = lane_out[l];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Quantized SELL-C-σ (fast tier v2) — SELL's SIMD-friendly chunk layout with
// rsformat's u16 value compression.  Every contribution is computed as
// (double(q) * scale) * w — the same two-multiply contract as the fused
// rsformat kernel (dequantize rounds once, weight multiply rounds once, no
// FMA), so the derived per-row bound of docs/fast_tier.md applies with the
// rsformat column error err_c = 1.02 * (scale_c / 2).  Here `w` is x[col]
// and per-row accumulation stays a private lane accumulator in ascending
// slot order, identical in the scalar and AVX2 variants and under any chunk
// partition: like the float SELL kernel (and unlike fused rsformat), the
// quantized kernel is bitwise invariant across thread counts and SIMD.
// Empty rows are compacted out of the container, so the kernel zero-fills y
// before scattering the stored lanes.
// ---------------------------------------------------------------------------

/// One chunk, scalar, quantized: out[l] = Σ_j (double(q) * scale_col) * x[col].
inline void sellcs_q_chunk_scalar(const std::uint16_t* qvalues,
                                  const std::uint16_t* col_idx,
                                  const float* col_scale, std::uint64_t base,
                                  std::uint32_t width,
                                  std::uint32_t chunk_height, const double* x,
                                  double* out) {
  for (std::uint32_t l = 0; l < chunk_height; ++l) {
    out[l] = 0.0;
  }
  for (std::uint32_t j = 0; j < width; ++j) {
    const std::uint64_t row_base = base + std::uint64_t{j} * chunk_height;
    for (std::uint32_t l = 0; l < chunk_height; ++l) {
      const std::uint64_t slot = row_base + l;
      const std::uint32_t col = col_idx[slot];
      out[l] += (static_cast<double>(qvalues[slot]) *
                 static_cast<double>(col_scale[col])) *
                x[col];
    }
  }
}

#if defined(PD_X86_DISPATCH)

/// AVX2, quantized: lane groups of 4; per step j a contiguous 4×u16 value
/// load and 4×u16 index load (widened in-register), a gathered 4-float scale
/// read and a gathered 4-double x read.  (q * scale) then * x — two rounded
/// multiplies, bitwise identical to the scalar variant.
__attribute__((target("avx2"))) inline void sellcs_q_chunk_avx2(
    const std::uint16_t* qvalues, const std::uint16_t* col_idx,
    const float* col_scale, std::uint64_t base, std::uint32_t width,
    std::uint32_t chunk_height, const double* x, double* out) {
  for (std::uint32_t l = 0; l < chunk_height; l += 4) {
    __m256d acc = _mm256_setzero_pd();
    const std::uint16_t* vp = qvalues + base + l;
    const std::uint16_t* cp = col_idx + base + l;
    for (std::uint32_t j = 0; j < width; ++j) {
      const __m128i ci = _mm_cvtepu16_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cp)));
      const __m256d xv = _mm256_i32gather_pd(x, ci, 8);
      const __m256d sv =
          _mm256_cvtps_pd(_mm_i32gather_ps(col_scale, ci, 4));
      const __m256d qv = _mm256_cvtepi32_pd(_mm_cvtepu16_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(vp))));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(qv, sv), xv));
      vp += chunk_height;
      cp += chunk_height;
    }
    _mm256_storeu_pd(out + l, acc);
  }
}

#endif  // PD_X86_DISPATCH

/// SIMD variant the quantized kernel will use for chunk height C on this
/// host (no AVX-512 clone yet: the u16 gathers gain less than the float
/// container's 8-lane loads).
inline const char* sellcs_q_spmv_variant_name(std::uint32_t chunk_height) {
#if defined(PD_X86_DISPATCH)
  if (kHaveAvx2 && chunk_height % 4 == 0) {
    return "avx2";
  }
#else
  (void)chunk_height;
#endif
  return "scalar";
}

/// Matrix bytes one quantized product streams (all arrays read once).
inline std::uint64_t sellcs_q_streamed_bytes(const sparse::SellCsQMatrix& m) {
  return m.bytes();
}

/// y = A·x over the quantized SELL-C-σ container, threaded over a
/// slot-balanced chunk partition (chunks own disjoint output rows).  Rows
/// absent from storage (empty rows) are zero-filled up front.
inline void sellcs_q_spmv(const sparse::SellCsQMatrix& m,
                          std::span<const double> x, std::span<double> y,
                          NativeExecutor& exec, bool allow_simd = true) {
  PD_CHECK_MSG(x.size() == m.num_cols, "sellcs_q_spmv: x size mismatch");
  PD_CHECK_MSG(y.size() == m.num_rows, "sellcs_q_spmv: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  if (m.stored_rows == 0) {
    return;
  }
  const std::uint64_t chunks = m.num_chunks();
  const std::uint32_t C = m.chunk_height;
  const std::uint16_t* qvalues = m.qvalues.data();
  const std::uint16_t* col_idx = m.col_idx.data();
  const float* col_scale = m.col_scale.data();
  const std::uint32_t* row_perm = m.row_perm.data();
  const double* xp = x.data();
  double* yp = y.data();

#if defined(PD_X86_DISPATCH)
  const bool use_avx2 = allow_simd && kHaveAvx2 && C % 4 == 0;
#else
  (void)allow_simd;
#endif

  std::vector<std::uint64_t> costs(chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    costs[c] = m.chunk_ptr[c + 1] - m.chunk_ptr[c];
  }
  const sparse::RowPartition part =
      sparse::balanced_cost_partition(costs, exec.parts_for(chunks));
  exec.run(part.parts(), [&](std::size_t p) {
    std::vector<double> lane_out(C);
    for (std::uint64_t c = part.boundaries[p]; c < part.boundaries[p + 1];
         ++c) {
      const std::uint64_t base = m.chunk_ptr[c];
      const std::uint32_t width = m.chunk_width[c];
#if defined(PD_X86_DISPATCH)
      if (use_avx2) {
        sellcs_q_chunk_avx2(qvalues, col_idx, col_scale, base, width, C, xp,
                            lane_out.data());
      } else {
        sellcs_q_chunk_scalar(qvalues, col_idx, col_scale, base, width, C, xp,
                              lane_out.data());
      }
#else
      sellcs_q_chunk_scalar(qvalues, col_idx, col_scale, base, width, C, xp,
                            lane_out.data());
#endif
      const std::uint64_t row0 = c * C;
      const std::uint32_t active = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(C, m.stored_rows - row0));
      for (std::uint32_t l = 0; l < active; ++l) {
        yp[row_perm[row0 + l]] = lane_out[l];
      }
    }
  });
}

}  // namespace pd::kernels
