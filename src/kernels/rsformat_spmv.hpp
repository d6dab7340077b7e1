#pragma once
// Fused decompress-SpMV directly on the rsformat compressed streams — the
// fast tier's first kernel family (docs/fast_tier.md).
//
// The paper's roofline argument (§V) makes dose SpMV DRAM-bound: time is
// streamed bytes over achieved bandwidth.  Inflating RsMatrix to CSR before
// computing streams 12 bytes per non-zero (8-byte value + 4-byte column
// index) plus row offsets; walking the compressed streams in place reads
// 4 bytes per stored slot (2-byte delta + 2-byte quantized value) plus a
// 16-byte header per column — roughly a third of the CSR-double traffic on
// the paper's cases.  The price is the fast tier's accuracy contract:
// dequantized values carry the format's scale/2 quantization error and the
// column-major accumulation order differs from the warp kernels, so results
// are verified against the bitwise tier with a derived per-row bound instead
// of bit equality (tests/test_fast_tier.cpp).
//
// Arithmetic contract kept deliberately simple so the bound is derivable:
// every contribution is computed as (double(q) * scale) * w — two ordinary
// double multiplies, no FMA (protondose_fp_strict) — which makes the
// single-threaded fused kernel bitwise identical to reference_spmv over
// RsMatrix::to_csr() (same products, same ascending-column per-row order).
// Multi-threaded runs partition *columns*, accumulate into per-part scratch
// vectors and merge in fixed part order: run-to-run deterministic for a
// fixed thread count, but not thread-count invariant (unlike the bitwise
// tier) — the tolerance tests therefore sweep thread counts explicitly.
//
// The AVX2 variant decodes 16 deltas per iteration: widen u16→u32, two
// in-register inclusive prefix sums with a cross-lane carry, add the running
// row cursor, then dequantize 16 values (u16→i32→f64) and scatter.  Blocks
// containing the kEscape code fall back to scalar decoding for those 16
// entries, as does the (< 16 entry) stream tail.

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fp16/half.hpp"  // PD_X86_DISPATCH and the CPU feature flags
#include "kernels/native_backend.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/partition.hpp"

#if defined(PD_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace pd::kernels {

/// Decode one column's slots [begin, end) and accumulate
/// y[row] += (double(q) * scale) * w, starting the row cursor at first_row.
inline void rsformat_column_scalar(const std::uint16_t* deltas,
                                   const std::uint16_t* qvalues,
                                   std::uint64_t begin, std::uint64_t end,
                                   std::uint64_t first_row, double scale,
                                   double w, double* y) {
  std::uint64_t row = first_row;
  for (std::uint64_t k = begin; k < end; ++k) {
    const std::uint16_t delta = deltas[k];
    if (delta == rsformat::RsMatrix::kEscape) {
      row += rsformat::RsMatrix::kEscapeAdvance;
      continue;
    }
    row += delta;
    y[row] += (static_cast<double>(qvalues[k]) * scale) * w;
  }
}

#if defined(PD_X86_DISPATCH)

/// Inclusive prefix sum of 8 u32 across the full 256-bit register
/// (log-step shifts within each 128-bit lane, then carry the low lane's
/// total into the high lane).
__attribute__((target("avx2"))) inline __m256i rsformat_prefix_u32(__m256i v) {
  __m256i s = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
  s = _mm256_add_epi32(s, _mm256_slli_si256(s, 8));
  __m256i carry = _mm256_permute2x128_si256(s, s, 0x08);  // [0 | low lane]
  carry = _mm256_shuffle_epi32(carry, 0xFF);              // broadcast lane totals
  return _mm256_add_epi32(s, carry);
}

/// AVX2 column decode: 16 slots per iteration.  Caller guarantees
/// num_rows < 2^31 so 32-bit signed row arithmetic cannot overflow; columns
/// needing larger row indices take the scalar kernel.  Escape-bearing blocks
/// and the tail decode scalar — escapes are rare (only gaps >= 0xffff emit
/// one), so the vector path covers almost every slot.
__attribute__((target("avx2"))) inline void rsformat_column_avx2(
    const std::uint16_t* deltas, const std::uint16_t* qvalues,
    std::uint64_t begin, std::uint64_t end, std::uint64_t first_row,
    double scale, double w, double* y) {
  std::uint64_t k = begin;
  std::uint64_t row = first_row;
  const __m256i escape = _mm256_set1_epi16(static_cast<short>(0xffffu));
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vw = _mm256_set1_pd(w);
  alignas(32) std::uint32_t rows[16];
  alignas(32) double contrib[16];
  while (k + 16 <= end) {
    const __m256i d16 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(deltas + k));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi16(d16, escape)) != 0) {
      const std::uint64_t stop = k + 16;
      for (; k < stop; ++k) {
        const std::uint16_t delta = deltas[k];
        if (delta == rsformat::RsMatrix::kEscape) {
          row += rsformat::RsMatrix::kEscapeAdvance;
          continue;
        }
        row += delta;
        y[row] += (static_cast<double>(qvalues[k]) * scale) * w;
      }
      continue;
    }
    // Absolute rows: running cursor + inclusive prefix of the 16 deltas.
    __m256i lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(d16));
    __m256i hi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(d16, 1));
    lo = rsformat_prefix_u32(lo);
    hi = rsformat_prefix_u32(hi);
    const std::uint32_t lo_total = static_cast<std::uint32_t>(
        _mm256_extract_epi32(lo, 7));
    lo = _mm256_add_epi32(lo, _mm256_set1_epi32(static_cast<int>(row)));
    hi = _mm256_add_epi32(
        hi, _mm256_set1_epi32(static_cast<int>(row + lo_total)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(rows), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(rows + 8), hi);
    row = rows[15];
    // Dequantize: u16 -> i32 -> f64, then (q * scale) * w as in the scalar
    // kernel (two rounded multiplies keep the fused kernel bitwise equal to
    // reference_spmv over to_csr()).
    const __m256i q16 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(qvalues + k));
    const __m256i qlo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(q16));
    const __m256i qhi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(q16, 1));
    _mm256_store_pd(
        contrib,
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(qlo)),
                          vscale),
            vw));
    _mm256_store_pd(
        contrib + 4,
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(qlo, 1)),
                          vscale),
            vw));
    _mm256_store_pd(
        contrib + 8,
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(qhi)),
                          vscale),
            vw));
    _mm256_store_pd(
        contrib + 12,
        _mm256_mul_pd(
            _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(qhi, 1)),
                          vscale),
            vw));
    for (int i = 0; i < 16; ++i) {
      y[rows[i]] += contrib[i];
    }
    k += 16;
  }
  for (; k < end; ++k) {
    const std::uint16_t delta = deltas[k];
    if (delta == rsformat::RsMatrix::kEscape) {
      row += rsformat::RsMatrix::kEscapeAdvance;
      continue;
    }
    row += delta;
    y[row] += (static_cast<double>(qvalues[k]) * scale) * w;
  }
}

#endif  // PD_X86_DISPATCH

/// Whether the AVX2 fused decoder will run on this host (used for bench /
/// CLI reporting; the kernel itself always dispatches safely).
inline bool rsformat_spmv_has_avx2() {
#if defined(PD_X86_DISPATCH)
  return kHaveAvx2;
#else
  return false;
#endif
}

inline const char* rsformat_spmv_variant_name() {
  return rsformat_spmv_has_avx2() ? "avx2" : "scalar";
}

/// Matrix bytes one fused product streams (every compressed stream is read
/// exactly once).  Compare against CsrF64::bytes() for the fast tier's
/// headline streamed-bytes ratio.
inline std::uint64_t rsformat_streamed_bytes(const rsformat::RsMatrix& m) {
  return m.bytes();
}

/// y = A·x executed directly on the compressed streams.  `allow_simd`
/// disables the AVX2 path (used by tests to compare variants).  Threading
/// partitions columns by slot count; each part accumulates into private
/// scratch merged in fixed part order after the barrier.
inline void rsformat_spmv(const rsformat::RsMatrix& m,
                          std::span<const double> x, std::span<double> y,
                          NativeExecutor& exec, bool allow_simd = true) {
  PD_CHECK_MSG(x.size() == m.num_cols(), "rsformat_spmv: x size mismatch");
  PD_CHECK_MSG(y.size() == m.num_rows(), "rsformat_spmv: y size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  const std::uint64_t num_cols = m.num_cols();
  if (num_cols == 0 || m.col_ptr().back() == 0) {
    return;
  }
  const std::uint64_t* col_ptr = m.col_ptr().data();
  const std::uint32_t* col_first_row = m.col_first_row().data();
  const float* col_scale = m.col_scale().data();
  const std::uint16_t* deltas = m.deltas().data();
  const std::uint16_t* qvalues = m.qvalues().data();
  const double* xp = x.data();

#if defined(PD_X86_DISPATCH)
  const bool use_avx2 = allow_simd && kHaveAvx2 &&
                        m.num_rows() < (std::uint64_t{1} << 31);
#else
  const bool use_avx2 = false;
  (void)allow_simd;
#endif

  const auto run_columns = [&](std::uint64_t c_begin, std::uint64_t c_end,
                               double* out) {
    for (std::uint64_t c = c_begin; c < c_end; ++c) {
      const double w = xp[c];
      if (w == 0.0 || col_ptr[c] == col_ptr[c + 1]) {
        continue;  // zero weight or empty spot: no contribution.
      }
      const double scale = static_cast<double>(col_scale[c]);
#if defined(PD_X86_DISPATCH)
      if (use_avx2) {
        rsformat_column_avx2(deltas, qvalues, col_ptr[c], col_ptr[c + 1],
                             col_first_row[c], scale, w, out);
        continue;
      }
#endif
      rsformat_column_scalar(deltas, qvalues, col_ptr[c], col_ptr[c + 1],
                             col_first_row[c], scale, w, out);
    }
  };

  const std::size_t parts = exec.parts_for(num_cols);
  if (parts <= 1) {
    run_columns(0, num_cols, y.data());
    return;
  }
  // Columns scatter into overlapping row ranges, so parts get private
  // scratch accumulators; the fixed-order merge keeps a given thread count
  // run-to-run deterministic.
  std::vector<std::uint64_t> costs(num_cols);
  for (std::uint64_t c = 0; c < num_cols; ++c) {
    costs[c] = col_ptr[c + 1] - col_ptr[c];
  }
  const sparse::RowPartition part =
      sparse::balanced_cost_partition(costs, parts);
  std::vector<std::vector<double>> scratch(
      part.parts(), std::vector<double>(m.num_rows(), 0.0));
  exec.run(part.parts(), [&](std::size_t p) {
    run_columns(part.boundaries[p], part.boundaries[p + 1],
                scratch[p].data());
  });
  double* yp = y.data();
  for (std::size_t p = 0; p < part.parts(); ++p) {
    const double* sp = scratch[p].data();
    for (std::uint64_t r = 0; r < m.num_rows(); ++r) {
      yp[r] += sp[r];
    }
  }
}

// ---------------------------------------------------------------------------
// Batched fused rsformat (fast tier v2): one decode pass of the u16 delta
// stream feeds K column-major-interleaved accumulators, so a K-scenario
// batch pays the prefix-sum decode (and the 4-byte/slot stream traffic)
// once instead of K times.  Arithmetic per lane j is exactly the single-RHS
// kernel's: dq = double(q) * scale rounds once, then acc += dq * w_j rounds
// a multiply and an add — so at one thread every output column is bitwise
// identical to a looped rsformat_spmv over the same weight column.  Lanes
// whose weight is zero contribute (dq * 0.0) = +0.0, and accumulators can
// never hold -0.0 (they start at +0.0 and (+0.0) + (-0.0) = +0.0), so the
// extra identity adds keep the bit equality even though the single-RHS
// kernel skips zero-weight columns outright.
// ---------------------------------------------------------------------------

/// Decode one column's slots and accumulate K lanes:
/// acc[row*K + j] += (double(q) * scale) * wk[j].
inline void rsformat_column_scalar_batch(
    const std::uint16_t* deltas, const std::uint16_t* qvalues,
    std::uint64_t begin, std::uint64_t end, std::uint64_t first_row,
    double scale, const double* wk, std::size_t batch, double* acc) {
  std::uint64_t row = first_row;
  for (std::uint64_t k = begin; k < end; ++k) {
    const std::uint16_t delta = deltas[k];
    if (delta == rsformat::RsMatrix::kEscape) {
      row += rsformat::RsMatrix::kEscapeAdvance;
      continue;
    }
    row += delta;
    const double dq = static_cast<double>(qvalues[k]) * scale;
    double* a = acc + row * batch;
    for (std::size_t j = 0; j < batch; ++j) {
      a[j] += dq * wk[j];
    }
  }
}

#if defined(PD_X86_DISPATCH)

/// K-lane scatter of one dequantized slot: acc[r*K + j] += d * wk[j]
/// (4-wide vector body + scalar tail; mul then add, the scalar rounding).
__attribute__((target("avx2"))) inline void rsformat_batch_scatter_avx2(
    double* acc, std::uint64_t r, double d, const double* wk,
    std::size_t batch) {
  double* a = acc + r * batch;
  std::size_t j = 0;
  const __m256d d4 = _mm256_set1_pd(d);
  for (; j + 4 <= batch; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    _mm256_storeu_pd(
        a + j, _mm256_add_pd(av, _mm256_mul_pd(d4, _mm256_loadu_pd(wk + j))));
  }
  for (; j < batch; ++j) {
    a[j] += d * wk[j];
  }
}

/// AVX2 batched decode: the same 16-delta prefix-sum machinery as the
/// single-RHS kernel, but the dequantized block is (q * scale) only — the
/// per-lane weight multiply happens in the K-wide scatter loop (mul then
/// add, matching the scalar batch kernel's rounding exactly).
__attribute__((target("avx2"))) inline void rsformat_column_avx2_batch(
    const std::uint16_t* deltas, const std::uint16_t* qvalues,
    std::uint64_t begin, std::uint64_t end, std::uint64_t first_row,
    double scale, const double* wk, std::size_t batch, double* acc) {
  std::uint64_t k = begin;
  std::uint64_t row = first_row;
  const __m256i escape = _mm256_set1_epi16(static_cast<short>(0xffffu));
  const __m256d vscale = _mm256_set1_pd(scale);
  alignas(32) std::uint32_t rows[16];
  alignas(32) double dq[16];
  const auto scatter = [&](std::uint64_t r, double d) {
    rsformat_batch_scatter_avx2(acc, r, d, wk, batch);
  };
  while (k + 16 <= end) {
    const __m256i d16 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(deltas + k));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi16(d16, escape)) != 0) {
      const std::uint64_t stop = k + 16;
      for (; k < stop; ++k) {
        const std::uint16_t delta = deltas[k];
        if (delta == rsformat::RsMatrix::kEscape) {
          row += rsformat::RsMatrix::kEscapeAdvance;
          continue;
        }
        row += delta;
        scatter(row, static_cast<double>(qvalues[k]) * scale);
      }
      continue;
    }
    __m256i lo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(d16));
    __m256i hi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(d16, 1));
    lo = rsformat_prefix_u32(lo);
    hi = rsformat_prefix_u32(hi);
    const std::uint32_t lo_total = static_cast<std::uint32_t>(
        _mm256_extract_epi32(lo, 7));
    lo = _mm256_add_epi32(lo, _mm256_set1_epi32(static_cast<int>(row)));
    hi = _mm256_add_epi32(
        hi, _mm256_set1_epi32(static_cast<int>(row + lo_total)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(rows), lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(rows + 8), hi);
    row = rows[15];
    const __m256i q16 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(qvalues + k));
    const __m256i qlo = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(q16));
    const __m256i qhi = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(q16, 1));
    _mm256_store_pd(
        dq, _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(qlo)),
                          vscale));
    _mm256_store_pd(
        dq + 4,
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(qlo, 1)),
                      vscale));
    _mm256_store_pd(
        dq + 8, _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(qhi)),
                              vscale));
    _mm256_store_pd(
        dq + 12,
        _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(qhi, 1)),
                      vscale));
    for (int i = 0; i < 16; ++i) {
      scatter(rows[i], dq[i]);
    }
    k += 16;
  }
  for (; k < end; ++k) {
    const std::uint16_t delta = deltas[k];
    if (delta == rsformat::RsMatrix::kEscape) {
      row += rsformat::RsMatrix::kEscapeAdvance;
      continue;
    }
    row += delta;
    scatter(row, static_cast<double>(qvalues[k]) * scale);
  }
}

#endif  // PD_X86_DISPATCH

/// K doses from K weight vectors in one traversal of the compressed streams.
/// `xs[j]` is weight vector j (num_cols doubles), `ys[j]` the dose output
/// (num_rows doubles).  At one thread each ys[j] is bitwise identical to
/// rsformat_spmv(m, xs[j], ...); threaded runs use the same column partition
/// + private scratch + fixed-order merge as the single-RHS kernel and are
/// run-to-run deterministic per thread count.
inline void rsformat_spmv_batch(const rsformat::RsMatrix& m,
                                std::span<const double* const> xs,
                                std::span<double* const> ys,
                                NativeExecutor& exec, bool allow_simd = true) {
  const std::size_t batch = xs.size();
  PD_CHECK_MSG(batch > 0, "rsformat_spmv_batch: empty batch");
  PD_CHECK_MSG(ys.size() == batch, "rsformat_spmv_batch: xs/ys size mismatch");
  const std::uint64_t num_rows = m.num_rows();
  const std::uint64_t num_cols = m.num_cols();
  for (std::size_t j = 0; j < batch; ++j) {
    std::fill(ys[j], ys[j] + num_rows, 0.0);
  }
  if (num_cols == 0 || m.col_ptr().back() == 0) {
    return;
  }
  const std::uint64_t* col_ptr = m.col_ptr().data();
  const std::uint32_t* col_first_row = m.col_first_row().data();
  const float* col_scale = m.col_scale().data();
  const std::uint16_t* deltas = m.deltas().data();
  const std::uint16_t* qvalues = m.qvalues().data();

  // Column-major-interleaved batch weights: the K weights of column c sit
  // contiguously at xw[c*K], so the per-slot inner loop streams them.
  std::vector<double> xw(num_cols * batch);
  for (std::uint64_t c = 0; c < num_cols; ++c) {
    for (std::size_t j = 0; j < batch; ++j) {
      xw[c * batch + j] = xs[j][c];
    }
  }

#if defined(PD_X86_DISPATCH)
  const bool use_avx2 = allow_simd && kHaveAvx2 &&
                        num_rows < (std::uint64_t{1} << 31);
#else
  const bool use_avx2 = false;
  (void)allow_simd;
#endif

  const auto run_columns = [&](std::uint64_t c_begin, std::uint64_t c_end,
                               double* acc) {
    for (std::uint64_t c = c_begin; c < c_end; ++c) {
      if (col_ptr[c] == col_ptr[c + 1]) {
        continue;  // empty spot: no contribution to any lane.
      }
      const double* wk = xw.data() + c * batch;
      bool any = false;
      for (std::size_t j = 0; j < batch; ++j) {
        any = any || wk[j] != 0.0;
      }
      if (!any) {
        continue;  // all-zero weights: every lane's kernel would skip.
      }
      const double scale = static_cast<double>(col_scale[c]);
#if defined(PD_X86_DISPATCH)
      if (use_avx2) {
        rsformat_column_avx2_batch(deltas, qvalues, col_ptr[c], col_ptr[c + 1],
                                   col_first_row[c], scale, wk, batch, acc);
        continue;
      }
#endif
      rsformat_column_scalar_batch(deltas, qvalues, col_ptr[c], col_ptr[c + 1],
                                   col_first_row[c], scale, wk, batch, acc);
    }
  };

  // Interleaved accumulator: lane j of row r at acc[r*K + j] (the layout
  // native_vector_spmv_batch uses), deinterleaved into ys at the end.
  const std::size_t parts = exec.parts_for(num_cols);
  std::vector<double> acc(num_rows * batch, 0.0);
  if (parts <= 1) {
    run_columns(0, num_cols, acc.data());
  } else {
    std::vector<std::uint64_t> costs(num_cols);
    for (std::uint64_t c = 0; c < num_cols; ++c) {
      costs[c] = col_ptr[c + 1] - col_ptr[c];
    }
    const sparse::RowPartition part =
        sparse::balanced_cost_partition(costs, parts);
    std::vector<std::vector<double>> scratch(
        part.parts(), std::vector<double>(num_rows * batch, 0.0));
    exec.run(part.parts(), [&](std::size_t p) {
      run_columns(part.boundaries[p], part.boundaries[p + 1],
                  scratch[p].data());
    });
    for (std::size_t p = 0; p < part.parts(); ++p) {
      const double* sp = scratch[p].data();
      double* ap = acc.data();
      for (std::uint64_t i = 0; i < num_rows * batch; ++i) {
        ap[i] += sp[i];
      }
    }
  }
  for (std::uint64_t r = 0; r < num_rows; ++r) {
    const double* a = acc.data() + r * batch;
    for (std::size_t j = 0; j < batch; ++j) {
      ys[j][r] = a[j];
    }
  }
}

}  // namespace pd::kernels
