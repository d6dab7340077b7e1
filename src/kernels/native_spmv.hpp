#pragma once
// Native host row kernels, bitwise-faithful to the simulated warp kernels.
//
// The gpusim kernels execute real arithmetic — the simulator only adds
// counter bookkeeping, per-lane address vectors, and mask checks around it.
// These functions strip that scaffolding and keep *exactly* the arithmetic:
// the same half/single/double conversion points (convert_value), the same
// 32-lane strided partial sums accumulated in the same chunk order, and the
// same fixed reduction trees (warp_reduce_add's shfl_down butterfly,
// warp_segmented_inclusive_sum's segmented Hillis-Steele).  DoseEngine's
// Backend::kNative runs these and is asserted bitwise identical to
// Backend::kGpusim for every family x precision mode
// (tests/test_native_backend.cpp).
//
// Short rows additionally take a fast path that skips the lanes the kernel
// never touches.  This is bitwise-safe, not approximate: untouched lanes
// hold exactly +0.0, x + (+0.0) reproduces x bitwise for every value an
// accumulator can reach (lanes start at +0.0, and under round-to-nearest an
// addition never yields -0.0 unless both operands are -0.0, so partial sums
// are never -0.0), and in both reduction trees lane i depends only on lanes
// <= i — so arithmetic on lanes that are never read can be dropped outright.
//
// Everything here is per-row/per-item and stateless: callers own the
// partitioning and threading (native_backend.hpp).  Rows write disjoint
// outputs, so any partition of the row space yields identical bits.

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "fp16/half.hpp"
#include "gpusim/lanes.hpp"
#include "kernels/adaptive_csr.hpp"
#include "kernels/rowsplit_csr.hpp"
#include "kernels/spmv_common.hpp"

#if defined(PD_X86_DISPATCH)
#include <immintrin.h>
#endif

namespace pd::kernels {

#if defined(PD_X86_DISPATCH)
/// Hardware half->float conversion (VCVTPH2PS).  IEEE-754 defines a unique
/// binary32 image for every binary16 value and both this instruction and
/// half_bits_to_float implement exactly that mapping (subnormals included;
/// NaN payloads widen by the same 13-bit shift), so the fast path is
/// bitwise-identical, not approximate.
__attribute__((target("f16c"))) inline void half_chunk_to_float_f16c(
    const pd::Half* v, unsigned n, float* out) {
  unsigned i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    _mm256_storeu_ps(out + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) {
    out[i] = v[i].to_float();
  }
}
#endif

/// Convert a chunk of matrix halves to binary32 (exact widening), using the
/// hardware converter when the CPU has one.
inline void half_chunk_to_float(const pd::Half* v, unsigned n, float* out) {
#if defined(PD_X86_DISPATCH)
  if (kHaveF16c) {
    half_chunk_to_float_f16c(v, n, out);
    return;
  }
#endif
  for (unsigned i = 0; i < n; ++i) {
    out[i] = v[i].to_float();
  }
}

/// Stage a chunk (n <= 32) of matrix values into Acc precision.  For Half
/// this funnels through the (possibly hardware) exact widening above;
/// identical to calling convert_value per element.
template <typename Acc, typename MatV>
inline void convert_chunk(const MatV* v, unsigned n, Acc* out) {
  if constexpr (std::is_same_v<MatV, pd::Half>) {
    float f[gpusim::kWarpSize];
    half_chunk_to_float(v, n, f);
    for (unsigned i = 0; i < n; ++i) {
      out[i] = static_cast<Acc>(f[i]);
    }
  } else {
    for (unsigned i = 0; i < n; ++i) {
      out[i] = convert_value<Acc>(v[i]);
    }
  }
}

/// warp_reduce_add over a warp whose lanes [n, 32) are exactly +0.0: runs
/// the same butterfly passes but skips the additions whose right operand is
/// one of those zero lanes (a bitwise no-op, see the header comment).
/// `tmp[0..n-1]` is mutated in place; lanes >= n are never read.  n >= 1.
template <typename Acc>
inline Acc native_reduce_tail(Acc* tmp, unsigned n) {
  for (unsigned offset = gpusim::kWarpSize / 2; offset > 0; offset /= 2) {
    for (unsigned i = 0; i < offset && i + offset < n; ++i) {
      tmp[i] = tmp[i] + tmp[i + offset];
    }
    n = std::min(n, offset);
  }
  return tmp[0];
}

/// One vector-kernel row: lanes stride the row's non-zeros in chunks of 32
/// (vector_csr.hpp's accumulation loop), then the fixed butterfly reduction.
/// Rows of <= 32 non-zeros (the dose-matrix common case, Figure 2) skip the
/// 32-lane zero-fill and reduce only the lanes that were written.
template <typename Acc, typename MatV, typename IdxT>
inline Acc native_row_product(const MatV* values, const IdxT* col_idx,
                              const Acc* x, std::uint64_t start,
                              std::uint64_t end) {
  const std::uint64_t nnz = end - start;
  if (nnz <= gpusim::kWarpSize) {
    if (nnz == 0) {
      return Acc{};
    }
    const auto n = static_cast<unsigned>(nnz);
    Acc conv[gpusim::kWarpSize];
    convert_chunk(values + start, n, conv);
    Acc tmp[gpusim::kWarpSize];  // lanes >= n stay unread
    for (unsigned lane = 0; lane < n; ++lane) {
      // Acc{} + ... is the kernel's first accumulation into the zeroed lane
      // (it differs from the bare product only for a -0.0 product).
      tmp[lane] = Acc{} + conv[lane] * x[col_idx[start + lane]];
    }
    return native_reduce_tail(tmp, n);
  }
  gpusim::Lanes<Acc> acc{};
  Acc conv[gpusim::kWarpSize];
  const std::uint64_t tail =
      start + (nnz & ~static_cast<std::uint64_t>(gpusim::kWarpSize - 1));
  for (std::uint64_t base = start; base < tail; base += gpusim::kWarpSize) {
    convert_chunk(values + base, gpusim::kWarpSize, conv);
    for (unsigned lane = 0; lane < gpusim::kWarpSize; ++lane) {
      acc[lane] = acc[lane] + conv[lane] * x[col_idx[base + lane]];
    }
  }
  const auto rem = static_cast<unsigned>(nnz & (gpusim::kWarpSize - 1));
  if (rem != 0) {
    convert_chunk(values + tail, rem, conv);
    for (unsigned lane = 0; lane < rem; ++lane) {
      acc[lane] = acc[lane] + conv[lane] * x[col_idx[tail + lane]];
    }
  }
  // All 32 lanes are live, so warp_reduce_add's masked zero-fill copy is an
  // identity; run its tree in place.
  return native_reduce_tail(&acc[0], gpusim::kWarpSize);
}

/// a[j] = a[j] + v * xc[j] across the batch block (one non-zero feeding all
/// right-hand sides).
template <typename Acc>
inline void batch_madd(Acc* __restrict a, Acc v, const Acc* __restrict xc,
                       std::size_t batch) {
  for (std::size_t j = 0; j < batch; ++j) {
    a[j] = a[j] + v * xc[j];
  }
}

/// a[j] = Acc{} + v * xc[j] across the batch block — the kernel's first
/// accumulation into a zeroed lane, without requiring `a` to be pre-zeroed.
template <typename Acc>
inline void batch_first_madd(Acc* __restrict a, Acc v,
                             const Acc* __restrict xc, std::size_t batch) {
  for (std::size_t j = 0; j < batch; ++j) {
    a[j] = Acc{} + v * xc[j];
  }
}

/// a[j] = a[j] + b[j] across the batch block (one reduction-tree step).
template <typename Acc>
inline void batch_add(Acc* __restrict a, const Acc* __restrict b,
                      std::size_t batch) {
  for (std::size_t j = 0; j < batch; ++j) {
    a[j] = a[j] + b[j];
  }
}

/// native_reduce_tail applied to all `batch` columns of a lane-major
/// accumulator block (lane l's `batch` partials at `acc[l*batch .. ]`).
/// Column j sees exactly native_reduce_tail's tree — same passes, same
/// operand order — so each column's bits match the single-vector reduction;
/// the j loop is innermost purely so the adds are contiguous and vectorize.
/// Results land in lane 0's block, `acc[0..batch)`.
template <typename Acc>
inline void native_reduce_tail_batch(Acc* acc, std::size_t batch, unsigned n) {
  for (unsigned offset = gpusim::kWarpSize / 2; offset > 0; offset /= 2) {
    for (unsigned i = 0; i < offset && i + offset < n; ++i) {
      batch_add(acc + i * batch, acc + (i + offset) * batch, batch);
    }
    n = std::min(n, offset);
  }
}

/// Long-row (nnz > kWarpSize) batched row product with the batch width a
/// compile-time constant: loops lane-outer / stride-inner so each lane's
/// B-wide accumulator lives in registers across the whole row instead of
/// being re-read and re-stored per non-zero.  Per (lane, column) the
/// accumulation order over strides is exactly the stride-outer loop's order,
/// and per-element convert_value is bitwise convert_chunk (see its comment),
/// so the result is bit-identical — this is purely a traffic optimization:
/// the generic path moves 2*B accumulator values per non-zero, which does
/// not amortize with batch width and caps the batched speedup at the x-read
/// bound.  `acc` receives the lane-major partials for the reduction tree.
template <unsigned B, typename Acc, typename MatV, typename IdxT>
inline void native_row_product_batch_lanes(const MatV* values,
                                           const IdxT* col_idx,
                                           const Acc* x_int,
                                           std::uint64_t start,
                                           std::uint64_t end, Acc* acc) {
  for (unsigned lane = 0; lane < gpusim::kWarpSize; ++lane) {
    // nnz > kWarpSize, so every lane has a first element.
    std::uint64_t k = start + lane;
    const Acc v0 = convert_value<Acc>(values[k]);
    const Acc* xc0 = x_int + static_cast<std::size_t>(col_idx[k]) * B;
    Acc a[B];
    for (unsigned j = 0; j < B; ++j) {
      a[j] = Acc{} + v0 * xc0[j];
    }
    for (k += gpusim::kWarpSize; k < end; k += gpusim::kWarpSize) {
      const Acc v = convert_value<Acc>(values[k]);
      const Acc* xc = x_int + static_cast<std::size_t>(col_idx[k]) * B;
      for (unsigned j = 0; j < B; ++j) {
        a[j] += v * xc[j];
      }
    }
    Acc* lane_acc = acc + lane * B;
    for (unsigned j = 0; j < B; ++j) {
      lane_acc[j] = a[j];
    }
  }
}

/// Dispatch a long row to the fixed-width lane-outer kernel when the batch
/// width has an instantiation; false means the caller runs the generic path.
template <typename Acc, typename MatV, typename IdxT>
inline bool native_row_product_batch_fixed(const MatV* values,
                                           const IdxT* col_idx,
                                           const Acc* x_int, std::size_t batch,
                                           std::uint64_t start,
                                           std::uint64_t end, Acc* acc) {
  const auto run = [&](auto width) {
    native_row_product_batch_lanes<decltype(width)::value>(
        values, col_idx, x_int, start, end, acc);
  };
  switch (batch) {
    case 2: run(std::integral_constant<unsigned, 2>{}); return true;
    case 3: run(std::integral_constant<unsigned, 3>{}); return true;
    case 4: run(std::integral_constant<unsigned, 4>{}); return true;
    case 5: run(std::integral_constant<unsigned, 5>{}); return true;
    case 6: run(std::integral_constant<unsigned, 6>{}); return true;
    case 7: run(std::integral_constant<unsigned, 7>{}); return true;
    case 8: run(std::integral_constant<unsigned, 8>{}); return true;
    case 9: run(std::integral_constant<unsigned, 9>{}); return true;
    case 10: run(std::integral_constant<unsigned, 10>{}); return true;
    case 11: run(std::integral_constant<unsigned, 11>{}); return true;
    case 12: run(std::integral_constant<unsigned, 12>{}); return true;
    case 13: run(std::integral_constant<unsigned, 13>{}); return true;
    case 14: run(std::integral_constant<unsigned, 14>{}); return true;
    case 15: run(std::integral_constant<unsigned, 15>{}); return true;
    case 16: run(std::integral_constant<unsigned, 16>{}); return true;
    default: return false;
  }
}

/// Batched (multi-RHS) form of native_row_product: one pass over the row's
/// non-zeros feeds all `batch` accumulators, matching multivector_csr.hpp.
/// Each column's per-lane sums and reduction are those of the single-vector
/// kernel, so every batch column is bitwise identical to a looped compute.
/// `x_int` holds the batch vectors interleaved column-major — vector j's
/// entry for matrix column c at `x_int[c*batch + j]` — so one non-zero's
/// `batch` reads are contiguous.  `acc` is caller-provided scratch of
/// kWarpSize*batch accumulators in lane-major layout (lane l's partials at
/// `acc[l*batch + j]`, so the per-non-zero batch multiply-adds are
/// contiguous too; lanes this row does not touch are never read, so stale
/// contents are fine); `out` receives the `batch` row results.
///
/// This is the kernel's only body.  native_row_product_batch runs it as
/// compiled for the baseline ISA or inside native_row_product_batch_avx2.
template <typename Acc, typename MatV, typename IdxT>
[[gnu::always_inline]] inline void native_row_product_batch_body(
    const MatV* values, const IdxT* col_idx, const Acc* x_int,
    std::size_t batch, std::uint64_t start, std::uint64_t end, Acc* acc,
    Acc* out) {
  const std::uint64_t nnz = end - start;
  if (nnz == 0) {
    for (std::size_t j = 0; j < batch; ++j) {
      out[j] = Acc{};
    }
    return;
  }
  Acc conv[gpusim::kWarpSize];
  if (nnz <= gpusim::kWarpSize) {
    const auto n = static_cast<unsigned>(nnz);
    convert_chunk(values + start, n, conv);
    for (unsigned lane = 0; lane < n; ++lane) {
      const Acc v = conv[lane];
      batch_first_madd(
          acc + lane * batch, v,
          x_int + static_cast<std::size_t>(col_idx[start + lane]) * batch,
          batch);
    }
    native_reduce_tail_batch(acc, batch, n);
    for (std::size_t j = 0; j < batch; ++j) {
      out[j] = acc[j];
    }
    return;
  }
  if (!native_row_product_batch_fixed(values, col_idx, x_int, batch, start,
                                      end, acc)) {
    // Generic width: stride-outer with the lane-major accumulator in memory.
    // The first stride covers every lane, so its products are *stored*
    // (Acc{} + v*x, exactly the zero-initialized first madd) instead of
    // zero-filling the whole accumulator block up front.
    for (std::uint64_t base = start; base < end; base += gpusim::kWarpSize) {
      const auto remaining = static_cast<unsigned>(
          std::min<std::uint64_t>(gpusim::kWarpSize, end - base));
      convert_chunk(values + base, remaining, conv);
      for (unsigned lane = 0; lane < remaining; ++lane) {
        const Acc v = conv[lane];
        const Acc* xc =
            x_int + static_cast<std::size_t>(col_idx[base + lane]) * batch;
        if (base == start) {
          batch_first_madd(acc + lane * batch, v, xc, batch);
        } else {
          batch_madd(acc + lane * batch, v, xc, batch);
        }
      }
    }
  }
  native_reduce_tail_batch(acc, batch, gpusim::kWarpSize);
  for (std::size_t j = 0; j < batch; ++j) {
    out[j] = acc[j];
  }
}

#if defined(PD_X86_DISPATCH)
/// native_row_product_batch_body compiled for AVX2.  `flatten` inlines the
/// body and every helper it calls, so the compiler widens the batch loops to
/// 256-bit vectors.  Each column still gets a separate IEEE multiply, then
/// an add: AVX2 does not imply FMA and -ffp-contract=off holds, so every
/// rounding is the baseline body's.  The F16C converter stays a call,
/// because flatten skips callees whose target is not a subset of AVX2.
template <typename Acc, typename MatV, typename IdxT>
__attribute__((target("avx2"), flatten)) inline void
native_row_product_batch_avx2(const MatV* values, const IdxT* col_idx,
                              const Acc* x_int, std::size_t batch,
                              std::uint64_t start, std::uint64_t end,
                              Acc* acc, Acc* out) {
  native_row_product_batch_body(values, col_idx, x_int, batch, start, end,
                                acc, out);
}
#endif

/// One batched row (native_row_product_batch_body) on the widest ISA the CPU
/// has; the bits do not depend on which one runs.
template <typename Acc, typename MatV, typename IdxT>
inline void native_row_product_batch(const MatV* values, const IdxT* col_idx,
                                     const Acc* x_int, std::size_t batch,
                                     std::uint64_t start, std::uint64_t end,
                                     Acc* acc, Acc* out) {
#if defined(PD_X86_DISPATCH)
  if (kHaveAvx2) {
    native_row_product_batch_avx2(values, col_idx, x_int, batch, start, end,
                                  acc, out);
    return;
  }
#endif
  native_row_product_batch_body(values, col_idx, x_int, batch, start, end,
                                acc, out);
}

/// One classical-kernel row: element i of the row lands in sub-accumulator
/// i % sub in ascending order (classical_csr.hpp's iter loop), then the
/// kernel's in-register subwarp tree.  `sub` must be the launch-wide
/// classical_subwarp_size(A.nnz(), A.num_rows) — it is a property of the
/// whole matrix, not of the row — and is always a power of two, so the
/// modulo is a mask.
template <typename Acc, typename MatV, typename IdxT>
inline Acc native_classical_row(const MatV* values, const IdxT* col_idx,
                                const Acc* x, std::uint32_t start,
                                std::uint32_t end, unsigned sub) {
  Acc partial[gpusim::kWarpSize] = {};
  const unsigned mask = sub - 1;
  for (std::uint32_t i = 0; i < end - start; ++i) {
    const std::uint32_t k = start + i;
    const unsigned o = i & mask;
    partial[o] = partial[o] + convert_value<Acc>(values[k]) * x[col_idx[k]];
  }
  for (unsigned offset = sub / 2; offset > 0; offset /= 2) {
    for (unsigned i = 0; i < offset; ++i) {
      partial[i] += partial[i + offset];
    }
  }
  return partial[0];
}

/// warp_segmented_inclusive_sum restricted to the first `count` lanes: the
/// Hillis-Steele passes give lane i a value that depends only on lanes <= i,
/// so lanes >= count (inactive in the kernel, never read by the caller) are
/// simply not computed.  In-place: the descending walk reads out[i - d]
/// before that slot is written in the same pass, exactly the `prev` copy the
/// kernel keeps.
template <typename Acc>
inline void native_segmented_inclusive_sum(Acc* out, gpusim::LaneMask heads,
                                           unsigned count) {
  unsigned seg[gpusim::kWarpSize];
  unsigned current = 0;
  for (unsigned i = 0; i < count; ++i) {
    if (gpusim::lane_active(heads, i)) {
      current = i;
    }
    seg[i] = current;
  }
  for (unsigned d = 1; d < count; d *= 2) {
    for (unsigned i = count; i-- > d;) {
      if (seg[i] <= i - d) {
        out[i] = out[i - d] + out[i];
      }
    }
  }
}

/// One adaptive work item: long rows take the vector path; short-row groups
/// form the per-lane products and reduce them with the same segmented
/// inclusive sum (and the same head-flag construction) as the kernel.
/// `Out` widens the final stores: the bitwise delta replay writes straight
/// into the double dose vector, where static_cast<double> is exactly the
/// full compute's float→double transform for Mode::kSingle.
template <typename Acc, typename MatV, typename IdxT, typename Out = Acc>
inline void native_adaptive_item(const std::uint32_t* row_ptr,
                                 const MatV* values, const IdxT* col_idx,
                                 const Acc* x, Out* y,
                                 const AdaptiveWorkItem& item) {
  if (item.long_row != 0) {
    const std::uint32_t row = item.row_begin;
    y[row] = static_cast<Out>(native_row_product(values, col_idx, x,
                                                 row_ptr[row],
                                                 row_ptr[row + 1]));
    return;
  }
  const std::uint32_t start = row_ptr[item.row_begin];
  const std::uint32_t end = row_ptr[item.row_end];
  const unsigned count = end - start;

  Acc incl[gpusim::kWarpSize];  // lanes >= count stay unread
  for (unsigned lane = 0; lane < count; ++lane) {
    const std::uint32_t k = start + lane;
    incl[lane] = convert_value<Acc>(values[k]) * x[col_idx[k]];
  }
  gpusim::LaneMask heads = 0;
  for (std::uint32_t r = item.row_begin; r < item.row_end; ++r) {
    const std::uint32_t rs = row_ptr[r];
    if (rs < end && rs >= start && row_ptr[r + 1] > rs) {
      heads |= (gpusim::LaneMask{1} << (rs - start));
    }
  }
  native_segmented_inclusive_sum(incl, heads, count);
  for (std::uint32_t r = item.row_begin; r < item.row_end; ++r) {
    const std::uint32_t rs = row_ptr[r];
    const std::uint32_t re = row_ptr[r + 1];
    y[r] = static_cast<Out>((re > rs) ? incl[re - 1 - start] : Acc{});
  }
}

/// Rowsplit phase 1: one chunk's partial sum, written to y (unsplit rows) or
/// to the chunk's fixed partial slot.  The chunk sum is the vector row loop
/// over [item.begin, item.end).
template <typename Acc, typename MatV, typename IdxT>
inline void native_rowsplit_item(const MatV* values, const IdxT* col_idx,
                                 const Acc* x, Acc* y, Acc* partials,
                                 const RowSplitPlan::WorkItem& item) {
  const Acc total =
      native_row_product(values, col_idx, x, item.begin, item.end);
  if (item.partial_slot < 0) {
    y[item.row] = total;
  } else {
    partials[item.partial_slot] = total;
  }
}

/// Rowsplit phase 2: fold one split row's partial slots with the same
/// 32-strided accumulation + butterfly as the kernel's second launch.
template <typename Acc>
inline Acc native_rowsplit_fold(const Acc* partials,
                                const RowSplitPlan::SplitRow& split) {
  const std::uint64_t first = split.first_slot;
  const std::uint64_t last = first + split.num_slots;
  if (split.num_slots <= gpusim::kWarpSize) {
    const auto n = static_cast<unsigned>(split.num_slots);
    Acc tmp[gpusim::kWarpSize];  // lanes >= n stay unread
    for (unsigned lane = 0; lane < n; ++lane) {
      tmp[lane] = Acc{} + partials[first + lane];
    }
    return native_reduce_tail(tmp, n);
  }
  gpusim::Lanes<Acc> acc{};
  for (std::uint64_t base = first; base < last; base += gpusim::kWarpSize) {
    const auto remaining = static_cast<unsigned>(
        std::min<std::uint64_t>(gpusim::kWarpSize, last - base));
    for (unsigned lane = 0; lane < remaining; ++lane) {
      acc[lane] = acc[lane] + partials[base + lane];
    }
  }
  return native_reduce_tail(&acc[0], gpusim::kWarpSize);
}

}  // namespace pd::kernels
