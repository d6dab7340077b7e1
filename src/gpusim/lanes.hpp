#pragma once
// Warp-level SPMD primitives.
//
// The simulator executes CUDA-style kernels *warp-synchronously*: a kernel
// body is written once per warp and operates on Lanes<T> — a register file
// holding one value per lane, the software analogue of a warp's view of a
// register.  Divergence is expressed with explicit LaneMasks, exactly the
// model CUDA cooperative groups expose (tiled_partition<32>, labeled
// participation masks).  This keeps lane-level memory access patterns — the
// thing the paper's analysis hinges on — bit-identical to the CUDA source.
// Warp reductions and scans fix the combination order of floating-point
// lanes; an unsigned scan, whose bits no order can change, takes the
// cheapest one.

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/error.hpp"

namespace pd::gpusim {

inline constexpr unsigned kWarpSize = 32;

/// Participation mask, one bit per lane (bit i = lane i active).
using LaneMask = std::uint32_t;
inline constexpr LaneMask kFullMask = 0xffffffffu;

constexpr bool lane_active(LaneMask m, unsigned lane) {
  return (m >> lane) & 1u;
}

/// Active-lane count, as a SWAR bit count: the library targets baseline
/// x86-64, which has no POPCNT, so __builtin_popcount would be a call into
/// libgcc on every simulated warp instruction; this stays inline.
constexpr unsigned popcount_mask(LaneMask m) {
  m = m - ((m >> 1) & 0x55555555u);
  m = (m & 0x33333333u) + ((m >> 2) & 0x33333333u);
  m = (m + (m >> 4)) & 0x0f0f0f0fu;
  return (m * 0x01010101u) >> 24;
}

/// Mask with the first n lanes active.
constexpr LaneMask first_lanes(unsigned n) {
  PD_ASSERT(n <= kWarpSize);
  return n >= kWarpSize ? kFullMask : ((LaneMask{1} << n) - 1u);
}

/// One register across all 32 lanes of a warp.
template <typename T>
struct Lanes {
  std::array<T, kWarpSize> v{};

  T& operator[](unsigned lane) { return v[lane]; }
  const T& operator[](unsigned lane) const { return v[lane]; }

  static Lanes broadcast(T x) {
    Lanes out;
    out.v.fill(x);
    return out;
  }

  /// The lane-index register (0, 1, ..., 31) — CUDA's threadIdx.x % 32.
  static Lanes<unsigned> lane_id() {
    Lanes<unsigned> out;
    for (unsigned i = 0; i < kWarpSize; ++i) out.v[i] = i;
    return out;
  }
};

/// Elementwise map over active lanes; inactive lanes keep `fill`.
template <typename R, typename T, typename Fn>
Lanes<R> lane_map(const Lanes<T>& x, LaneMask m, Fn&& fn, R fill = R{}) {
  Lanes<R> out = Lanes<R>::broadcast(fill);
  for (unsigned i = 0; i < kWarpSize; ++i) {
    if (lane_active(m, i)) out.v[i] = fn(x.v[i]);
  }
  return out;
}

/// Deterministic warp tree-reduction (add), the semantics of
/// cooperative_groups::reduce with plus<>: a fixed shfl_down butterfly
/// (offsets 16, 8, 4, 2, 1).  Inactive lanes contribute the additive
/// identity.  The fixed combination order is what makes the paper's kernel
/// bitwise reproducible run-to-run.
template <typename T>
T warp_reduce_add(const Lanes<T>& x, LaneMask m = kFullMask) {
  std::array<T, kWarpSize> tmp{};
  for (unsigned i = 0; i < kWarpSize; ++i) {
    tmp[i] = lane_active(m, i) ? x.v[i] : T{};
  }
  for (unsigned offset = kWarpSize / 2; offset > 0; offset /= 2) {
    for (unsigned i = 0; i < offset; ++i) {
      tmp[i] = tmp[i] + tmp[i + offset];
    }
  }
  return tmp[0];
}

/// Warp-wide inclusive segmented prefix data: head flags mark the first lane
/// of each segment.  Used by the adaptive (cuSPARSE-style) kernel to reduce
/// several short rows held by one warp, again in a fixed deterministic order,
/// and by the atomic baseline to turn row advances into row indices.
///
/// Floating-point lanes take the Hillis–Steele network, whose combination
/// order fixes their rounding.  Unsigned lanes take a running sum within each
/// segment: their addition is associative (modulo 2^bits), so it gives the
/// network's bits in a fraction of the steps.
template <typename T>
Lanes<T> warp_segmented_inclusive_sum(const Lanes<T>& x, LaneMask head_flags,
                                      LaneMask active = kFullMask) {
  Lanes<T> out;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    out.v[i] = lane_active(active, i) ? x.v[i] : T{};
  }
  if constexpr (std::is_unsigned_v<T>) {
    for (unsigned i = 1; i < kWarpSize; ++i) {
      if (!lane_active(head_flags, i)) {
        out.v[i] = static_cast<T>(out.v[i - 1] + out.v[i]);
      }
    }
    return out;
  }
  // Hillis–Steele with segment boundaries: lane i accumulates lane i-d unless
  // a segment head lies in (i-d, i].
  std::array<unsigned, kWarpSize> seg{};
  unsigned current = 0;
  for (unsigned i = 0; i < kWarpSize; ++i) {
    if (lane_active(head_flags, i)) current = i;
    seg[i] = current;
  }
  for (unsigned d = 1; d < kWarpSize; d *= 2) {
    Lanes<T> prev = out;
    for (unsigned i = kWarpSize; i-- > d;) {
      if (seg[i] <= i - d) {
        out.v[i] = prev.v[i - d] + prev.v[i];
      }
    }
  }
  return out;
}

}  // namespace pd::gpusim
