#pragma once
// WarpCtx — the programming surface kernels are written against.
//
// A kernel body is a callable `void(WarpCtx&)` invoked once per warp of the
// launch grid.  The context exposes the CUDA constructs the paper's Listing 1
// uses — per-lane loads/stores with real coalescing, cooperative-groups-style
// warp reductions with a fixed deterministic order, FP atomics — while
// threading every memory access through a MemRoute so the traffic counters
// correspond to what the kernel actually touched.
//
// The MemRoute decouples the kernel from the engine mode: under kSerial it
// feeds the MemoryModel inline; under kFunctionalOnly it holds no memory
// model and drops the traffic entirely — and WarpCtx then skips building the
// per-lane address vectors of gathers and scatters, which is where most of
// the functional-only speedup comes from.  Contiguous loads and stores never
// build them: they hand the route lane 0's address and the element size.
// Atomics, like gathers, hand the route all lane addresses in one request,
// which the memory model walks in lane order.
//
// All loads and stores operate on live host memory: the simulated kernels
// compute real results, which the test suite checks against references.

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "gpusim/lanes.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/simcheck.hpp"

namespace pd::gpusim {

/// Per-launch shared-memory counters (filled only by block-scope kernels).
struct SharedCounters {
  std::uint64_t accesses = 0;       ///< Warp-level shared ld/st instructions.
  std::uint64_t bank_conflicts = 0; ///< Extra serialized cycles from conflicts.

  SharedCounters& operator+=(const SharedCounters& o) {
    accesses += o.accesses;
    bank_conflicts += o.bank_conflicts;
    return *this;
  }
};

/// Arithmetic counters, accumulated per kernel launch.
struct ComputeCounters {
  std::uint64_t flops = 0;             ///< FP ops summed over *active* lanes.
  std::uint64_t warp_arith_instrs = 0; ///< Warp-level arithmetic instructions.
  std::uint64_t active_lane_ops = 0;   ///< Active lane-slots across instructions.
  std::uint64_t total_lane_ops = 0;    ///< 32 × warp instructions (SIMT denominator).

  /// SIMT lane utilization: 1.0 means no divergence / tail waste.
  double simt_efficiency() const {
    return total_lane_ops == 0
               ? 1.0
               : static_cast<double>(active_lane_ops) /
                     static_cast<double>(total_lane_ops);
  }

  ComputeCounters& operator+=(const ComputeCounters& o) {
    flops += o.flops;
    warp_arith_instrs += o.warp_arith_instrs;
    active_lane_ops += o.active_lane_ops;
    total_lane_ops += o.total_lane_ops;
    return *this;
  }
};

class WarpCtx {
 public:
  WarpCtx(MemRoute route, ComputeCounters& compute, std::uint64_t block_idx,
          unsigned warp_in_block, unsigned block_dim, std::uint64_t grid_dim)
      : route_(route),
        compute_(&compute),
        block_idx_(block_idx),
        warp_in_block_(warp_in_block),
        block_dim_(block_dim),
        grid_dim_(grid_dim) {}

  /// Legacy convenience: direct routing into a MemoryModel (serial engine,
  /// unit tests).
  WarpCtx(MemoryModel& mem, ComputeCounters& compute, std::uint64_t block_idx,
          unsigned warp_in_block, unsigned block_dim, std::uint64_t grid_dim)
      : WarpCtx(MemRoute::direct(mem), compute, block_idx, warp_in_block,
                block_dim, grid_dim) {}

  std::uint64_t block_idx() const { return block_idx_; }
  unsigned block_dim() const { return block_dim_; }
  std::uint64_t grid_dim() const { return grid_dim_; }
  unsigned warps_per_block() const { return block_dim_ / kWarpSize; }

  /// Linear warp id across the whole grid (the paper's `row` index).
  std::uint64_t global_warp_id() const {
    return block_idx_ * warps_per_block() + warp_in_block_;
  }

  /// Global id of this warp's lane 0 (threadIdx-based row assignment).
  std::uint64_t global_thread_base() const {
    return global_warp_id() * kWarpSize;
  }

  // --- Memory operations -------------------------------------------------

  /// Uniform load: one lane reads, value broadcast warp-wide (e.g. the
  /// row_ptr bounds in Listing 1).
  template <typename T>
  T load_uniform(const T* p) {
    if (CheckContext* chk = route_.check()) {
      chk->global_access(reinterpret_cast<std::uint64_t>(p), sizeof(T),
                         /*write=*/false, block_idx_, warp_in_block_, 0);
    }
    route_.scalar_access(reinterpret_cast<std::uint64_t>(p), sizeof(T),
                         /*write=*/false);
    note_instr(1);
    return *p;
  }

  /// Contiguous warp load: lane i reads base[start + i] for active lanes —
  /// the coalesced access pattern the vector-CSR kernel is built around.
  /// The memory model sees one request over the lanes' element range.
  template <typename T>
  Lanes<T> load_contiguous(const T* base, std::uint64_t start, LaneMask mask) {
    if (CheckContext* chk = route_.check()) {
      check_contiguous(chk, base + start, sizeof(T), mask, /*write=*/false);
    }
    Lanes<T> out{};
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        out[i] = base[start + i];
      }
    }
    route_.contiguous_access(reinterpret_cast<std::uint64_t>(base + start),
                             sizeof(T), mask, /*write=*/false);
    note_instr(popcount_mask(mask));
    return out;
  }

  /// Indexed gather: lane i reads base[idx[i]] (the input-vector access).
  template <typename T, typename I>
  Lanes<T> gather(const T* base, const Lanes<I>& idx, LaneMask mask) {
    if (CheckContext* chk = route_.check()) {
      check_indexed(chk, base, idx, mask, /*write=*/false);
    }
    Lanes<T> out{};
    if (route_.functional_only()) {
      for (unsigned i = 0; i < kWarpSize; ++i) {
        if (lane_active(mask, i)) {
          out[i] = base[idx[i]];
        }
      }
      note_instr(popcount_mask(mask));
      return out;
    }
    Lanes<std::uint64_t> addr;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        addr[i] = reinterpret_cast<std::uint64_t>(base + idx[i]);
        out[i] = base[idx[i]];
      }
    }
    route_.warp_access(addr, sizeof(T), mask, /*write=*/false);
    note_instr(popcount_mask(mask));
    return out;
  }

  /// Single-lane store (lane 0 writes the per-row result).
  template <typename T>
  void store_uniform(T* p, T value) {
    if (CheckContext* chk = route_.check()) {
      chk->global_access(reinterpret_cast<std::uint64_t>(p), sizeof(T),
                         /*write=*/true, block_idx_, warp_in_block_, 0);
    }
    *p = value;
    route_.scalar_access(reinterpret_cast<std::uint64_t>(p), sizeof(T),
                         /*write=*/true);
    note_instr(1);
  }

  /// Contiguous warp store: lane i writes base[start + i].
  template <typename T>
  void store_contiguous(T* base, std::uint64_t start, const Lanes<T>& val,
                        LaneMask mask) {
    if (CheckContext* chk = route_.check()) {
      check_contiguous(chk, base + start, sizeof(T), mask, /*write=*/true);
    }
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        base[start + i] = val[i];
      }
    }
    route_.contiguous_access(reinterpret_cast<std::uint64_t>(base + start),
                             sizeof(T), mask, /*write=*/true);
    note_instr(popcount_mask(mask));
  }

  /// Indexed scatter store: lane i writes base[idx[i]] = val[i].  Callers are
  /// responsible for index disjointness (racing plain stores would be UB on
  /// real hardware too).
  template <typename T, typename I>
  void scatter(T* base, const Lanes<I>& idx, const Lanes<T>& val, LaneMask mask) {
    if (CheckContext* chk = route_.check()) {
      check_indexed(chk, base, idx, mask, /*write=*/true);
    }
    if (route_.functional_only()) {
      for (unsigned i = 0; i < kWarpSize; ++i) {
        if (lane_active(mask, i)) {
          base[idx[i]] = val[i];
        }
      }
      note_instr(popcount_mask(mask));
      return;
    }
    Lanes<std::uint64_t> addr;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        addr[i] = reinterpret_cast<std::uint64_t>(base + idx[i]);
        base[idx[i]] = val[i];
      }
    }
    route_.warp_access(addr, sizeof(T), mask, /*write=*/true);
    note_instr(popcount_mask(mask));
  }

  /// Per-lane atomicAdd scatter: lane i does atomicAdd(&base[idx[i]], val[i]).
  /// Lanes apply in lane order within the warp; *across* warps the order is
  /// whatever block schedule the launch used — which is exactly why kernels
  /// built on this primitive are not bitwise reproducible (paper §II-D).
  /// When the engine runs blocks concurrently (functional-only, so there is
  /// no traffic to count) the addition uses a real atomic RMW, mirroring
  /// hardware: race-free totals, nondeterministic FP order.  Otherwise the
  /// memory model sees one warp atomic request over the lanes' addresses.
  template <typename T, typename I>
  void atomic_add_scatter(T* base, const Lanes<I>& idx, const Lanes<T>& val,
                          LaneMask mask) {
    if (CheckContext* chk = route_.check()) {
      check_indexed(chk, base, idx, mask, /*write=*/true);
      if constexpr (std::is_floating_point_v<T>) {
        for (unsigned i = 0; i < kWarpSize; ++i) {
          if (lane_active(mask, i)) {
            chk->fp_atomic(reinterpret_cast<std::uint64_t>(base + idx[i]),
                           block_idx_, warp_in_block_);
            break;  // one mark per instruction; the lint dedups per launch
          }
        }
      }
    }
    if constexpr (std::is_arithmetic_v<T>) {
      if (route_.concurrent()) {
        for (unsigned i = 0; i < kWarpSize; ++i) {
          if (lane_active(mask, i)) {
            std::atomic_ref<T>(base[idx[i]])
                .fetch_add(val[i], std::memory_order_relaxed);
          }
        }
        note_instr(popcount_mask(mask));
        return;
      }
    }
    if (route_.functional_only()) {
      for (unsigned i = 0; i < kWarpSize; ++i) {
        if (lane_active(mask, i)) {
          base[idx[i]] += val[i];
        }
      }
      note_instr(popcount_mask(mask));
      return;
    }
    Lanes<std::uint64_t> addr;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        addr[i] = reinterpret_cast<std::uint64_t>(base + idx[i]);
        base[idx[i]] += val[i];
      }
    }
    route_.warp_atomic_access(addr, sizeof(T), mask);
    note_instr(popcount_mask(mask));
  }

  // --- Shared memory (block-scope kernels only) ---------------------------

  /// Attach the block's shared-memory counters (done by BlockCtx).
  void attach_shared(SharedCounters* counters) { shared_ = counters; }

  /// Indexed load from block-shared storage.  On-chip: no L2/DRAM traffic,
  /// but lanes whose addresses fall in the same 4-byte-word bank serialize
  /// (32 banks, broadcast of identical words is free).
  template <typename T, typename I>
  Lanes<T> shared_gather(const T* base, const Lanes<I>& idx, LaneMask mask) {
    PD_CHECK_MSG(shared_ != nullptr,
                 "shared access outside a block-scope kernel");
    if (CheckContext* chk = route_.check()) {
      check_shared(chk, base, idx, mask, /*write=*/false);
    }
    Lanes<T> out{};
    count_bank_conflicts(base, idx, mask);
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        out[i] = base[idx[i]];
      }
    }
    note_instr(popcount_mask(mask));
    return out;
  }

  /// Indexed store to block-shared storage.
  template <typename T, typename I>
  void shared_scatter(T* base, const Lanes<I>& idx, const Lanes<T>& val,
                      LaneMask mask) {
    PD_CHECK_MSG(shared_ != nullptr,
                 "shared access outside a block-scope kernel");
    if (CheckContext* chk = route_.check()) {
      check_shared(chk, base, idx, mask, /*write=*/true);
    }
    count_bank_conflicts(base, idx, mask);
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        base[idx[i]] = val[i];
      }
    }
    note_instr(popcount_mask(mask));
  }

  /// Barrier-participation mark for __syncthreads().  Free when checking is
  /// disabled (the simulator's for_each_warp phases already provide the
  /// execution barrier); under synccheck a partial `mask` is divergent by
  /// definition, and per-warp sync counts must match within each phase.
  void sync(LaneMask mask = kFullMask) {
    if (CheckContext* chk = route_.check()) {
      chk->sync_mark(block_idx_, warp_in_block_, mask);
    }
  }

  // --- Arithmetic accounting ---------------------------------------------

  /// Record non-FP work (integer prefix sums, shuffles, predicate math):
  /// consumes issue slots and SIMT lanes but does NOT count toward the FLOP
  /// total that normalizes GFLOP/s — the paper counts 2·nnz useful FLOPs.
  void count_instrs(unsigned instrs_per_lane, LaneMask mask) {
    const unsigned active = popcount_mask(mask);
    compute_->warp_arith_instrs += instrs_per_lane;
    compute_->active_lane_ops +=
        static_cast<std::uint64_t>(instrs_per_lane) * active;
    compute_->total_lane_ops +=
        static_cast<std::uint64_t>(instrs_per_lane) * kWarpSize;
  }

  /// Record `flops_per_lane` FP operations executed by each active lane in
  /// one warp instruction (e.g. 2 for a fused multiply-add).
  void count_flops(unsigned flops_per_lane, LaneMask mask) {
    const unsigned active = popcount_mask(mask);
    compute_->flops += static_cast<std::uint64_t>(flops_per_lane) * active;
    compute_->warp_arith_instrs += flops_per_lane;
    compute_->active_lane_ops +=
        static_cast<std::uint64_t>(flops_per_lane) * active;
    compute_->total_lane_ops +=
        static_cast<std::uint64_t>(flops_per_lane) * kWarpSize;
  }

  /// Deterministic warp reduction (cooperative_groups::reduce, plus<>).
  /// The 5-step shfl butterfly is counted as arithmetic work.
  template <typename T>
  T reduce_add(const Lanes<T>& x, LaneMask mask = kFullMask) {
    compute_->warp_arith_instrs += 5;
    compute_->active_lane_ops += 5ull * kWarpSize;
    compute_->total_lane_ops += 5ull * kWarpSize;
    return warp_reduce_add(x, mask);
  }

 private:
  // --- simcheck hook helpers: per-lane address reporting ------------------
  template <typename T>
  void check_contiguous(CheckContext* chk, const T* first, unsigned size,
                        LaneMask mask, bool write) {
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        chk->global_access(reinterpret_cast<std::uint64_t>(first + i), size,
                           write, block_idx_, warp_in_block_, i);
      }
    }
  }

  template <typename T, typename I>
  void check_indexed(CheckContext* chk, const T* base, const Lanes<I>& idx,
                     LaneMask mask, bool write) {
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        chk->global_access(reinterpret_cast<std::uint64_t>(base + idx[i]),
                           sizeof(T), write, block_idx_, warp_in_block_, i);
      }
    }
  }

  template <typename T, typename I>
  void check_shared(CheckContext* chk, const T* base, const Lanes<I>& idx,
                    LaneMask mask, bool write) {
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        chk->shared_access(reinterpret_cast<std::uint64_t>(base + idx[i]),
                           sizeof(T), write, block_idx_, warp_in_block_, i);
      }
    }
  }

  template <typename T, typename I>
  void count_bank_conflicts(const T* base, const Lanes<I>& idx, LaneMask mask) {
    ++shared_->accesses;
    // 32 banks of 4-byte words; lanes touching different words in the same
    // bank serialize, identical words broadcast for free.
    std::array<std::uint64_t, kWarpSize> words{};
    unsigned n = 0;
    for (unsigned i = 0; i < kWarpSize; ++i) {
      if (lane_active(mask, i)) {
        words[n++] =
            reinterpret_cast<std::uint64_t>(base + idx[i]) / 4;
      }
    }
    for (unsigned bank = 0; bank < kWarpSize; ++bank) {
      std::uint64_t distinct = 0;
      std::array<std::uint64_t, kWarpSize> seen{};
      for (unsigned i = 0; i < n; ++i) {
        if (words[i] % kWarpSize != bank) {
          continue;
        }
        bool duplicate = false;
        for (std::uint64_t j = 0; j < distinct; ++j) {
          if (seen[j] == words[i]) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          seen[distinct++] = words[i];
        }
      }
      if (distinct > 1) {
        shared_->bank_conflicts += distinct - 1;
      }
    }
  }

  void note_instr(unsigned active_lanes) {
    ++compute_->warp_arith_instrs;  // address generation / ld-st issue slot
    compute_->active_lane_ops += active_lanes;
    compute_->total_lane_ops += kWarpSize;
  }

  MemRoute route_;
  ComputeCounters* compute_;
  SharedCounters* shared_ = nullptr;
  std::uint64_t block_idx_;
  unsigned warp_in_block_;
  unsigned block_dim_;
  std::uint64_t grid_dim_;
};

}  // namespace pd::gpusim
