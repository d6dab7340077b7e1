#pragma once
// Kernel launch engine.
//
// Gpu::run executes a warp-level kernel across a launch grid with an optional
// *schedule seed* that permutes block execution order.  Real GPUs give no
// ordering guarantee between blocks; permuting the order lets tests
// demonstrate the paper's §II-D reproducibility argument concretely: kernels
// whose warps only touch disjoint outputs return bitwise-identical results
// under every schedule, while the atomic-based GPU Baseline does not.
//
// Two engine modes (EngineOptions::mode):
//
//  * kSerial — one pass on the calling thread: each warp executes and its
//    memory requests probe the L2 model inline, block by block in schedule
//    order.  The only mode that produces traffic counters.
//  * kFunctionalOnly — real kernel results and arithmetic counters, zero
//    traffic simulation.  For callers that never look at the memory
//    counters (optimizer inner loops) this skips the coalescer, the cache
//    and even address generation.  Given more than one execution context
//    (EngineOptions::phase1_threads) the blocks run concurrently on a
//    thread pool.
//
// Both modes share one schedule-order loop; only an unchecked functional-only
// launch with more than one execution context leaves it.
//
// Determinism of the counters: ComputeCounters / SharedCounters are sums of
// unsigned per-block contributions (addition is associative and commutative,
// so the execution order cannot leak in).  FP atomics under a concurrent
// launch use real atomic RMW — race-free totals with nondeterministic
// addition order, exactly the §II-D behavior of hardware atomics (the
// schedule-order loop keeps the application order the tests pin).

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/block.hpp"
#include "gpusim/device.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/pool.hpp"
#include "gpusim/simcheck.hpp"
#include "gpusim/warp.hpp"

namespace pd::gpusim {

/// Launch geometry plus the per-thread register count the compiler would
/// report (feeds the occupancy calculator; measured per kernel variant).
struct LaunchConfig {
  unsigned threads_per_block = 512;
  std::uint64_t num_blocks = 0;
  unsigned regs_per_thread = 40;

  unsigned warps_per_block() const { return threads_per_block / kWarpSize; }
  std::uint64_t total_warps() const { return num_blocks * warps_per_block(); }

  /// Grid sized so that total threads = kWarpSize * work_items — the paper's
  /// "total number of threads is 32 times the number of rows".
  static LaunchConfig warp_per_item(std::uint64_t work_items,
                                    unsigned threads_per_block,
                                    unsigned regs_per_thread) {
    PD_CHECK_MSG(threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of the warp size");
    LaunchConfig cfg;
    cfg.threads_per_block = threads_per_block;
    cfg.regs_per_thread = regs_per_thread;
    const unsigned wpb = cfg.warps_per_block();
    cfg.num_blocks = (work_items + wpb - 1) / wpb;
    return cfg;
  }
};

/// Everything the launch measured: traffic, arithmetic, geometry.
struct KernelStats {
  TrafficCounters traffic;
  ComputeCounters compute;
  SharedCounters shared;
  std::uint64_t blocks_launched = 0;
  std::uint64_t warps_launched = 0;

  double flops() const { return static_cast<double>(compute.flops); }
  double dram_bytes() const { return static_cast<double>(traffic.dram_bytes()); }
  /// Measured operational intensity (FLOP per DRAM byte) — the x-axis of the
  /// paper's Figure 3 roofline.
  double operational_intensity() const {
    return traffic.dram_bytes() == 0 ? 0.0
                                     : flops() / dram_bytes();
  }
};

/// How Gpu::run / run_blocks executes a launch.
enum class TraceMode {
  kSerial,          ///< Execute + cache-simulate inline, in schedule order.
  kFunctionalOnly,  ///< Real results, no traffic simulation.
};

inline const char* to_string(TraceMode mode) {
  switch (mode) {
    case TraceMode::kSerial:
      return "serial";
    case TraceMode::kFunctionalOnly:
      return "functional_only";
  }
  return "unknown";
}

/// How the engine executes launches.  phase1_threads is the number of
/// execution contexts a kFunctionalOnly launch runs its blocks on (0 = all
/// hardware threads); kSerial launches always run on the calling thread.
struct EngineOptions {
  TraceMode mode = TraceMode::kSerial;
  unsigned phase1_threads = 0;
};

/// A simulated device: spec + memory hierarchy + launch loop.
class Gpu {
 public:
  explicit Gpu(DeviceSpec spec) : spec_(std::move(spec)), mem_(spec_) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Cold-start the cache so back-to-back measurements are independent.
  void invalidate_cache() { mem_.invalidate_cache(); }

  /// Select the engine mode for subsequent launches.
  void set_engine(const EngineOptions& opts) {
    opts_ = opts;
    pool_.reset();  // rebuilt lazily for the new thread count
  }
  const EngineOptions& engine() const { return opts_; }

  /// Route the serial engine through the seed (reference) coalescer and cache
  /// scan — the differential-testing oracle and bench baseline.
  void set_reference_memory_path(bool on) { mem_.set_reference_path(on); }

  /// Enable the simcheck analyzer for subsequent launches (memcheck /
  /// racecheck / synccheck / initcheck / determinism-lint, narrowable via
  /// `cfg`).  Checked launches run on the calling thread — the shadow state
  /// is not thread-safe and serial order keeps findings deterministic —
  /// but every counter and kernel result stays bitwise identical.
  void enable_check(const CheckConfig& cfg = CheckConfig::all()) {
    check_ = std::make_unique<CheckContext>(cfg);
  }
  void disable_check() { check_.reset(); }

  /// The active analyzer, or nullptr when checking is disabled.  Kernel
  /// launchers use this to register their buffer tables.
  CheckContext* check() { return check_.get(); }
  bool check_enabled() const { return check_ != nullptr; }

  /// Findings accumulated across every checked launch since enable_check /
  /// the last clear.  Requires checking to be enabled.
  const CheckReport& check_report() const {
    PD_CHECK_MSG(check_ != nullptr,
                 "check_report: simcheck is not enabled on this Gpu");
    return check_->report();
  }

  /// Execute `warp_fn(WarpCtx&)` for every warp of the grid.  Blocks run in
  /// ascending order when schedule_seed == 0, otherwise in a seeded random
  /// permutation (modeling the hardware's unordered block scheduling).
  ///
  /// The L2 is cold-started for each launch (`cold_cache`): the paper's
  /// matrices are hundreds of times larger than any L2 and self-evict every
  /// iteration, so a launch never benefits from the previous one's matrix
  /// lines; starting cold keeps the scaled-down measurements faithful to
  /// that streaming regime.
  template <typename Fn>
  KernelStats run(const LaunchConfig& cfg, Fn&& warp_fn,
                  std::uint64_t schedule_seed = 0, bool cold_cache = true) {
    PD_CHECK_MSG(cfg.threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of 32");
    PD_CHECK_MSG(cfg.threads_per_block <= spec_.max_threads_per_block,
                 "threads_per_block exceeds the device limit");
    PD_CHECK_MSG(cfg.num_blocks > 0, "empty grid");

    const unsigned wpb = cfg.warps_per_block();
    auto run_block = [&](MemRoute route, ComputeCounters& compute,
                         std::uint64_t block) {
      for (unsigned w = 0; w < wpb; ++w) {
        WarpCtx ctx(route, compute, block, w, cfg.threads_per_block,
                    cfg.num_blocks);
        warp_fn(ctx);
      }
    };
    return launch(cfg, run_block, schedule_seed, cold_cache);
  }

  /// Execute a block-scope kernel: `block_fn(BlockCtx&)` runs once per
  /// block and coordinates its warps through shared memory and barrier
  /// phases (see gpusim/block.hpp).  Scheduling semantics match run().
  template <typename Fn>
  KernelStats run_blocks(const LaunchConfig& cfg, Fn&& block_fn,
                         std::uint64_t schedule_seed = 0,
                         bool cold_cache = true) {
    PD_CHECK_MSG(cfg.threads_per_block % kWarpSize == 0,
                 "threads_per_block must be a multiple of 32");
    PD_CHECK_MSG(cfg.num_blocks > 0, "empty grid");

    std::vector<SharedCounters> shared(cfg.num_blocks);
    auto run_block = [&](MemRoute route, ComputeCounters& compute,
                         std::uint64_t block) {
      BlockCtx ctx(route, compute, shared[block], block, cfg.threads_per_block,
                   cfg.num_blocks, spec_.shared_bytes_per_block);
      block_fn(ctx);
    };
    KernelStats stats = launch(cfg, run_block, schedule_seed, cold_cache);
    for (const SharedCounters& s : shared) {
      stats.shared += s;
    }
    return stats;
  }

 private:
  /// Blocks in launch order: ascending, or a seeded permutation.
  static std::vector<std::uint64_t> block_order(std::uint64_t num_blocks,
                                                std::uint64_t schedule_seed) {
    std::vector<std::uint64_t> order(num_blocks);
    std::iota(order.begin(), order.end(), 0);
    if (schedule_seed != 0) {
      Rng rng(schedule_seed);
      rng.shuffle(order.data(), order.size());
    }
    return order;
  }

  ThreadPool& pool(unsigned contexts) {
    if (!pool_) {
      pool_ = std::make_unique<ThreadPool>(contexts - 1);
    }
    return *pool_;
  }

  /// The launch loop shared by run() and run_blocks().  `run_block` executes
  /// one block's warps against a MemRoute, accumulating into the given
  /// ComputeCounters.
  template <typename RunBlock>
  KernelStats launch(const LaunchConfig& cfg, RunBlock&& run_block,
                     std::uint64_t schedule_seed, bool cold_cache) {
    KernelStats stats;
    stats.blocks_launched = cfg.num_blocks;
    stats.warps_launched = cfg.total_warps();

    if (check_) {
      check_->begin_launch(cfg.num_blocks, cfg.warps_per_block());
    }

    const bool simulate = opts_.mode == TraceMode::kSerial;
    // Checked launches run serially: the shadow state is not thread-safe,
    // and serial schedule order keeps findings (and FP atomic application)
    // deterministic.  Counters are parallelism-invariant, so nothing
    // observable changes.
    const unsigned contexts =
        simulate || check_ ? 1 : resolve_phase1_threads(opts_.phase1_threads);
    if (contexts > 1 && cfg.num_blocks > 1) {
      std::vector<ComputeCounters> compute(cfg.num_blocks);
      MemRoute route = MemRoute::functional();
      route.set_concurrent(true);
      pool(contexts).parallel_for(cfg.num_blocks, [&](std::size_t block) {
        run_block(route, compute[block], static_cast<std::uint64_t>(block));
      });
      for (const ComputeCounters& c : compute) {
        stats.compute += c;
      }
    } else {
      // One pass in schedule order: kSerial probes the L2 inline, and FP
      // atomics apply in the same order in both modes.
      MemRoute route =
          simulate ? MemRoute::direct(mem_) : MemRoute::functional();
      route.set_check(check_.get());
      if (simulate) {
        if (cold_cache) {
          mem_.invalidate_cache();
        }
        mem_.begin_kernel();
      }
      for (const std::uint64_t block :
           block_order(cfg.num_blocks, schedule_seed)) {
        run_block(route, stats.compute, block);
      }
      if (simulate) {
        stats.traffic = mem_.end_kernel();
      }
    }

    if (check_) {
      check_->end_launch();
    }
    return stats;
  }

  DeviceSpec spec_;
  MemoryModel mem_;
  EngineOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<CheckContext> check_;
};

}  // namespace pd::gpusim
