// Tests for gpusim::simcheck, the compute-sanitizer-style analyzer.
//
// Two-sided contract:
//  * no false positives — every production kernel family runs clean under
//    full checking, in every TraceMode;
//  * no misses — each deliberately buggy micro-kernel below triggers
//    exactly its intended violation class and nothing else.
//
// The micro-kernels are memory-safe on the host even though they are wrong
// by the simulator's rules: "out-of-bounds" accesses land inside a real
// allocation of which only a prefix is registered, shared reads target
// zero-filled checked arenas, and the shared-OOB case hands the kernel a
// host array that simply is not a registered arena.

#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/launch.hpp"
#include "kernels/adaptive_csr.hpp"
#include "kernels/baseline_gpu.hpp"
#include "kernels/classical_csr.hpp"
#include "kernels/rowsplit_csr.hpp"
#include "kernels/stream_csr.hpp"
#include "kernels/vector_csr.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"

namespace pd::kernels {
namespace {

using gpusim::BlockCtx;
using gpusim::CheckConfig;
using gpusim::EngineOptions;
using gpusim::Gpu;
using gpusim::kFullMask;
using gpusim::kWarpSize;
using gpusim::Lanes;
using gpusim::TraceMode;
using gpusim::ViolationKind;
using gpusim::WarpCtx;

const EngineOptions kAllModes[] = {
    {TraceMode::kSerial, 0},
    {TraceMode::kFunctionalOnly, 2},
};

/// Assert the report holds `n` findings, all of kind `kind`.
void expect_only(const Gpu& gpu, ViolationKind kind, std::uint64_t n) {
  const auto& rep = gpu.check_report();
  EXPECT_EQ(rep.count(kind), n) << rep.summary();
  EXPECT_EQ(rep.violations.size(), n) << rep.summary();
  EXPECT_EQ(rep.suppressed, 0u);
}

// --- no false positives: every kernel family runs clean ----------------------

struct CleanProblem {
  sparse::CsrF64 A;
  std::vector<double> x;
  std::vector<double> y;
};

CleanProblem clean_problem(std::uint64_t seed) {
  Rng rng(seed);
  CleanProblem p;
  p.A = sparse::random_csr(rng, 250, 90, 12.0, sparse::RandomStructure::kSkewed);
  p.x = sparse::random_vector(rng, p.A.num_cols);
  p.y.assign(p.A.num_rows, 0.0);
  return p;
}

TEST(SimcheckClean, VectorCsrAllModes) {
  CleanProblem p = clean_problem(10);
  const auto mh = sparse::convert_values<pd::Half>(p.A);
  for (const EngineOptions& opts : kAllModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu gpu(gpusim::make_a100());
    gpu.set_engine(opts);
    gpu.enable_check();
    run_vector_csr<pd::Half, double>(gpu, mh, p.x, std::span<double>(p.y));
    EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
    EXPECT_EQ(gpu.check_report().launches_checked, 1u);
  }
}

TEST(SimcheckClean, ClassicalCsrAllModes) {
  CleanProblem p = clean_problem(11);
  for (const EngineOptions& opts : kAllModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu gpu(gpusim::make_a100());
    gpu.set_engine(opts);
    gpu.enable_check();
    run_classical_csr<double, double, std::uint32_t>(gpu, p.A, p.x,
                                                     std::span<double>(p.y));
    EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
  }
}

TEST(SimcheckClean, RowSplitCsrAllModes) {
  // Denser skewed matrix so the plan genuinely splits rows (two launches
  // sharing the partials buffer — the multi-launch shadow path).
  Rng rng(12);
  CleanProblem p;
  p.A = sparse::random_csr(rng, 250, 120, 40.0,
                           sparse::RandomStructure::kSkewed);
  p.x = sparse::random_vector(rng, p.A.num_cols);
  p.y.assign(p.A.num_rows, 0.0);
  const auto plan = build_row_split_plan(p.A, 64);
  ASSERT_GT(plan.split_rows.size(), 0u);
  for (const EngineOptions& opts : kAllModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu gpu(gpusim::make_a100());
    gpu.set_engine(opts);
    gpu.enable_check();
    run_rowsplit_csr<double, double>(gpu, p.A, plan, p.x,
                                     std::span<double>(p.y));
    EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
    // Row-split issues two launches (chunk kernel + combine kernel).
    EXPECT_EQ(gpu.check_report().launches_checked, 2u);
  }
}

TEST(SimcheckClean, AdaptiveCsrAllModes) {
  CleanProblem p = clean_problem(13);
  const auto worklist = build_adaptive_worklist(p.A);
  for (const EngineOptions& opts : kAllModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu gpu(gpusim::make_a100());
    gpu.set_engine(opts);
    gpu.enable_check();
    run_adaptive_csr<double, double, std::uint32_t>(gpu, p.A, worklist, p.x,
                                                    std::span<double>(p.y));
    EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
  }
}

TEST(SimcheckClean, StreamCsrSharedMemoryKernel) {
  // The run_blocks family: shared tiles, barrier phases, segmented sums.
  CleanProblem p = clean_problem(14);
  const auto plan = build_stream_plan(p.A, 512);
  for (const EngineOptions& opts : kAllModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu gpu(gpusim::make_a100());
    gpu.set_engine(opts);
    gpu.enable_check();
    run_stream_csr<double, double>(gpu, p.A, plan, p.x,
                                   std::span<double>(p.y));
    EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
  }
}

TEST(SimcheckClean, BaselineGpuFlagsOnlyTheAtomicLint) {
  // The unordered-atomics baseline is the kernel the determinism lint
  // exists for: its one finding must be the lint, nothing else.
  CleanProblem p = clean_problem(15);
  const rsformat::RsMatrix rs = rsformat::RsMatrix::from_csr(p.A);
  std::vector<double> x(rs.num_cols(), 1.0);
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_baseline_gpu(gpu, rs, x, std::span<double>(p.y));
  expect_only(gpu, ViolationKind::kNonDeterministicAtomic, 1);
  EXPECT_EQ(gpu.check_report().violations[0].buffer, "y");
}

// --- memcheck ----------------------------------------------------------------

/// One warp, lane 0 gathers/scatters `index` against `base`, with only a
/// 32-double prefix of the 64-double allocation registered.
template <bool kWrite>
void run_prefix_access(Gpu& gpu, std::uint64_t index,
                       std::size_t registered_bytes = 32 * sizeof(double)) {
  std::vector<double> v(64, 1.0);
  gpu.check()->clear_tracking();
  gpu.check()->track_global(v.data(), registered_bytes, "v",
                            /*initialized=*/true);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    idx[0] = index;
    if constexpr (kWrite) {
      Lanes<double> val{};
      w.scatter(v.data(), idx, val, 0x1u);
    } else {
      w.gather(v.data(), idx, 0x1u);
    }
  });
}

TEST(SimcheckMemcheck, FlagsOutOfBoundsRead) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_prefix_access<false>(gpu, 40);  // past the registered window
  expect_only(gpu, ViolationKind::kGlobalOutOfBounds, 1);
  const auto& v = gpu.check_report().violations[0];
  EXPECT_EQ(v.lane, 0u);
  EXPECT_NE(v.detail.find("read"), std::string::npos) << v.detail;
}

TEST(SimcheckMemcheck, FlagsOutOfBoundsWrite) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_prefix_access<true>(gpu, 40);
  expect_only(gpu, ViolationKind::kGlobalOutOfBounds, 1);
  EXPECT_NE(gpu.check_report().violations[0].detail.find("write"),
            std::string::npos);
}

TEST(SimcheckMemcheck, FlagsAccessStraddlingBufferEnd) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  // Register 31.5 doubles: element 31 begins inside but runs off the end.
  run_prefix_access<false>(gpu, 31, 32 * sizeof(double) - 4);
  expect_only(gpu, ViolationKind::kGlobalOutOfBounds, 1);
  EXPECT_EQ(gpu.check_report().violations[0].buffer, "v");
  EXPECT_NE(gpu.check_report().violations[0].detail.find("straddles"),
            std::string::npos);
}

TEST(SimcheckMemcheck, InBoundsAccessesAreClean) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_prefix_access<false>(gpu, 31);  // last registered element
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

TEST(SimcheckMemcheck, UnregisteredLaunchIsNotChecked) {
  // An empty registration table means "no information", not "everything is
  // out of bounds" — ad-hoc launches must not drown in false positives.
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> v(8, 0.0);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    w.gather(v.data(), idx, 0x1u);
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

TEST(SimcheckMemcheck, SharedAccessOutsideAnyArena) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> not_shared(8, 0.0);
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 32;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    block.shared_alloc<double>(8);  // a real arena exists, but is not used
    block.for_each_warp([&](WarpCtx& w) {
      Lanes<std::uint64_t> idx{};
      w.shared_gather(not_shared.data(), idx, 0x1u);
    });
  });
  expect_only(gpu, ViolationKind::kSharedOutOfBounds, 1);
}

// --- initcheck ---------------------------------------------------------------

TEST(SimcheckInitcheck, FlagsReadOfUnwrittenOutput) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> y(64, 0.0);
  gpu.check()->clear_tracking();
  gpu.check()->track_global(y.data(), y.size() * sizeof(double), "y",
                            /*initialized=*/false);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    idx[0] = 3;
    w.gather(y.data(), idx, 0x1u);  // read-before-write on an output
  });
  expect_only(gpu, ViolationKind::kUninitRead, 1);
  EXPECT_EQ(gpu.check_report().violations[0].buffer, "y");
}

TEST(SimcheckInitcheck, WriteThenReadIsClean) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> y(64, 0.0);
  gpu.check()->clear_tracking();
  gpu.check()->track_global(y.data(), y.size() * sizeof(double), "y",
                            /*initialized=*/false);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    idx[0] = 3;
    Lanes<double> val{};
    w.scatter(y.data(), idx, val, 0x1u);
    w.gather(y.data(), idx, 0x1u);
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

TEST(SimcheckInitcheck, FlagsReadOfUnwrittenSharedSlot) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 32;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    double* tile = block.shared_alloc<double>(8);
    block.for_each_warp([&](WarpCtx& w) {
      Lanes<std::uint64_t> idx{};
      idx[0] = 5;  // never written; checked arenas are zero-filled, so the
      w.shared_gather(tile, idx, 0x1u);  // read itself is well-defined
    });
  });
  expect_only(gpu, ViolationKind::kUninitRead, 1);
}

// --- racecheck ---------------------------------------------------------------

TEST(SimcheckRacecheck, FlagsWriteWriteRace) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;  // 2 warps
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    double* tile = block.shared_alloc<double>(8);
    block.for_each_warp([&](WarpCtx& w) {
      Lanes<std::uint64_t> idx{};
      Lanes<double> val{};
      w.shared_scatter(tile, idx, val, 0x1u);  // both warps write tile[0]
    });
  });
  expect_only(gpu, ViolationKind::kSharedRace, 1);
  EXPECT_EQ(gpu.check_report().violations[0].warp, 1u);
}

TEST(SimcheckRacecheck, FlagsReadWriteRace) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    double* tile = block.shared_alloc<double>(8);
    block.for_each_warp([&](WarpCtx& w) {
      Lanes<std::uint64_t> idx{};
      if (w.global_warp_id() % 2 == 0) {
        Lanes<double> val{};
        w.shared_scatter(tile, idx, val, 0x1u);  // warp 0 writes tile[0]
      } else {
        w.shared_gather(tile, idx, 0x1u);  // warp 1 reads it, no barrier
      }
    });
  });
  expect_only(gpu, ViolationKind::kSharedRace, 1);
}

TEST(SimcheckRacecheck, BarrierSeparatedWritesAreClean) {
  // Warp 0 writes before its barrier, warp 1 after its barrier: the sync
  // count is part of the epoch, so the two writes are ordered — no race.
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    double* tile = block.shared_alloc<double>(8);
    block.for_each_warp([&](WarpCtx& w) {
      Lanes<std::uint64_t> idx{};
      Lanes<double> val{};
      if (w.global_warp_id() % 2 == 0) {
        w.shared_scatter(tile, idx, val, 0x1u);
        w.sync();
      } else {
        w.sync();
        w.shared_scatter(tile, idx, val, 0x1u);
      }
    });
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

TEST(SimcheckRacecheck, PhaseSeparatedSharingIsClean) {
  // Cross-warp communication through separate for_each_warp phases (the
  // stream kernel's structure) carries an implicit barrier — no hazard.
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    double* tile = block.shared_alloc<double>(64);
    block.for_each_warp([&](WarpCtx& w) {
      const std::uint64_t warp = w.global_warp_id() % 2;
      Lanes<std::uint64_t> idx{};
      Lanes<double> val{};
      for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        idx[lane] = warp * kWarpSize + lane;
        val[lane] = 1.0;
      }
      w.shared_scatter(tile, idx, val, kFullMask);
    });
    block.for_each_warp([&](WarpCtx& w) {
      if (w.global_warp_id() % 2 != 0) return;
      Lanes<std::uint64_t> idx{};
      for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        idx[lane] = kWarpSize + lane;  // the *other* warp's stripe
      }
      w.shared_gather(tile, idx, kFullMask);
    });
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

// --- synccheck ---------------------------------------------------------------

TEST(SimcheckSynccheck, FlagsPartialMaskBarrier) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 32;
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    block.for_each_warp([&](WarpCtx& w) {
      w.sync(0x1u);  // barrier with 31 lanes exited — divergent
    });
  });
  expect_only(gpu, ViolationKind::kBarrierDivergence, 1);
  EXPECT_NE(gpu.check_report().violations[0].detail.find("partial"),
            std::string::npos);
}

TEST(SimcheckSynccheck, FlagsUnequalBarrierCounts) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;  // 2 warps
  cfg.num_blocks = 1;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    block.for_each_warp([&](WarpCtx& w) {
      if (w.global_warp_id() % 2 == 0) {
        w.sync();  // warp 1 never reaches the barrier
      }
    });
  });
  expect_only(gpu, ViolationKind::kBarrierDivergence, 1);
  EXPECT_EQ(gpu.check_report().violations[0].warp, 1u);
}

TEST(SimcheckSynccheck, EqualBarrierCountsAreClean) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  gpusim::LaunchConfig cfg;
  cfg.threads_per_block = 64;
  cfg.num_blocks = 2;
  gpu.run_blocks(cfg, [&](BlockCtx& block) {
    block.for_each_warp([&](WarpCtx& w) {
      w.sync();
      w.sync();
    });
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

// --- determinism lint --------------------------------------------------------

TEST(SimcheckDeterminismLint, FlagsFpAtomicsAcrossWarps) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> acc(kWarpSize, 0.0);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(2, 32, 32);  // 2 warps
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    Lanes<double> val{};
    w.atomic_add_scatter(acc.data(), idx, val, 0x1u);
  });
  // Deduplicated: one finding per launch, not one per atomic.
  expect_only(gpu, ViolationKind::kNonDeterministicAtomic, 1);
}

TEST(SimcheckDeterminismLint, SingleWarpFpAtomicIsOrdered) {
  // With one warp in flight there is only one possible accumulation order.
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<double> acc(kWarpSize, 0.0);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    Lanes<double> val{};
    w.atomic_add_scatter(acc.data(), idx, val, 0x1u);
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

TEST(SimcheckDeterminismLint, IntegerAtomicsAreExact) {
  // Integer addition commutes exactly; the lint is FP-only.
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  std::vector<std::uint64_t> acc(kWarpSize, 0);
  const auto cfg = gpusim::LaunchConfig::warp_per_item(4, 32, 32);
  gpu.run(cfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    Lanes<std::uint64_t> val{};
    w.atomic_add_scatter(acc.data(), idx, val, 0x1u);
  });
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();
}

// --- configuration and reporting ---------------------------------------------

TEST(SimcheckConfig, NarrowedConfigSkipsDisabledTools) {
  CheckConfig cfg = CheckConfig::all();
  cfg.memcheck = false;
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check(cfg);
  run_prefix_access<false>(gpu, 40);  // would be OOB under memcheck
  EXPECT_TRUE(gpu.check_report().clean()) << gpu.check_report().summary();

  CheckConfig lint_off = CheckConfig::all();
  lint_off.determinism_lint = false;
  Gpu gpu2(gpusim::make_a100());
  gpu2.enable_check(lint_off);
  std::vector<double> acc(kWarpSize, 0.0);
  const auto lcfg = gpusim::LaunchConfig::warp_per_item(2, 32, 32);
  gpu2.run(lcfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    Lanes<double> val{};
    w.atomic_add_scatter(acc.data(), idx, val, 0x1u);
  });
  EXPECT_TRUE(gpu2.check_report().clean());
}

TEST(SimcheckConfig, MaxViolationsCapsRecordingAndCountsSuppressed) {
  CheckConfig cfg = CheckConfig::all();
  cfg.max_violations = 2;
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check(cfg);
  std::vector<double> v(64, 1.0);
  gpu.check()->clear_tracking();
  gpu.check()->track_global(v.data(), 32 * sizeof(double), "v", true);
  const auto lcfg = gpusim::LaunchConfig::warp_per_item(1, 32, 32);
  gpu.run(lcfg, [&](WarpCtx& w) {
    Lanes<std::uint64_t> idx{};
    for (unsigned lane = 0; lane < 5; ++lane) {
      idx[lane] = 40 + lane;  // five OOB lanes
    }
    w.gather(v.data(), idx, 0x1fu);
  });
  const auto& rep = gpu.check_report();
  EXPECT_EQ(rep.violations.size(), 2u);
  EXPECT_EQ(rep.suppressed, 3u);
  EXPECT_FALSE(rep.clean());
}

TEST(SimcheckReport, SummaryNamesKindsAndBuffers) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_prefix_access<false>(gpu, 40);
  const std::string s = gpu.check_report().summary();
  EXPECT_NE(s.find("simcheck:"), std::string::npos) << s;
  EXPECT_NE(s.find("global-out-of-bounds"), std::string::npos) << s;
  EXPECT_EQ(std::string(gpusim::violation_kind_name(
                ViolationKind::kNonDeterministicAtomic)),
            "non-deterministic-atomic");
}

TEST(SimcheckReport, DisableCheckStopsTracking) {
  Gpu gpu(gpusim::make_a100());
  gpu.enable_check();
  run_prefix_access<false>(gpu, 40);
  EXPECT_FALSE(gpu.check_report().clean());
  gpu.disable_check();
  EXPECT_FALSE(gpu.check_enabled());
}

TEST(SimcheckEnv, EnvVariableParsesCommonSpellings) {
  ::setenv("PROTONDOSE_SIMCHECK", "1", 1);
  EXPECT_TRUE(gpusim::simcheck_env_enabled());
  ::setenv("PROTONDOSE_SIMCHECK", "on", 1);
  EXPECT_TRUE(gpusim::simcheck_env_enabled());
  ::setenv("PROTONDOSE_SIMCHECK", "0", 1);
  EXPECT_FALSE(gpusim::simcheck_env_enabled());
  ::unsetenv("PROTONDOSE_SIMCHECK");
  EXPECT_FALSE(gpusim::simcheck_env_enabled());
}

}  // namespace
}  // namespace pd::kernels
