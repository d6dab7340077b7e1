// Engine-equivalence tests for the gpusim launch engine: for every kernel in
// the family, functional-only execution — on the calling thread and on a
// 4-context pool — must reproduce the serial engine's results and compute
// counters with zero traffic, for every schedule seed.
//
// Also covered: the optimized coalescer + cache hot path against the seed
// reference implementations (differential), and simcheck as a pure observer
// in both modes.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/launch.hpp"
#include "kernels/adaptive_csr.hpp"
#include "kernels/baseline_gpu.hpp"
#include "kernels/classical_csr.hpp"
#include "kernels/format_kernels.hpp"
#include "kernels/rowsplit_csr.hpp"
#include "kernels/stream_csr.hpp"
#include "kernels/vector_csr.hpp"
#include "rsformat/rsmatrix.hpp"
#include "sparse/convert.hpp"
#include "sparse/ell.hpp"
#include "sparse/random.hpp"
#include "sparse/sellcs.hpp"

namespace pd::kernels {
namespace {

using gpusim::EngineOptions;
using gpusim::Gpu;
using gpusim::KernelStats;
using gpusim::TraceMode;

/// Everything a launch reports besides traffic: arithmetic and shared-memory
/// counters and the launch geometry.
void expect_compute_equal(const KernelStats& a, const KernelStats& b) {
  EXPECT_EQ(a.compute.flops, b.compute.flops);
  EXPECT_EQ(a.compute.warp_arith_instrs, b.compute.warp_arith_instrs);
  EXPECT_EQ(a.compute.active_lane_ops, b.compute.active_lane_ops);
  EXPECT_EQ(a.compute.total_lane_ops, b.compute.total_lane_ops);
  EXPECT_EQ(a.shared.accesses, b.shared.accesses);
  EXPECT_EQ(a.shared.bank_conflicts, b.shared.bank_conflicts);
  EXPECT_EQ(a.blocks_launched, b.blocks_launched);
  EXPECT_EQ(a.warps_launched, b.warps_launched);
}

void expect_stats_bitwise_equal(const KernelStats& a, const KernelStats& b) {
  const auto& ta = a.traffic;
  const auto& tb = b.traffic;
  EXPECT_EQ(ta.dram_read_bytes, tb.dram_read_bytes);
  EXPECT_EQ(ta.dram_write_bytes, tb.dram_write_bytes);
  EXPECT_EQ(ta.l2_read_sectors, tb.l2_read_sectors);
  EXPECT_EQ(ta.l2_write_sectors, tb.l2_write_sectors);
  EXPECT_EQ(ta.l2_read_hits, tb.l2_read_hits);
  EXPECT_EQ(ta.l2_write_hits, tb.l2_write_hits);
  EXPECT_EQ(ta.l2_atomic_ops, tb.l2_atomic_ops);
  EXPECT_EQ(ta.warp_requests, tb.warp_requests);
  EXPECT_EQ(ta.sectors_requested, tb.sectors_requested);
  EXPECT_EQ(ta.scalar_requests, tb.scalar_requests);
  EXPECT_EQ(ta.scalar_sectors, tb.scalar_sectors);
  expect_compute_equal(a, b);
}

void expect_traffic_empty(const KernelStats& s) {
  EXPECT_EQ(s.traffic.dram_read_bytes, 0u);
  EXPECT_EQ(s.traffic.dram_write_bytes, 0u);
  EXPECT_EQ(s.traffic.l2_read_sectors, 0u);
  EXPECT_EQ(s.traffic.l2_write_sectors, 0u);
  EXPECT_EQ(s.traffic.warp_requests, 0u);
  EXPECT_EQ(s.traffic.scalar_requests, 0u);
  EXPECT_EQ(s.traffic.l2_atomic_ops, 0u);
}

struct Problem {
  sparse::CsrF64 matrix;
  std::vector<double> x;
};

Problem make_problem(sparse::RandomStructure structure, std::uint64_t seed,
                     std::uint64_t rows = 300, std::uint64_t cols = 90,
                     double mean_nnz = 12.0) {
  Rng rng(seed);
  Problem p;
  p.matrix = sparse::random_csr(rng, rows, cols, mean_nnz, structure);
  p.x = sparse::random_vector(rng, cols, 0.0, 2.0);
  return p;
}

constexpr std::uint64_t kSeeds[] = {0, 42, 9001};

/// The functional-only configurations that must match the serial engine: a
/// single execution context (schedule-order loop) and a concurrent launch on
/// 4 contexts (the pool still exercises the work-claim path on a
/// single-core host).
const EngineOptions kFunctionalVariants[] = {
    {TraceMode::kFunctionalOnly, 1},
    {TraceMode::kFunctionalOnly, 4},
};

/// Run `launch(gpu, seed, y)` — which returns the launch's stats and copies
/// its output values into y — under the serial engine and every
/// functional-only variant, across schedule seeds.  Every variant must match
/// the serial compute counters and launch geometry exactly and report zero
/// traffic.  Output values must match bitwise too, except where
/// `deterministic_values` is false (FP atomics) and the launch is concurrent:
/// the schedule-order loop applies atomics in the serial engine's order, a
/// concurrent launch in whatever order its threads reach them.
template <typename Launch>
void check_engine_matrix(const Launch& launch, bool deterministic_values) {
  for (const std::uint64_t seed : kSeeds) {
    Gpu serial_gpu(gpusim::make_a100());
    std::vector<double> y_serial;
    const KernelStats serial = launch(serial_gpu, seed, y_serial);

    for (const EngineOptions& opts : kFunctionalVariants) {
      Gpu gpu(gpusim::make_a100());
      gpu.set_engine(opts);
      std::vector<double> y;
      const KernelStats stats = launch(gpu, seed, y);
      SCOPED_TRACE(testing::Message()
                   << "mode=" << to_string(opts.mode)
                   << " phase1_threads=" << opts.phase1_threads
                   << " seed=" << seed);
      expect_traffic_empty(stats);
      expect_compute_equal(serial, stats);
      if (deterministic_values || opts.phase1_threads == 1) {
        EXPECT_EQ(y, y_serial);
      } else {
        ASSERT_EQ(y.size(), y_serial.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
          EXPECT_NEAR(y[i], y_serial[i], 1e-9 * (1.0 + std::fabs(y_serial[i])));
        }
      }
    }
  }
}

TEST(EngineEquivalence, VectorCsrHalfDouble) {
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2100);
  const auto mh = sparse::convert_values<pd::Half>(p.matrix);
  std::vector<double> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0);
        const auto stats =
            run_vector_csr<pd::Half, double>(gpu, mh, p.x,
                                             std::span<double>(ybuf), 512, seed)
                .stats;
        y = ybuf;
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, VectorCsrDouble) {
  const Problem p = make_problem(sparse::RandomStructure::kManyEmpty, 2101);
  std::vector<double> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0);
        const auto stats =
            run_vector_csr<double, double>(gpu, p.matrix, p.x,
                                           std::span<double>(ybuf), 512, seed)
                .stats;
        y = ybuf;
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, ClassicalCsr) {
  const Problem p = make_problem(sparse::RandomStructure::kUniform, 2102);
  const auto m32 = sparse::convert_values<float>(p.matrix);
  const std::vector<float> x32(p.x.begin(), p.x.end());
  std::vector<float> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0f);
        const auto stats =
            run_classical_csr(gpu, m32, std::span<const float>(x32),
                              std::span<float>(ybuf), 512, seed)
                .stats;
        y.assign(ybuf.begin(), ybuf.end());
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, AdaptiveCsr) {
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2103);
  const auto m32 = sparse::convert_values<float>(p.matrix);
  const auto worklist = build_adaptive_worklist(m32);
  const std::vector<float> x32(p.x.begin(), p.x.end());
  std::vector<float> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0f);
        const auto stats =
            run_adaptive_csr(gpu, m32, worklist, std::span<const float>(x32),
                             std::span<float>(ybuf), 512, seed)
                .stats;
        y.assign(ybuf.begin(), ybuf.end());
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, BaselineGpuAtomics) {
  // The atomic kernel's *values* are schedule-dependent by design (§II-D);
  // its traffic counters still must be engine-independent.
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2104, 200,
                                 60, 10.0);
  const rsformat::RsMatrix rs = rsformat::RsMatrix::from_csr(p.matrix);
  std::vector<double> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        const auto stats =
            run_baseline_gpu(gpu, rs, p.x, std::span<double>(ybuf), 128, seed)
                .stats;
        y = ybuf;
        return stats;
      },
      /*deterministic_values=*/false);
}

TEST(EngineEquivalence, RowSplitCsr) {
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2105, 150,
                                 80, 40.0);
  const auto plan = build_row_split_plan(p.matrix, 64);
  std::vector<double> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0);
        const auto stats = run_rowsplit_csr<double, double>(
                               gpu, p.matrix, plan, p.x,
                               std::span<double>(ybuf), 512, seed)
                               .stats;
        y = ybuf;
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, StreamCsrRunBlocks) {
  // stream_csr exercises Gpu::run_blocks (shared memory + bank-conflict
  // counters) rather than Gpu::run.
  const Problem p = make_problem(sparse::RandomStructure::kUniform, 2106, 400,
                                 100, 16.0);
  const auto plan = build_stream_plan(p.matrix, 2048);
  std::vector<double> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0);
        const auto stats = run_stream_csr<double, double>(
                               gpu, p.matrix, plan, p.x,
                               std::span<double>(ybuf), 512, seed)
                               .stats;
        y = ybuf;
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, EllKernel) {
  const Problem p = make_problem(sparse::RandomStructure::kUniform, 2107);
  const auto m32 = sparse::convert_values<float>(p.matrix);
  const auto ell = sparse::csr_to_ell(m32, 1ull << 28);
  const std::vector<float> x32(p.x.begin(), p.x.end());
  std::vector<float> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0f);
        const auto stats =
            run_ell_spmv<float, float>(gpu, ell, std::span<const float>(x32),
                                       std::span<float>(ybuf), 512, seed)
                .stats;
        y.assign(ybuf.begin(), ybuf.end());
        return stats;
      },
      /*deterministic_values=*/true);
}

TEST(EngineEquivalence, SellCsKernel) {
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2108);
  const auto m32 = sparse::convert_values<float>(p.matrix);
  const auto sell = sparse::csr_to_sellcs(m32, 32, 128);
  const std::vector<float> x32(p.x.begin(), p.x.end());
  std::vector<float> ybuf(p.matrix.num_rows);
  check_engine_matrix(
      [&](Gpu& gpu, std::uint64_t seed, std::vector<double>& y) {
        std::fill(ybuf.begin(), ybuf.end(), 0.0f);
        const auto stats =
            run_sellcs_spmv<float, float>(gpu, sell,
                                          std::span<const float>(x32),
                                          std::span<float>(ybuf), 512, seed)
                .stats;
        y.assign(ybuf.begin(), ybuf.end());
        return stats;
      },
      /*deterministic_values=*/true);
}

// --- simcheck must be a pure observer ----------------------------------------

/// Enabling the simcheck analyzer may not perturb anything observable: dose
/// bits, traffic counters, shared counters — in either TraceMode.  Same output
/// buffer for both runs so the cache sees identical absolute addresses.
TEST(EngineEquivalence, SimcheckDoesNotPerturbVectorCsr) {
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2111);
  const auto mh = sparse::convert_values<pd::Half>(p.matrix);
  std::vector<double> ybuf(p.matrix.num_rows);
  const EngineOptions kModes[] = {
      {TraceMode::kSerial, 0},
      {TraceMode::kFunctionalOnly, 4},
  };
  for (const EngineOptions& opts : kModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu plain(gpusim::make_a100());
    plain.set_engine(opts);
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const KernelStats unchecked =
        run_vector_csr<pd::Half, double>(plain, mh, p.x,
                                         std::span<double>(ybuf), 512, 42)
            .stats;
    const std::vector<double> y_unchecked = ybuf;

    Gpu checked_gpu(gpusim::make_a100());
    checked_gpu.set_engine(opts);
    checked_gpu.enable_check();
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const KernelStats checked =
        run_vector_csr<pd::Half, double>(checked_gpu, mh, p.x,
                                         std::span<double>(ybuf), 512, 42)
            .stats;
    expect_stats_bitwise_equal(unchecked, checked);
    EXPECT_EQ(ybuf, y_unchecked);
    EXPECT_TRUE(checked_gpu.check_report().clean())
        << checked_gpu.check_report().summary();
  }
}

TEST(EngineEquivalence, SimcheckDoesNotPerturbStreamCsr) {
  // run_blocks path: shared memory, bank conflicts, barrier phases.
  const Problem p = make_problem(sparse::RandomStructure::kUniform, 2112, 400,
                                 100, 16.0);
  const auto plan = build_stream_plan(p.matrix, 2048);
  std::vector<double> ybuf(p.matrix.num_rows);
  const EngineOptions kModes[] = {
      {TraceMode::kSerial, 0},
      {TraceMode::kFunctionalOnly, 4},
  };
  for (const EngineOptions& opts : kModes) {
    SCOPED_TRACE(testing::Message() << "mode=" << to_string(opts.mode));
    Gpu plain(gpusim::make_a100());
    plain.set_engine(opts);
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const KernelStats unchecked =
        run_stream_csr<double, double>(plain, p.matrix, plan, p.x,
                                       std::span<double>(ybuf), 512, 7)
            .stats;
    const std::vector<double> y_unchecked = ybuf;

    Gpu checked_gpu(gpusim::make_a100());
    checked_gpu.set_engine(opts);
    checked_gpu.enable_check();
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const KernelStats checked =
        run_stream_csr<double, double>(checked_gpu, p.matrix, plan, p.x,
                                       std::span<double>(ybuf), 512, 7)
            .stats;
    expect_stats_bitwise_equal(unchecked, checked);
    EXPECT_EQ(ybuf, y_unchecked);
    EXPECT_TRUE(checked_gpu.check_report().clean())
        << checked_gpu.check_report().summary();
  }
}

// --- optimized vs reference hot path (differential) --------------------------

TEST(EngineEquivalence, OptimizedHotPathMatchesReferencePath) {
  // One-range contiguous requests, the insertion-dedup coalescer and the
  // MRU-ordered sets must be counter-bitwise-identical to the seed's
  // sort+unique coalescer + global-tick scan.
  const Problem p = make_problem(sparse::RandomStructure::kSkewed, 2109, 500,
                                 120, 20.0);
  const auto mh = sparse::convert_values<pd::Half>(p.matrix);
  // One shared output buffer: the cache maps absolute addresses, so both
  // paths must see identical operand addresses for counters to be comparable.
  std::vector<double> ybuf(p.matrix.num_rows);
  for (const std::uint64_t seed : kSeeds) {
    Gpu opt_gpu(gpusim::make_a100());
    Gpu ref_gpu(gpusim::make_a100());
    ref_gpu.set_reference_memory_path(true);
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const auto opt = run_vector_csr<pd::Half, double>(
        opt_gpu, mh, p.x, std::span<double>(ybuf), 512, seed);
    const std::vector<double> y_opt = ybuf;
    std::fill(ybuf.begin(), ybuf.end(), 0.0);
    const auto ref = run_vector_csr<pd::Half, double>(
        ref_gpu, mh, p.x, std::span<double>(ybuf), 512, seed);
    expect_stats_bitwise_equal(opt.stats, ref.stats);
    EXPECT_EQ(y_opt, ybuf);
  }
}

TEST(EngineEquivalence, ReferencePathAtomicKernel) {
  // Same differential through the atomic/baseline kernel, which mixes scalar,
  // vector and warp atomic requests: every schedule, uniform and skewed
  // columns, on the A100's L2 and on an 8 KiB one whose atomics evict dirty
  // lines.
  gpusim::DeviceSpec small_l2 = gpusim::make_a100();
  small_l2.l2_bytes = 8 * 1024;
  small_l2.l2_ways = 4;
  const gpusim::DeviceSpec specs[] = {gpusim::make_a100(), small_l2};
  for (const auto structure :
       {sparse::RandomStructure::kUniform, sparse::RandomStructure::kSkewed}) {
    // 2000 rows: the 16 KB output alone overflows the small L2.
    const Problem p = make_problem(structure, 2110, 2000, 60, 10.0);
    const rsformat::RsMatrix rs = rsformat::RsMatrix::from_csr(p.matrix);
    std::vector<double> ybuf(p.matrix.num_rows);
    for (const std::uint64_t seed : kSeeds) {
      std::uint64_t dram_write_bytes[2] = {};
      for (std::size_t d = 0; d < 2; ++d) {
        const gpusim::DeviceSpec& spec = specs[d];
        SCOPED_TRACE(testing::Message()
                     << "skewed=" << (structure == sparse::RandomStructure::kSkewed)
                     << " seed=" << seed << " l2_bytes=" << spec.l2_bytes);
        Gpu opt_gpu(spec);
        Gpu ref_gpu(spec);
        ref_gpu.set_reference_memory_path(true);
        const auto opt = run_baseline_gpu(opt_gpu, rs, p.x,
                                          std::span<double>(ybuf), 128, seed);
        const std::vector<double> y_opt = ybuf;
        const auto ref = run_baseline_gpu(ref_gpu, rs, p.x,
                                          std::span<double>(ybuf), 128, seed);
        expect_stats_bitwise_equal(opt.stats, ref.stats);
        EXPECT_EQ(y_opt, ybuf);
        EXPECT_GT(opt.stats.traffic.l2_atomic_ops, 0u);
        dram_write_bytes[d] = opt.stats.traffic.dram_write_bytes;
      }
      // The small L2 writes dirty lines back before the kernel ends, and
      // more than once where atomics dirty them again.
      EXPECT_GT(dram_write_bytes[1], dram_write_bytes[0]);
    }
  }
}

// --- coalescer unit-level differential ---------------------------------------

TEST(EngineEquivalence, CoalescerMatchesReferenceOnRandomStreams) {
  // Fuzz the two coalescers against each other, including non-monotone lane
  // patterns (which force the optimized path's sort fallback) and wide
  // accesses that overflow the seed's fixed 64-entry buffer no more.
  Rng rng(777);
  for (int iter = 0; iter < 500; ++iter) {
    gpusim::Lanes<std::uint64_t> addr;
    const unsigned size = 1u << (rng.next_u64() % 6);  // 1..32 bytes
    const gpusim::LaneMask mask =
        static_cast<gpusim::LaneMask>(rng.next_u64() & 0xffffffffu);
    for (unsigned i = 0; i < gpusim::kWarpSize; ++i) {
      addr[i] = 4096 + (rng.next_u64() % 2048);
    }
    gpusim::SectorBuffer fast, ref;
    gpusim::coalesce_warp_sectors(addr, size, mask, fast);
    gpusim::coalesce_warp_sectors_reference(addr, size, mask, ref);
    ASSERT_EQ(fast.count, ref.count) << "iter " << iter;
    for (unsigned i = 0; i < fast.count; ++i) {
      EXPECT_EQ(fast.data[i], ref.data[i]) << "iter " << iter << " slot " << i;
    }
  }
}

TEST(EngineEquivalence, CoalescerWideAccessSpills) {
  // A 256-byte per-lane access from 32 lanes spans up to 9 sectors each —
  // 288 entries, beyond the seed's 64-slot array (the old buffer overflow).
  gpusim::Lanes<std::uint64_t> addr;
  for (unsigned i = 0; i < gpusim::kWarpSize; ++i) {
    addr[i] = 16 + 512 * i;  // misaligned, non-overlapping 256B ranges
  }
  gpusim::SectorBuffer fast, ref;
  gpusim::coalesce_warp_sectors(addr, 256, gpusim::kFullMask, fast);
  gpusim::coalesce_warp_sectors_reference(addr, 256, gpusim::kFullMask, ref);
  ASSERT_EQ(fast.count, ref.count);
  for (unsigned i = 0; i < fast.count; ++i) {
    EXPECT_EQ(fast.data[i], ref.data[i]);
  }
  EXPECT_EQ(fast.count, 32u * 9u);  // 288 distinct sectors
}

}  // namespace
}  // namespace pd::kernels
