// Native-backend contract tests: DoseEngine with Backend::kNative must be
// *bitwise identical* to the gpusim backend for every kernel family, every
// precision mode, and every native thread count — the native kernels replay
// the simulated warp kernels' exact conversion points and reduction orders
// (docs/native_backend.md), and the nnz-balanced partitioning never changes
// which accumulator an element lands in.  The gpusim engine stays the
// differential oracle; these tests are the contract's enforcement.
//
// Also covered: compute_batch vs looped compute bitwise equality on both
// backends (the gpusim vector path chunks through run_vector_csr_multi, the
// native path does one batched traversal), and the counter-access error when
// only the native backend has run.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/launch.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/multivector_csr.hpp"
#include "kernels/native_spmv.hpp"
#include "sparse/coo.hpp"
#include "sparse/random.hpp"

namespace pd::kernels {
namespace {

using Backend = DoseEngine::Backend;
using Mode = DoseEngine::Mode;

constexpr std::uint64_t kSeeds[] = {0, 42, 9001};
constexpr Mode kModes[] = {Mode::kHalfDouble, Mode::kSingle, Mode::kDouble};
constexpr unsigned kThreadCounts[] = {1, 2, 5};
constexpr SpmvFamily kFamilies[] = {SpmvFamily::kVector, SpmvFamily::kClassical,
                                    SpmvFamily::kRowSplit,
                                    SpmvFamily::kAdaptive};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "dose[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

struct Problem {
  sparse::CsrF64 matrix;
  std::vector<double> x;
};

/// Skewed structure: mixes empty, short (segmented-scan path), and >= 32-nnz
/// rows (vector path), so the adaptive worklist exercises both item kinds.
Problem make_problem(std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.matrix = sparse::random_csr(rng, 300, 90, 12.0,
                                sparse::RandomStructure::kSkewed);
  p.x = sparse::random_vector(rng, 90, 0.0, 2.0);
  return p;
}

/// Matrix with guaranteed > chunk_nnz (512) rows so the row-split plan has
/// split rows and phase 2 (partial-slot fold) actually runs.  Column indices
/// are picked deterministically distinct (7 is coprime to 1500) so nnz is
/// exact, not subject to duplicate merging.
Problem make_rowsplit_problem(std::uint64_t seed) {
  Rng rng(seed);
  sparse::CooMatrix<double> coo;
  coo.num_rows = 40;
  coo.num_cols = 1500;
  for (std::uint32_t r = 0; r < coo.num_rows; ++r) {
    const std::uint64_t len =
        (r % 7 == 0) ? 700 + rng.uniform_index(400) : rng.uniform_index(30);
    for (std::uint64_t k = 0; k < len; ++k) {
      const auto c = static_cast<std::uint32_t>((k * 7 + r) % coo.num_cols);
      coo.entries.push_back({r, c, rng.uniform(0.01, 1.0)});
    }
  }
  Problem p;
  p.matrix = sparse::coo_to_csr(coo);
  p.x = sparse::random_vector(rng, coo.num_cols, 0.0, 2.0);
  return p;
}

Problem make_problem_for(SpmvFamily family, std::uint64_t seed) {
  return family == SpmvFamily::kRowSplit ? make_rowsplit_problem(seed)
                                         : make_problem(seed);
}

DoseEngine make_engine(const Problem& p, SpmvFamily family, Mode mode,
                       Backend backend, unsigned native_threads = 1) {
  DoseEngine engine(sparse::CsrF64(p.matrix), gpusim::make_a100(), mode,
                    kDefaultVectorTpb, family, backend);
  if (backend == Backend::kGpusim) {
    // Functional-only: dose values are identical to the full simulation
    // (pinned by the engine-equivalence tests) and the oracle runs fast.
    engine.set_engine_options({gpusim::TraceMode::kFunctionalOnly, 0});
  } else {
    engine.set_native_threads(native_threads);
  }
  return engine;
}

TEST(NativeBackend, BitwiseMatchesGpusimAcrossFamiliesModesThreads) {
  for (const std::uint64_t seed : kSeeds) {
    for (const SpmvFamily family : kFamilies) {
      const Problem p = make_problem_for(family, seed);
      for (const Mode mode : kModes) {
        DoseEngine oracle = make_engine(p, family, mode, Backend::kGpusim);
        const std::vector<double> expected = oracle.compute(p.x);
        for (const unsigned threads : kThreadCounts) {
          DoseEngine native =
              make_engine(p, family, mode, Backend::kNative, threads);
          expect_bitwise_equal(expected, native.compute(p.x));
        }
      }
    }
  }
}

/// compute_batch must be bitwise equal to looping compute, per column, on
/// both backends.  Batch width 11 crosses kMaxSpmvBatch (8) so the gpusim
/// vector path exercises its chunking loop.
TEST(NativeBackend, ComputeBatchMatchesLoopedCompute) {
  constexpr std::size_t kBatch = 11;
  static_assert(kBatch > kMaxSpmvBatch);
  const Problem p = make_problem(7);
  Rng rng(123);
  const std::vector<double> weights =
      sparse::random_vector(rng, kBatch * p.matrix.num_cols, 0.0, 2.0);
  for (const Backend backend : {Backend::kGpusim, Backend::kNative}) {
    for (const Mode mode : kModes) {
      DoseEngine engine =
          make_engine(p, SpmvFamily::kVector, mode, backend, 2);
      const auto batched = engine.compute_batch(weights, kBatch);
      ASSERT_EQ(batched.size(), kBatch);
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::span<const double> column(
            weights.data() + j * p.matrix.num_cols, p.matrix.num_cols);
        expect_bitwise_equal(engine.compute(column), batched[j]);
      }
    }
  }
}

/// The bits of a float or double.
template <typename T>
auto bits_of(T v) {
  if constexpr (sizeof(T) == 8) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return std::bit_cast<std::uint32_t>(v);
  }
}

/// The batched row kernel is one body compiled twice: as is for the baseline
/// ISA, and inside the AVX2 wrapper (run only where the CPU has AVX2).  Each
/// must give every column the bits of a looped native_row_product, at every
/// width (2-16 take the fixed-width lane-outer path, 1 and 17 the generic
/// one) and for empty, short (<= 32) and long rows.  The accumulator scratch
/// starts stale, as it does between rows, so a body that reads a lane before
/// storing it fails.
template <typename Acc, typename MatV>
void expect_batch_bodies_match_looped_rows() {
  Rng rng(2024);
  const std::uint64_t row_lengths[] = {0, 1, 5, 31, 32, 33, 64, 95, 300};
  constexpr std::uint32_t kCols = 120;
  std::vector<std::uint64_t> row_ptr = {0};
  std::vector<MatV> values;
  std::vector<std::uint32_t> col_idx;
  for (const std::uint64_t len : row_lengths) {
    for (std::uint64_t k = 0; k < len; ++k) {
      values.push_back(static_cast<MatV>(rng.uniform(-1.0, 2.0)));
      // Each row starts at column 0, whose entries are -0.0: a first product
      // of -0.0 must still become +0.0 (Acc{} + v*x).
      col_idx.push_back(
          k == 0 ? 0 : static_cast<std::uint32_t>(rng.uniform_index(kCols)));
    }
    row_ptr.push_back(values.size());
  }
  for (std::size_t batch = 1; batch <= 17; ++batch) {
    std::vector<Acc> x_int(kCols * batch);
    for (Acc& v : x_int) {
      v = static_cast<Acc>(rng.uniform(-2.0, 2.0));
    }
    std::fill_n(x_int.begin(), batch, Acc{-0.0});
    std::vector<std::vector<Acc>> columns(batch, std::vector<Acc>(kCols));
    for (std::size_t c = 0; c < kCols; ++c) {
      for (std::size_t j = 0; j < batch; ++j) {
        columns[j][c] = x_int[c * batch + j];
      }
    }
    for (std::size_t r = 0; r + 1 < row_ptr.size(); ++r) {
      const std::uint64_t start = row_ptr[r];
      const std::uint64_t end = row_ptr[r + 1];
      std::vector<Acc> expected(batch);
      for (std::size_t j = 0; j < batch; ++j) {
        expected[j] = native_row_product(values.data(), col_idx.data(),
                                         columns[j].data(), start, end);
      }
      const auto check = [&](const char* body, auto run) {
        std::vector<Acc> acc(gpusim::kWarpSize * batch, Acc{3});
        std::vector<Acc> out(batch, Acc{-7});
        run(acc.data(), out.data());
        for (std::size_t j = 0; j < batch; ++j) {
          EXPECT_EQ(bits_of(out[j]), bits_of(expected[j]))
              << body << " body, width " << batch << ", row of "
              << end - start << " nnz, column " << j;
        }
      };
      check("baseline", [&](Acc* acc, Acc* out) {
        native_row_product_batch_body(values.data(), col_idx.data(),
                                      x_int.data(), batch, start, end, acc,
                                      out);
      });
#if defined(PD_X86_DISPATCH)
      if (kHaveAvx2) {
        check("avx2", [&](Acc* acc, Acc* out) {
          native_row_product_batch_avx2(values.data(), col_idx.data(),
                                        x_int.data(), batch, start, end, acc,
                                        out);
        });
      }
#endif
    }
  }
}

TEST(NativeBackend, BatchBodiesMatchLoopedRowProduct) {
  expect_batch_bodies_match_looped_rows<double, Half>();
  expect_batch_bodies_match_looped_rows<float, float>();
  expect_batch_bodies_match_looped_rows<double, double>();
}

/// Non-vector families fall back to looped single products inside
/// compute_batch; the equality must still hold (and stay bitwise across
/// backends).
TEST(NativeBackend, ComputeBatchNonVectorFamilyFallsBackBitwise) {
  constexpr std::size_t kBatch = 3;
  const Problem p = make_problem(21);
  Rng rng(456);
  const std::vector<double> weights =
      sparse::random_vector(rng, kBatch * p.matrix.num_cols, 0.0, 2.0);
  DoseEngine gpusim_engine = make_engine(p, SpmvFamily::kClassical,
                                         Mode::kHalfDouble, Backend::kGpusim);
  DoseEngine native_engine = make_engine(p, SpmvFamily::kClassical,
                                         Mode::kHalfDouble, Backend::kNative, 5);
  const auto expected = gpusim_engine.compute_batch(weights, kBatch);
  const auto actual = native_engine.compute_batch(weights, kBatch);
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t j = 0; j < kBatch; ++j) {
    expect_bitwise_equal(expected[j], actual[j]);
  }
}

/// The native backend records no simulator counters: last_run()/
/// last_estimate() must keep throwing until a gpusim compute has run, and
/// switching backends on a live engine must not perturb the dose bits.
TEST(NativeBackend, CountersRequireGpusimRunAndBackendSwitchIsBitwise) {
  const Problem p = make_problem(3);
  DoseEngine engine = make_engine(p, SpmvFamily::kVector, Mode::kHalfDouble,
                                  Backend::kNative, 2);
  const std::vector<double> native_dose = engine.compute(p.x);
  EXPECT_THROW(engine.last_run(), pd::Error);
  EXPECT_THROW(engine.last_estimate(), pd::Error);

  engine.set_backend(Backend::kGpusim);
  const std::vector<double> gpusim_dose = engine.compute(p.x);
  EXPECT_NO_THROW(engine.last_run());
  expect_bitwise_equal(gpusim_dose, native_dose);

  engine.set_backend(Backend::kNative);
  expect_bitwise_equal(gpusim_dose, engine.compute(p.x));
}

}  // namespace
}  // namespace pd::kernels
