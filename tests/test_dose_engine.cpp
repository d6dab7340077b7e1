// Tests for the DoseEngine public facade.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "sparse/convert.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"

namespace pd::kernels {
namespace {

sparse::CsrF64 test_matrix(std::uint64_t seed = 55) {
  Rng rng(seed);
  return sparse::random_csr(rng, 400, 80, 10.0,
                            sparse::RandomStructure::kManyEmpty);
}

TEST(DoseEngine, ExposesMatrixStats) {
  const auto m = test_matrix();
  DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100());
  EXPECT_EQ(engine.num_voxels(), m.num_rows);
  EXPECT_EQ(engine.num_spots(), m.num_cols);
  EXPECT_EQ(engine.stats().nnz, m.nnz());
  EXPECT_EQ(engine.mode(), DoseEngine::Mode::kHalfDouble);
}

TEST(DoseEngine, AllModesAgreeWithinPrecision) {
  const auto m = test_matrix();
  Rng rng(56);
  const auto x = sparse::random_vector(rng, m.num_cols, 0.0, 1.0);
  std::vector<double> y_exact(m.num_rows);
  sparse::reference_spmv(m, x, y_exact);

  for (const auto mode : {DoseEngine::Mode::kHalfDouble,
                          DoseEngine::Mode::kSingle, DoseEngine::Mode::kDouble}) {
    DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100(), mode);
    const auto y = engine.compute(x);
    const double tol = mode == DoseEngine::Mode::kDouble     ? 1e-11
                       : mode == DoseEngine::Mode::kSingle   ? 2e-4
                                                             : 2e-3;
    for (std::uint64_t r = 0; r < m.num_rows; ++r) {
      EXPECT_NEAR(y[r], y_exact[r], tol * (1.0 + std::fabs(y_exact[r])))
          << "mode " << static_cast<int>(mode) << " row " << r;
    }
  }
}

TEST(DoseEngine, ReproducibleAcrossSchedulesInEveryMode) {
  const auto m = test_matrix(57);
  Rng rng(57);
  const auto x = sparse::random_vector(rng, m.num_cols);
  for (const auto mode : {DoseEngine::Mode::kHalfDouble,
                          DoseEngine::Mode::kSingle, DoseEngine::Mode::kDouble}) {
    DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100(), mode);
    const auto a = engine.compute(x, 3);
    const auto b = engine.compute(x, 12345);
    EXPECT_EQ(a, b);
  }
}

TEST(DoseEngine, RunCountersAndEstimate) {
  const auto m = test_matrix(58);
  Rng rng(58);
  const auto x = sparse::random_vector(rng, m.num_cols);
  DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100());
  engine.compute(x);
  const SpmvRun& run = engine.last_run();
  EXPECT_EQ(run.stats.compute.flops, 2 * m.nnz());
  EXPECT_GT(run.stats.dram_bytes(), 0.0);
  const auto est = engine.last_estimate();
  EXPECT_GT(est.gflops, 0.0);
  EXPECT_GT(est.operational_intensity, 0.0);
  EXPECT_LE(est.bandwidth_fraction, 1.0);
}

TEST(DoseEngine, ErrorsBeforeFirstRunAndOnBadInput) {
  const auto m = test_matrix(59);
  DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100());
  EXPECT_THROW(engine.last_run(), pd::Error);
  EXPECT_THROW(engine.last_estimate(), pd::Error);
  std::vector<double> wrong(m.num_cols + 2, 1.0);
  EXPECT_THROW(engine.compute(wrong), pd::Error);
}

TEST(DoseEngine, WorksOnEveryDevice) {
  const auto m = test_matrix(60);
  Rng rng(60);
  const auto x = sparse::random_vector(rng, m.num_cols);
  std::vector<std::vector<double>> results;
  for (const auto& spec : {gpusim::make_a100(), gpusim::make_v100(),
                           gpusim::make_p100()}) {
    DoseEngine engine(sparse::CsrF64(m), spec);
    results.push_back(engine.compute(x));
  }
  // Numerics are device-independent (same kernel semantics everywhere).
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(DoseEngine, CustomBlockSizeIsHonoured) {
  const auto m = test_matrix(61);
  Rng rng(61);
  const auto x = sparse::random_vector(rng, m.num_cols);
  DoseEngine engine(sparse::CsrF64(m), gpusim::make_a100(),
                    DoseEngine::Mode::kHalfDouble, /*threads_per_block=*/128);
  engine.compute(x);
  EXPECT_EQ(engine.last_run().config.threads_per_block, 128u);
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  bits.reserve(v.size());
  for (const double d : v) {
    bits.push_back(std::bit_cast<std::uint64_t>(d));
  }
  return bits;
}

TEST(DoseEngine, MovedMatrixBuildsTheSameEngineAsACopy) {
  // The constructor converts its matrix by move; an engine handed a moved
  // matrix must store and compute exactly what one handed a copy does, and
  // what the copying conversion produces.
  sparse::CsrF64 m = test_matrix(62);
  for (std::size_t k = 0; k < m.values.size(); k += 7) {
    m.values[k] = k % 2 == 0 ? -0.0 : 3e-6;  // signed zero, half subnormal
  }
  Rng rng(62);
  const auto x = sparse::random_vector(rng, m.num_cols);
  for (const auto mode :
       {DoseEngine::Mode::kHalfDouble, DoseEngine::Mode::kSingle}) {
    const sparse::CsrF64 expected =
        mode == DoseEngine::Mode::kHalfDouble
            ? sparse::convert_values<double>(
                  sparse::convert_values<pd::Half>(m))
            : sparse::convert_values<double>(sparse::convert_values<float>(m));
    for (const auto backend :
         {DoseEngine::Backend::kGpusim, DoseEngine::Backend::kNative}) {
      DoseEngine from_copy(m, gpusim::make_a100(), mode, kDefaultVectorTpb,
                           DoseEngine::Family::kVector, backend);
      sparse::CsrF64 owned = m;
      DoseEngine from_move(std::move(owned), gpusim::make_a100(), mode,
                           kDefaultVectorTpb, DoseEngine::Family::kVector,
                           backend);
      for (const DoseEngine* e : {&from_copy, &from_move}) {
        const sparse::CsrF64 stored = e->stored_matrix_as_double();
        EXPECT_EQ(stored.row_ptr, expected.row_ptr);
        EXPECT_EQ(stored.col_idx, expected.col_idx);
        EXPECT_EQ(bit_patterns(stored.values), bit_patterns(expected.values));
      }
      EXPECT_EQ(bit_patterns(from_move.compute(x)),
                bit_patterns(from_copy.compute(x)))
          << "mode " << static_cast<int>(mode) << " backend "
          << static_cast<int>(backend);
    }
  }
}

TEST(DoseEngine, InvalidMatrixRejectedAtConstruction) {
  sparse::CsrF64 bad;
  bad.num_rows = 2;
  bad.num_cols = 2;
  bad.row_ptr = {0, 1};  // wrong length
  bad.col_idx = {0};
  bad.values = {1.0};
  EXPECT_THROW(DoseEngine(std::move(bad), gpusim::make_a100()), pd::Error);
}

}  // namespace
}  // namespace pd::kernels
