// Tests for sparse formats: CSR validation, COO assembly with duplicate
// merging, transpose, ELLPACK, SELL-C-σ — including parameterized
// round-trip sweeps over structural families and seeds.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <tuple>

#include "common/rng.hpp"
#include "fp16/half.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/ell.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"
#include "sparse/sellcs.hpp"

namespace pd::sparse {
namespace {

CsrF64 tiny_matrix() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  CsrF64 m;
  m.num_rows = 3;
  m.num_cols = 3;
  m.row_ptr = {0, 2, 2, 4};
  m.col_idx = {0, 2, 0, 1};
  m.values = {1.0, 2.0, 3.0, 4.0};
  m.validate();
  return m;
}

TEST(Csr, ValidationCatchesCorruption) {
  CsrF64 m = tiny_matrix();
  m.col_idx[1] = 99;
  EXPECT_THROW(m.validate(), pd::Error);

  m = tiny_matrix();
  m.row_ptr[1] = 5;
  EXPECT_THROW(m.validate(), pd::Error);

  m = tiny_matrix();
  m.row_ptr.back() = 3;
  EXPECT_THROW(m.validate(), pd::Error);

  m = tiny_matrix();
  m.row_ptr.pop_back();
  EXPECT_THROW(m.validate(), pd::Error);
}

TEST(Csr, RowNnzAndBytes) {
  const CsrF64 m = tiny_matrix();
  EXPECT_EQ(m.row_nnz(0), 2u);
  EXPECT_EQ(m.row_nnz(1), 0u);
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(m.bytes(), 4 * sizeof(std::uint32_t) + 4 * (4 + 8));
}

TEST(Coo, AssembleSortsAndIndexes) {
  CooMatrix<double> coo;
  coo.num_rows = 2;
  coo.num_cols = 4;
  coo.entries = {{1, 3, 1.0}, {0, 2, 2.0}, {1, 0, 3.0}};
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.row_ptr, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(csr.col_idx, (std::vector<std::uint32_t>{2, 0, 3}));
  EXPECT_EQ(csr.values, (std::vector<double>{2.0, 3.0, 1.0}));
}

TEST(Coo, DuplicatesAreSummed) {
  CooMatrix<double> coo;
  coo.num_rows = 1;
  coo.num_cols = 3;
  coo.entries = {{0, 1, 1.5}, {0, 1, 2.5}, {0, 0, 1.0}};
  const auto csr = coo_to_csr(coo);
  EXPECT_EQ(csr.nnz(), 2u);
  EXPECT_DOUBLE_EQ(csr.values[1], 4.0);
}

TEST(Coo, OutOfRangeEntryThrows) {
  CooMatrix<double> coo;
  coo.num_rows = 2;
  coo.num_cols = 2;
  coo.entries = {{2, 0, 1.0}};
  EXPECT_THROW(coo_to_csr(coo), pd::Error);
}

TEST(Coo, CsrRoundTrip) {
  const CsrF64 m = tiny_matrix();
  const auto back = coo_to_csr(csr_to_coo(m));
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.values, m.values);
}

TEST(Transpose, IsInvolutionAndMovesEntries) {
  const CsrF64 m = tiny_matrix();
  const CsrF64 t = transpose(m);
  EXPECT_EQ(t.num_rows, m.num_cols);
  EXPECT_EQ(t.num_cols, m.num_rows);
  EXPECT_EQ(t.nnz(), m.nnz());
  // (2,1) = 4 in m -> (1,2) = 4 in t.
  bool found = false;
  for (std::uint32_t k = t.row_ptr[1]; k < t.row_ptr[2]; ++k) {
    if (t.col_idx[k] == 2) {
      EXPECT_DOUBLE_EQ(t.values[k], 4.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  const CsrF64 tt = transpose(t);
  EXPECT_EQ(tt.row_ptr, m.row_ptr);
  EXPECT_EQ(tt.col_idx, m.col_idx);
  EXPECT_EQ(tt.values, m.values);
}

TEST(Ell, ConversionPreservesValues) {
  const CsrF64 m = tiny_matrix();
  const auto ell = csr_to_ell(m);
  EXPECT_EQ(ell.width, 2u);
  EXPECT_EQ(ell.stored_nnz, 4u);
  EXPECT_DOUBLE_EQ(ell.padding_overhead(), 1.0 - 4.0 / 6.0);
  // Entry (0, slot 1) = value 2 at column 2, stored column-major.
  EXPECT_DOUBLE_EQ(ell.values[1 * 3 + 0], 2.0);
  EXPECT_EQ(ell.col_idx[1 * 3 + 0], 2u);
  // Padded slot of row 1 holds zeros.
  EXPECT_DOUBLE_EQ(ell.values[0 * 3 + 1], 0.0);
}

TEST(Ell, BlowUpGuard) {
  // One long row with many short ones: padded size explodes past the cap.
  CooMatrix<double> coo;
  coo.num_rows = 1000;
  coo.num_cols = 600;
  for (std::uint32_t c = 0; c < 500; ++c) {
    coo.entries.push_back({0, c, 1.0});
  }
  for (std::uint32_t r = 1; r < 1000; ++r) {
    coo.entries.push_back({r, 0, 1.0});
  }
  const auto csr = coo_to_csr(coo);
  EXPECT_THROW(csr_to_ell(csr, /*max_padded_entries=*/100000), pd::Error);
  EXPECT_NO_THROW(csr_to_ell(csr, 1000000));
}

TEST(SellCs, PermutationIsValid) {
  Rng rng(4);
  const CsrF64 m = random_csr(rng, 100, 40, 6.0, RandomStructure::kSkewed);
  const auto s = csr_to_sellcs(m, 32, 64);
  std::vector<std::uint32_t> perm = s.row_perm;
  std::sort(perm.begin(), perm.end());
  for (std::uint32_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(perm[i], i);
  }
}

TEST(SellCs, ChunkWidthsCoverRows) {
  Rng rng(4);
  const CsrF64 m = random_csr(rng, 100, 40, 6.0, RandomStructure::kSkewed);
  const auto s = csr_to_sellcs(m, 32, 64);
  for (std::uint64_t c = 0; c < s.num_chunks(); ++c) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      const std::uint64_t sr = c * 32 + l;
      if (sr < m.num_rows) {
        EXPECT_GE(s.chunk_width[c], m.row_nnz(s.row_perm[sr]));
      }
    }
  }
}

TEST(SellCs, SortingReducesPaddingOnSkewedMatrices) {
  Rng rng(4);
  const CsrF64 m = random_csr(rng, 512, 64, 8.0, RandomStructure::kSkewed);
  const auto sorted = csr_to_sellcs(m, 32, 512);
  const auto unsorted = csr_to_sellcs(m, 32, 32);  // σ == C: no reordering room
  EXPECT_LE(sorted.values.size(), unsorted.values.size());
  const auto ell = csr_to_ell(m, 1ull << 28);
  EXPECT_LE(sorted.values.size(), ell.values.size());
}

TEST(SellCs, InvalidParametersThrow) {
  const CsrF64 m = tiny_matrix();
  EXPECT_THROW(csr_to_sellcs(m, 0, 32), pd::Error);
  EXPECT_THROW(csr_to_sellcs(m, 32, 48), pd::Error);  // σ not multiple of C
}

// --- value conversion: the consuming overload ------------------------------

std::uint64_t value_bits(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint64_t value_bits(pd::Half v) { return v.bits(); }

template <typename V>
void expect_same_matrix_bits(const CsrMatrix<V>& a, const CsrMatrix<V>& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.num_cols, b.num_cols);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t k = 0; k < a.values.size(); ++k) {
    EXPECT_EQ(value_bits(a.values[k]), value_bits(b.values[k])) << "entry " << k;
  }
}

/// Matrices the consuming conversion must handle like the copying one: no
/// rows, rows but no entries, and entries that stress the narrowing (NaN,
/// -0.0, half-subnormal, beyond the half range, float-subnormal).
std::vector<CsrF64> conversion_cases() {
  std::vector<CsrF64> cases;
  CsrF64 no_rows;
  no_rows.num_cols = 4;
  no_rows.row_ptr = {0};
  cases.push_back(no_rows);

  CsrF64 no_entries;
  no_entries.num_rows = 3;
  no_entries.num_cols = 5;
  no_entries.row_ptr = {0, 0, 0, 0};
  cases.push_back(no_entries);

  Rng rng(404);
  CsrF64 specials = random_csr(rng, 60, 40, 6.0, RandomStructure::kSkewed);
  const double edge[] = {std::numeric_limits<double>::quiet_NaN(),
                         -0.0,
                         3e-6,  // half subnormal
                         -1e-7,
                         65504.0,
                         65520.0,
                         70000.0,
                         -1e300,
                         1e-40,  // float subnormal
                         1.0 + std::ldexp(1.0, -11) + std::ldexp(1.0, -40)};
  for (std::size_t k = 0; k < specials.values.size(); ++k) {
    if (k % 3 == 0) {
      specials.values[k] = edge[(k / 3) % std::size(edge)];
    }
  }
  specials.validate();
  cases.push_back(specials);
  return cases;
}

template <typename V>
void expect_consuming_matches_copying() {
  for (const CsrF64& m : conversion_cases()) {
    const CsrMatrix<V> copied = convert_values<V>(m);
    CsrF64 source = m;
    const CsrMatrix<V> moved = convert_values<V>(std::move(source));
    expect_same_matrix_bits(moved, copied);
    moved.validate();
    // Both equal the element-wise conversion.
    ASSERT_EQ(moved.values.size(), m.values.size());
    for (std::size_t k = 0; k < m.values.size(); ++k) {
      EXPECT_EQ(value_bits(moved.values[k]), value_bits(V(m.values[k])))
          << "entry " << k;
    }
    // The source is consumed: nothing of it stays allocated.
    EXPECT_EQ(source.row_ptr.capacity(), 0u);
    EXPECT_EQ(source.col_idx.capacity(), 0u);
    EXPECT_EQ(source.values.capacity(), 0u);
  }
}

TEST(ConvertValues, ConsumingMatchesCopyingForHalf) {
  expect_consuming_matches_copying<pd::Half>();
}

TEST(ConvertValues, ConsumingMatchesCopyingForFloat) {
  expect_consuming_matches_copying<float>();
}

// --- parameterized round-trip sweep ----------------------------------------

using FormatSweepParam = std::tuple<RandomStructure, std::uint64_t /*seed*/>;

class FormatRoundTrip : public ::testing::TestWithParam<FormatSweepParam> {};

TEST_P(FormatRoundTrip, CooRoundTripPreservesMatrix) {
  const auto [structure, seed] = GetParam();
  Rng rng(seed);
  const CsrF64 m = random_csr(rng, 200, 60, 5.0, structure);
  const CsrF64 back = coo_to_csr(csr_to_coo(m));
  EXPECT_EQ(back.row_ptr, m.row_ptr);
  EXPECT_EQ(back.col_idx, m.col_idx);
  EXPECT_EQ(back.values, m.values);
}

TEST_P(FormatRoundTrip, DoubleTransposeIsIdentity) {
  const auto [structure, seed] = GetParam();
  Rng rng(seed);
  const CsrF64 m = random_csr(rng, 150, 70, 4.0, structure);
  const CsrF64 tt = transpose(transpose(m));
  EXPECT_EQ(tt.row_ptr, m.row_ptr);
  EXPECT_EQ(tt.col_idx, m.col_idx);
  EXPECT_EQ(tt.values, m.values);
}

TEST_P(FormatRoundTrip, AllFormatsAgreeOnSpmv) {
  const auto [structure, seed] = GetParam();
  Rng rng(seed);
  const CsrF64 m = random_csr(rng, 200, 60, 5.0, structure);
  const std::vector<double> x = random_vector(rng, m.num_cols);

  std::vector<double> y_csr(m.num_rows);
  reference_spmv(m, x, y_csr);

  // ELLPACK evaluation on the host.
  const auto ell = csr_to_ell(m, 1ull << 28);
  std::vector<double> y_ell(m.num_rows, 0.0);
  for (std::uint64_t j = 0; j < ell.width; ++j) {
    for (std::uint64_t r = 0; r < ell.num_rows; ++r) {
      y_ell[r] += ell.values[j * ell.num_rows + r] *
                  x[ell.col_idx[j * ell.num_rows + r]];
    }
  }

  // SELL-C-σ evaluation on the host.
  const auto s = csr_to_sellcs(m, 32, 64);
  std::vector<double> y_sell(m.num_rows, 0.0);
  for (std::uint64_t c = 0; c < s.num_chunks(); ++c) {
    for (std::uint32_t l = 0; l < 32; ++l) {
      const std::uint64_t sr = c * 32 + l;
      if (sr >= m.num_rows) continue;
      double acc = 0.0;
      for (std::uint32_t j = 0; j < s.chunk_width[c]; ++j) {
        const std::uint64_t slot = s.chunk_ptr[c] + j * 32ull + l;
        acc += s.values[slot] * x[s.col_idx[slot]];
      }
      y_sell[s.row_perm[sr]] = acc;
    }
  }

  for (std::uint64_t r = 0; r < m.num_rows; ++r) {
    EXPECT_NEAR(y_ell[r], y_csr[r], 1e-9 * (1.0 + std::fabs(y_csr[r])));
    EXPECT_NEAR(y_sell[r], y_csr[r], 1e-9 * (1.0 + std::fabs(y_csr[r])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structures, FormatRoundTrip,
    ::testing::Combine(::testing::Values(RandomStructure::kUniform,
                                         RandomStructure::kSkewed,
                                         RandomStructure::kManyEmpty,
                                         RandomStructure::kBanded),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace pd::sparse
