// Fast-tier differential suite (docs/fast_tier.md).
//
// The fast kernels trade the bitwise contract for fewer streamed bytes, so
// they are verified against the bitwise tier with a *derived* per-row bound
// (kokkos-kernels fSPMV style): storage error per entry times |x|, plus
// accumulation-order slack.  The suite checks
//  (a) every fast kernel against the bitwise tier on all cases:: matrices,
//      thread counts {1, 2, 5}, with the derived eps — and run-to-run
//      determinism at each thread count;
//  (b) that the bound is *tight*: a deliberately miscompiled reference with
//      a one-column indexing bug must violate it (the tolerance framework
//      can catch real bugs, not just pass everything);
//  (c) the service path: per-request tiers, tier-uniform batches, and the
//      untouched bitwise default.
//
// Suite names start with FastTier so CI can run `ctest -R FastTier` under
// the sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "cases/cases.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"
#include "service/dose_service.hpp"
#include "sparse/random.hpp"
#include "sparse/reference.hpp"

namespace pd::kernels {
namespace {

using Tier = DoseEngine::Tier;
using FastFormat = DoseEngine::FastFormat;
using Mode = DoseEngine::Mode;
using Backend = DoseEngine::Backend;

const std::vector<cases::BeamDataset>& beams() {
  static const std::vector<cases::BeamDataset> b =
      cases::generate_all_beams(0.2);
  return b;
}

std::vector<double> weights_for(std::uint64_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return sparse::random_vector(rng, cols, 0.0, 2.0);
}

constexpr double kUlp53 = 1.1102230246251565e-16;  // 2^-53
constexpr double kUlp24 = 5.9604644775390625e-8;   // 2^-24

/// Per-column absolute storage error of the rsformat container:
/// quantization scale/2, widened slightly (0.51) because the per-column
/// scale itself is stored as float (q <= 65535 entries multiply a scale
/// that rounded with 2^-24 relative error).
std::vector<double> rsformat_col_err(const rsformat::RsMatrix& rs) {
  std::vector<double> err(rs.num_cols());
  for (std::uint64_t c = 0; c < err.size(); ++c) {
    err[c] = 1.02 * rs.max_abs_error(static_cast<std::uint32_t>(c));
  }
  return err;
}

/// Same derivation for the quantized SELL-C-σ container — identical
/// quantization recipe (u16 against a per-column float scale), so the same
/// 1.02 × scale/2 per-entry bound applies.
std::vector<double> sellcsq_col_err(const sparse::SellCsQMatrix& m) {
  std::vector<double> err(m.num_cols);
  for (std::uint64_t c = 0; c < err.size(); ++c) {
    err[c] = 1.02 * m.max_abs_error(static_cast<std::uint32_t>(c));
  }
  return err;
}

/// Derived per-row tolerance for |fast - bitwise| (docs/fast_tier.md):
///
///   bound_r = sum_k err_k |x_ck|  +  4 n_r u sum_k |v_k x_ck|
///
/// where err_k is the per-entry absolute storage error (col_err[c], or
/// rel_err * |v_k| when col_err is null), n_r the row's nnz and u the unit
/// roundoff of the wider accumulation side.  The first term bounds the
/// different values being summed; the second covers both tiers'
/// accumulation orders (each is within gamma_n ~ n*u of the exact sum of
/// its products; 4x gives both sides margin over the first-order estimate).
std::vector<double> derive_bounds(const sparse::CsrF64& wide,
                                  const std::vector<double>& x,
                                  const std::vector<double>* col_err,
                                  double rel_err, double acc_ulp) {
  std::vector<double> bound(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double storage = 0.0;
    double magnitude = 0.0;
    const std::uint64_t n = wide.row_nnz(r);
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      const double ax = std::fabs(x[wide.col_idx[k]]);
      const double err = col_err != nullptr
                             ? (*col_err)[wide.col_idx[k]]
                             : rel_err * std::fabs(wide.values[k]);
      storage += err * ax;
      magnitude += std::fabs(wide.values[k]) * ax;
    }
    bound[r] = storage +
               4.0 * static_cast<double>(n) * acc_ulp * magnitude;
  }
  return bound;
}

void expect_within(const std::vector<double>& fast,
                   const std::vector<double>& bitwise,
                   const std::vector<double>& bound, const char* what) {
  ASSERT_EQ(fast.size(), bitwise.size());
  for (std::size_t r = 0; r < fast.size(); ++r) {
    ASSERT_LE(std::fabs(fast[r] - bitwise[r]), bound[r])
        << what << ": row " << r;
  }
}

void check_beam(const cases::BeamDataset& ds, FastFormat format, Mode mode) {
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), mode,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const auto x = weights_for(engine.num_spots(), 97 + ds.beam.matrix.nnz());
  const std::vector<double> bitwise = engine.compute(x);
  const sparse::CsrF64 wide = engine.stored_matrix_as_double();
  engine.set_tier(Tier::kFast, format);

  std::vector<double> bound;
  // kSingle's bitwise tier accumulates in float, so its side of the order
  // slack is 2^-24; the other modes accumulate in double on both sides.
  const double acc_ulp = mode == Mode::kSingle ? kUlp24 : kUlp53;
  if (format == FastFormat::kRsFormat) {
    const auto col_err = rsformat_col_err(engine.fast_rs_matrix());
    bound = derive_bounds(wide, x, &col_err, 0.0, acc_ulp);
  } else if (format == FastFormat::kSellCsQ) {
    const auto col_err = sellcsq_col_err(engine.fast_sellq_matrix());
    bound = derive_bounds(wide, x, &col_err, 0.0, acc_ulp);
  } else {
    bound = derive_bounds(wide, x, nullptr, kUlp24, acc_ulp);
  }

  for (const unsigned threads : {1u, 2u, 5u}) {
    engine.set_native_threads(threads);
    const std::vector<double> fast = engine.compute(x);
    expect_within(fast, bitwise, bound,
                  (ds.label + " t" + std::to_string(threads)).c_str());
    // Same thread count, same bits (run-to-run determinism).
    EXPECT_EQ(fast, engine.compute(x)) << ds.label << " t" << threads;
  }
}

TEST(FastTierCases, RsFormatWithinDerivedBoundOnAllBeams) {
  for (const auto& ds : beams()) {
    check_beam(ds, FastFormat::kRsFormat, Mode::kHalfDouble);
  }
}

TEST(FastTierCases, SellCsWithinDerivedBoundOnAllBeams) {
  for (const auto& ds : beams()) {
    check_beam(ds, FastFormat::kSellCs, Mode::kHalfDouble);
  }
}

TEST(FastTierCases, SellCsQWithinDerivedBoundOnAllBeams) {
  for (const auto& ds : beams()) {
    check_beam(ds, FastFormat::kSellCsQ, Mode::kHalfDouble);
  }
}

TEST(FastTierCases, OtherPrecisionModesStayInBound) {
  check_beam(beams().front(), FastFormat::kRsFormat, Mode::kSingle);
  check_beam(beams().front(), FastFormat::kSellCs, Mode::kSingle);
  check_beam(beams().front(), FastFormat::kSellCsQ, Mode::kSingle);
  check_beam(beams().front(), FastFormat::kRsFormat, Mode::kDouble);
  check_beam(beams().front(), FastFormat::kSellCs, Mode::kDouble);
  check_beam(beams().front(), FastFormat::kSellCsQ, Mode::kDouble);
}

TEST(FastTierCases, SwitchingTiersLeavesBitwiseBitsAlone) {
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const auto x = weights_for(engine.num_spots(), 11);
  const std::vector<double> before = engine.compute(x);
  engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
  (void)engine.compute(x);
  engine.set_tier(Tier::kFast, FastFormat::kSellCs);
  (void)engine.compute(x);
  engine.set_tier(Tier::kFast, FastFormat::kSellCsQ);
  (void)engine.compute(x);
  engine.set_tier(Tier::kBitwise);
  EXPECT_EQ(engine.compute(x), before);
}

TEST(FastTierCases, TunerPrefersTheSmallerContainer) {
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
  engine.set_tier(Tier::kFast, FastFormat::kSellCs);
  engine.set_tier(Tier::kFast, FastFormat::kSellCsQ);
  const std::uint64_t rs = rsformat_streamed_bytes(engine.fast_rs_matrix());
  const std::uint64_t sell = sellcs_streamed_bytes(engine.fast_sell_matrix());
  const std::uint64_t sellq =
      sellcs_q_streamed_bytes(engine.fast_sellq_matrix());
  const std::uint64_t csr = engine.stored_matrix_as_double().bytes();
  // The fused container meets the paper-case headline (<= 60% of
  // CSR-double traffic).
  EXPECT_LE(static_cast<double>(rs), 0.60 * static_cast<double>(csr));
  // The fast-tier-v2 headline: the quantized SELL container streams at most
  // half the float SELL container's bytes.
  EXPECT_LE(static_cast<double>(sellq), 0.50 * static_cast<double>(sell));
}

// --- batched fused rsformat --------------------------------------------------

// The batched kernel's contract (kernels/rsformat_spmv.hpp): every output
// column of a K-wide launch is bitwise identical to a looped single-RHS
// product at the same thread count — same column partition, same fixed-order
// scratch merge, and zero-weight lanes add only +0.0.
TEST(FastTierBatched, BatchedFusedMatchesLoopedBitwise) {
  for (const auto& ds : {beams().front(), beams().back()}) {
    DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                      kDefaultVectorTpb, SpmvFamily::kVector,
                      Backend::kNative);
    engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
    const std::size_t spots = engine.num_spots();
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{9}}) {
      Rng rng(500 + k);
      std::vector<double> bw =
          sparse::random_vector(rng, k * spots, 0.0, 2.0);
      for (const unsigned threads : {1u, 2u, 5u}) {
        engine.set_native_threads(threads);
        const std::vector<std::vector<double>> batched =
            engine.compute_batch(bw, k);
        ASSERT_EQ(batched.size(), k);
        for (std::size_t j = 0; j < k; ++j) {
          const std::vector<double> looped = engine.compute(
              std::span<const double>(bw.data() + j * spots, spots));
          EXPECT_EQ(batched[j], looped)
              << ds.label << " K=" << k << " lane " << j << " t" << threads;
        }
      }
    }
  }
}

// A lane of all-zero weights exercises the +0.0 identity argument: the
// single-RHS kernel skips zero-weight columns outright, the batched kernel
// does not, and the bits must still agree (the zero lane's dose is exactly
// the zero vector).
TEST(FastTierBatched, ZeroWeightLaneStaysBitwise) {
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
  const std::size_t spots = engine.num_spots();
  std::vector<double> bw(3 * spots, 0.0);
  Rng rng(321);
  for (std::size_t c = 0; c < spots; ++c) {
    bw[c] = rng.uniform(0.5, 2.0);              // lane 0: dense weights
    bw[2 * spots + c] = c % 2 ? 0.0 : bw[c];    // lane 2: half zeros
  }                                             // lane 1: all zero
  const auto batched = engine.compute_batch(bw, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    const std::vector<double> looped = engine.compute(
        std::span<const double>(bw.data() + j * spots, spots));
    EXPECT_EQ(batched[j], looped) << "lane " << j;
  }
  for (const double d : batched[1]) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d),
              std::bit_cast<std::uint64_t>(0.0));  // +0.0, never -0.0
  }
}

// --- (b) the bound is tight enough to catch a real bug ----------------------

TEST(FastTierBound, CatchesAnOffByOneColumnBug) {
  // Miscompile the reference on purpose: every entry reads its right
  // neighbour's weight, the classic off-by-one indexing bug.  If the derived
  // bound were loose enough to absorb this, the whole differential suite
  // would be vacuous — require a clear violation.
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  Rng rng(1234);
  // Weights bounded away from zero so adjacent columns always differ.
  const auto x = sparse::random_vector(rng, engine.num_spots(), 0.5, 2.0);
  const sparse::CsrF64 wide = engine.stored_matrix_as_double();

  std::vector<double> buggy(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      acc += wide.values[k] *
             x[(wide.col_idx[k] + 1) % wide.num_cols];  // the bug
    }
    buggy[r] = acc;
  }

  engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
  const std::vector<double> fast = engine.compute(x);
  const auto col_err = rsformat_col_err(engine.fast_rs_matrix());
  const auto bound = derive_bounds(wide, x, &col_err, 0.0, kUlp53);

  std::uint64_t violations = 0;
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    if (std::fabs(fast[r] - buggy[r]) > bound[r]) {
      ++violations;
    }
  }
  // Nearly every non-empty row should scream; demand a decisive majority so
  // the test itself is not flaky about a handful of cancelling rows.
  std::uint64_t nonempty = 0;
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    nonempty += wide.row_nnz(r) > 0 ? 1 : 0;
  }
  EXPECT_GT(violations, nonempty / 2);
}

TEST(FastTierBound, CatchesAnOffByOneColumnBugQuantized) {
  // Same tightness demand for the quantized SELL bound: a one-column
  // indexing bug in a reference must blow through it on most rows.
  const auto& ds = beams().front();
  DoseEngine engine(ds.beam.matrix, gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  Rng rng(4321);
  const auto x = sparse::random_vector(rng, engine.num_spots(), 0.5, 2.0);
  const sparse::CsrF64 wide = engine.stored_matrix_as_double();

  std::vector<double> buggy(wide.num_rows, 0.0);
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    double acc = 0.0;
    for (std::uint32_t k = wide.row_ptr[r]; k < wide.row_ptr[r + 1]; ++k) {
      acc += wide.values[k] *
             x[(wide.col_idx[k] + 1) % wide.num_cols];  // the bug
    }
    buggy[r] = acc;
  }

  engine.set_tier(Tier::kFast, FastFormat::kSellCsQ);
  const std::vector<double> fast = engine.compute(x);
  const auto col_err = sellcsq_col_err(engine.fast_sellq_matrix());
  const auto bound = derive_bounds(wide, x, &col_err, 0.0, kUlp53);

  std::uint64_t violations = 0, nonempty = 0;
  for (std::uint64_t r = 0; r < wide.num_rows; ++r) {
    violations += std::fabs(fast[r] - buggy[r]) > bound[r] ? 1 : 0;
    nonempty += wide.row_nnz(r) > 0 ? 1 : 0;
  }
  EXPECT_GT(violations, nonempty / 2);
}

// --- (c) service integration -------------------------------------------------

TEST(FastTierService, PerRequestTiersShareAPlanSafely) {
  const std::uint64_t rows = 300, cols = 90;
  const auto plan_matrix = [] {
    Rng rng(77);
    return sparse::random_csr(rng, 300, 90, 12.0,
                              sparse::RandomStructure::kSkewed);
  };

  service::ServiceConfig config;
  config.workers = 2;
  config.batch_cap = 4;
  config.flush_deadline_ms = 0.5;
  config.engine.device = gpusim::make_a100();
  config.engine.backend = Backend::kNative;
  service::DoseService svc(config);
  svc.register_plan("p", plan_matrix);

  // Sequential oracle + bound ingredients.
  DoseEngine oracle(plan_matrix(), gpusim::make_a100(), Mode::kHalfDouble,
                    kDefaultVectorTpb, SpmvFamily::kVector, Backend::kNative);
  const sparse::CsrF64 wide = oracle.stored_matrix_as_double();
  oracle.set_tier(Tier::kFast, FastFormat::kRsFormat);
  const auto col_err = rsformat_col_err(oracle.fast_rs_matrix());
  oracle.set_tier(Tier::kBitwise);

  struct Sent {
    service::Ticket ticket;
    std::vector<double> weights;
    Tier tier;
    FastFormat format;
  };
  std::vector<Sent> sent;
  for (int i = 0; i < 24; ++i) {
    Rng rng(1000 + i);
    std::vector<double> w = sparse::random_vector(rng, cols, 0.0, 2.0);
    service::SubmitOptions opts;
    opts.tier = i % 3 == 0 ? Tier::kBitwise : Tier::kFast;
    opts.fast_format =
        i % 3 == 1 ? FastFormat::kRsFormat : FastFormat::kSellCs;
    Sent s{svc.submit("p", w, opts), w, opts.tier, opts.fast_format};
    sent.push_back(std::move(s));
  }
  svc.drain();

  for (Sent& s : sent) {
    service::DoseResult r = s.ticket.result.get();
    ASSERT_EQ(r.status, service::RequestStatus::kOk);
    ASSERT_EQ(r.dose.size(), rows);
    const std::vector<double> ref = oracle.compute(s.weights);
    if (s.tier == Tier::kBitwise) {
      // The PR 5 contract, untouched: bitwise identical to a sequential
      // engine, even with fast batches interleaved on the same plan/engine.
      EXPECT_EQ(r.dose, ref);
    } else {
      const auto bound = derive_bounds(
          wide, s.weights,
          s.format == FastFormat::kRsFormat ? &col_err : nullptr, kUlp24,
          kUlp53);
      expect_within(r.dose, ref, bound, "service fast request");
    }
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_GT(stats.fast_batches, 0u);
  EXPECT_GT(stats.batches, stats.fast_batches);  // bitwise launches too
}

TEST(FastTierService, QueueSplitsMixedTierBatchesUniformly) {
  service::BatchQueue queue(service::BatchQueueConfig{8, 64, 1000});
  const auto push = [&](std::uint64_t id, std::uint32_t key) {
    service::QueuedRequest r;
    r.id = id;
    r.plan = "p";
    r.enqueue_tick = id;
    r.exec_key = key;
    ASSERT_TRUE(queue.submit(std::move(r)));
  };
  push(1, 0);
  push(2, 0);
  push(3, 1);
  push(4, 1);
  push(5, 0);

  const auto ids = [](const std::vector<service::QueuedRequest>& batch) {
    std::vector<std::uint64_t> v;
    for (const auto& r : batch) {
      v.push_back(r.id);
    }
    return v;
  };
  // Uniform prefixes pop in FIFO order; the plan goes busy between launches.
  auto b1 = queue.pop_ready(0, /*drain=*/true);
  EXPECT_EQ(ids(b1), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(queue.pop_ready(0, true).empty());  // busy
  queue.mark_idle("p");
  auto b2 = queue.pop_ready(0, true);
  EXPECT_EQ(ids(b2), (std::vector<std::uint64_t>{3, 4}));
  queue.mark_idle("p");
  auto b3 = queue.pop_ready(0, true);
  EXPECT_EQ(ids(b3), (std::vector<std::uint64_t>{5}));
  queue.mark_idle("p");
  EXPECT_EQ(queue.depth(), 0u);
}

}  // namespace
}  // namespace pd::kernels
