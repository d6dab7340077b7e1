#pragma once
// Seeded inputs: the six Table I beams (generated in-process every run —
// no on-disk matrix cache) and per-plan weight pools.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sparse/csr.hpp"

namespace dosebench {

struct Beam {
  std::string name;  ///< Metric-safe Table I label: liver1..4, prostate1..2.
  std::shared_ptr<const pd::sparse::CsrF64> matrix;
};

/// Generate the six Table I beams at `scale` on up to `threads` threads
/// (the calling thread included).  Deterministic: each beam has its own
/// fixed generator seed.
std::vector<Beam> generate_beams(double scale, unsigned threads);

/// Spot weights in [0.5, 2), the service benches' range.
std::vector<double> random_weights(pd::Rng& rng, std::uint64_t spots);

/// Copy of `base` with ~`fraction` of its spots re-drawn (at least one):
/// the small steps an optimizer session sends as delta requests.
std::vector<double> perturb_weights(pd::Rng& rng,
                                    const std::vector<double>& base,
                                    double fraction);

/// Computed bytes one bitwise half/double CSR product streams: the paper's
/// §V model, 6 B per nnz (half value + u32 column) + 12 B per row (row
/// pointer + double dose) + 8 B per spot (double weight).
double hd_product_bytes(const pd::sparse::CsrF64& m);

}  // namespace dosebench
