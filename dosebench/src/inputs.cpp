#include "inputs.hpp"

#include <algorithm>

#include "cases/cases.hpp"
#include "harness.hpp"
#include "sparse/random.hpp"

namespace dosebench {

std::vector<Beam> generate_beams(double scale, unsigned threads) {
  struct Job {
    const pd::cases::CaseDefinition* def;
    const pd::phantom::Phantom* phantom;
    std::size_t index;
    std::string name;
  };
  const pd::cases::CaseDefinition liver = pd::cases::liver_case(scale);
  const pd::cases::CaseDefinition prostate = pd::cases::prostate_case(scale);
  const pd::phantom::Phantom liver_phantom = pd::cases::build_phantom(liver);
  const pd::phantom::Phantom prostate_phantom =
      pd::cases::build_phantom(prostate);
  std::vector<Job> jobs;
  for (std::size_t b = 0; b < liver.num_beams(); ++b) {
    jobs.push_back({&liver, &liver_phantom, b, "liver" + std::to_string(b + 1)});
  }
  for (std::size_t b = 0; b < prostate.num_beams(); ++b) {
    jobs.push_back({&prostate, &prostate_phantom, b,
                    "prostate" + std::to_string(b + 1)});
  }
  // Largest beams first so the slowest one starts immediately.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::reverse(order.begin(), order.begin() + liver.num_beams());
  std::vector<Beam> beams(jobs.size());
  parallel_for(jobs.size(), threads, [&](std::size_t k, unsigned) {
    const Job& job = jobs[order[k]];
    pd::mc::GeneratedBeam generated =
        pd::cases::generate_beam(*job.def, *job.phantom, job.index);
    beams[order[k]] = Beam{
        job.name,
        std::make_shared<const pd::sparse::CsrF64>(std::move(generated.matrix))};
  });
  return beams;
}

std::vector<double> random_weights(pd::Rng& rng, std::uint64_t spots) {
  return pd::sparse::random_vector(rng, spots, 0.5, 2.0);
}

std::vector<double> perturb_weights(pd::Rng& rng,
                                    const std::vector<double>& base,
                                    double fraction) {
  std::vector<double> out = base;
  const std::size_t changes = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(base.size())));
  for (std::size_t k = 0; k < changes; ++k) {
    out[rng.uniform_index(out.size())] = rng.uniform(0.5, 2.0);
  }
  return out;
}

double hd_product_bytes(const pd::sparse::CsrF64& m) {
  return 6.0 * static_cast<double>(m.nnz()) +
         12.0 * static_cast<double>(m.num_rows) +
         8.0 * static_cast<double>(m.num_cols);
}

}  // namespace dosebench
