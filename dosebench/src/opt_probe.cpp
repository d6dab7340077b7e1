// The opt layer probe of every traced run: PlanOptimizer L-BFGS on the
// combined four-beam liver plan — the paper's motivating loop (forward and
// transposed products plus optimizer host math) with no service layer in
// between.

#include <algorithm>
#include <memory>
#include <vector>

#include "cases/cases.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "kernels/dose_engine.hpp"
#include "opt/optimizer.hpp"
#include "opt/plan.hpp"
#include "sparse/coo.hpp"
#include "sparse/reference.hpp"
#include "workloads.hpp"

namespace dosebench {
namespace {

constexpr unsigned kIterations = 40;
constexpr unsigned kOptThreads = 4;  // native threads per product, <= nproc
constexpr int kRepeats = 3;          ///< Timed optimize() calls.

bool same_result(const pd::opt::OptimizerResult& a,
                 const pd::opt::OptimizerResult& b) {
  return same_bits(a.spot_weights, b.spot_weights) && same_bits(a.dose, b.dose) &&
         same_bits(a.objective_history, b.objective_history) &&
         a.iterations == b.iterations && a.spmv_count == b.spmv_count &&
         a.delta_spmv_count == b.delta_spmv_count;
}

pd::opt::OptimizerConfig optimizer_config() {
  pd::opt::OptimizerConfig cfg;
  cfg.method = pd::opt::OptimizerMethod::kLbfgs;
  cfg.max_iterations = kIterations;
  cfg.gradient_tolerance = 0.0;  // always run the fixed iteration count
  cfg.native_threads = kOptThreads;
  return cfg;
}

/// One set-up: the combined plan, its optimizer (engines built) and the
/// result of the untimed first optimize().
struct Setup {
  pd::sparse::CsrF64 D;
  std::unique_ptr<pd::opt::PlanOptimizer> optimizer;
  pd::opt::OptimizerResult first;
};

/// Plan assembly from the four liver beams, engine construction and one
/// untimed optimize() (the first call on an optimizer runs slower than later
/// ones).
/// The seed sets the clinical goals: prescription and OAR tolerance as
/// fractions of the unit-weight peak dose.
std::unique_ptr<Setup> assemble(const std::vector<Beam>& liver,
                                const RunOptions& opts) {
  pd::Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL + 17);
  const double rx_frac = rng.uniform(0.58, 0.62);
  const double oar_frac = rng.uniform(0.23, 0.27);
  auto s = std::make_unique<Setup>();
  const pd::cases::CaseDefinition def = pd::cases::liver_case(opts.scale);
  pd::opt::TreatmentPlan plan;
  for (std::size_t b = 0; b < liver.size(); ++b) {
    plan.add_beam(liver[b].name, def.gantry_angles_deg[b],
                  pd::sparse::CsrF64(*liver[b].matrix));
  }
  s->D = plan.combined_matrix();
  std::vector<double> unit(s->D.num_cols, 1.0);
  std::vector<double> peak(s->D.num_rows, 0.0);
  pd::sparse::reference_spmv(s->D, unit, peak);
  double max_dose = 0.0;
  for (const double d : peak) max_dose = std::max(max_dose, d);
  s->optimizer = std::make_unique<pd::opt::PlanOptimizer>(
      s->D,
      pd::opt::DoseObjective::standard_goals(pd::cases::build_phantom(def),
                                             rx_frac * max_dose,
                                             oar_frac * max_dose),
      pd::gpusim::make_a100(), optimizer_config());
  s->first = s->optimizer->optimize();
  return s;
}

/// Timed optimize() calls on the set-up's engines; each must reproduce the
/// warm-up bits.  Seconds per call.
std::vector<double> repeats(Setup& setup, Tracer& tracer, Verdict& verdict) {
  std::vector<double> times;
  for (int i = 0; i < kRepeats; ++i) {
    const auto s0 = Clock::now();
    pd::opt::OptimizerResult r = setup.optimizer->optimize();
    const auto s1 = Clock::now();
    if (tracer.enabled()) tracer.record("optimize", s0, s1, times.size());
    times.push_back(ms_between(s0, s1) / 1e3);
    verdict.check(same_result(r, setup.first),
                  "opt probe: optimize() repeat is not bitwise identical");
  }
  return times;
}

/// The opt layer and the optimizer's two products: OptimizerResult figures,
/// then the forward and transposed products alone, on engines built the
/// way PlanOptimizer builds them.  `plan_s` is the median optimize() time.
void report_opt_layers(Metrics& m, const Setup& setup, double plan_s) {
  auto engine = [&](pd::sparse::CsrF64 matrix) {
    auto e = std::make_unique<pd::kernels::DoseEngine>(
        std::move(matrix), pd::gpusim::make_a100(),
        pd::kernels::DoseEngine::Mode::kHalfDouble,
        pd::kernels::kDefaultVectorTpb, pd::kernels::SpmvFamily::kVector,
        pd::kernels::DoseEngine::Backend::kNative);
    e->set_native_threads(kOptThreads);
    return e;
  };
  auto time_ms = [](pd::kernels::DoseEngine& e, const std::vector<double>& x) {
    std::vector<double> t;
    for (int i = 0; i < 9; ++i) {
      const auto s0 = Clock::now();
      (void)e.compute(x);
      t.push_back(ms_between(s0, Clock::now()));
    }
    return median(t);
  };
  const pd::opt::OptimizerResult& first = setup.first;
  double forward_ms = 0.0, transpose_ms = 0.0;
  {
    auto fwd = engine(pd::sparse::CsrF64(setup.D));
    forward_ms = time_ms(*fwd, first.spot_weights);
  }
  {
    auto tr = engine(pd::sparse::transpose(setup.D));
    transpose_ms = time_ms(*tr, first.dose);
  }
  // Every accepted iteration and the start cost one transposed product;
  // the rest of spmv_count are forward (or delta) products.
  const double transposes = 1.0 + first.iterations;
  const double forwards = static_cast<double>(first.spmv_count) - transposes;
  m.set("kernel.forward_ms", forward_ms, "ms");
  m.set("kernel.transpose_ms", transpose_ms, "ms");
  m.set("opt.iterations", first.iterations, "count");
  m.set("opt.products", static_cast<double>(first.spmv_count), "count");
  m.set("opt.delta_products", static_cast<double>(first.delta_spmv_count), "count");
  m.set("opt.engine_setup_s", first.setup_seconds, "s");
  m.set("opt.final_objective", first.objective_history.back(), "1");
  m.set("opt.self_s",
        plan_s - (forwards * forward_ms + transposes * transpose_ms) / 1e3, "s");
}

}  // namespace

void profile_opt(Metrics& m, const std::vector<Beam>& beams,
                 const RunOptions& opts, Tracer& tracer, Verdict& verdict) {
  std::vector<Beam> liver;
  for (const Beam& b : beams) {
    if (b.name.rfind("liver", 0) == 0) liver.push_back(b);
  }
  std::unique_ptr<Setup> setup = assemble(liver, opts);
  tracer.enable(true);
  const std::vector<double> times = repeats(*setup, tracer, verdict);
  tracer.enable(false);
  report_opt_layers(m, *setup, median(times));
}

}  // namespace dosebench
