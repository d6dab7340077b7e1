// protondose — command-line front end for the library.
//
// Subcommands:
//   generate   generate a case beam's dose deposition matrix and export it
//   stats      print Table I / Figure 2 style structure statistics
//   spmv       run a kernel on the simulated GPU and report modeled performance
//   optimize   run the treatment-plan optimizer on a case
//   serve-replay  replay a request stream through the batching dose service
//
// Run `protondose <subcommand> --help` for per-command options.

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <memory>
#include <iostream>
#include <string>
#include <thread>

#include "cases/cases.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "service/dose_service.hpp"
#include "service/sharded_service.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profile.hpp"
#include "kernels/analytic.hpp"
#include "kernels/dose_engine.hpp"
#include "kernels/rsformat_spmv.hpp"
#include "kernels/sellcs_spmv.hpp"
#include "kernels/tuner.hpp"
#include "kernels/vector_csr.hpp"
#include "roofline/roofline.hpp"
#include "sparse/convert.hpp"
#include "opt/dvh.hpp"
#include "opt/optimizer.hpp"
#include "sparse/io.hpp"
#include "sparse/reference.hpp"
#include "sparse/stats.hpp"

namespace {

using pd::cases::CaseDefinition;

CaseDefinition case_by_name(const std::string& name, double scale) {
  if (name == "liver") {
    return pd::cases::liver_case(scale);
  }
  if (name == "prostate") {
    return pd::cases::prostate_case(scale);
  }
  throw pd::Error("unknown case '" + name + "' (expected liver or prostate)");
}

pd::gpusim::DeviceSpec device_by_name(const std::string& name) {
  if (name == "a100") return pd::gpusim::make_a100();
  if (name == "v100") return pd::gpusim::make_v100();
  if (name == "p100") return pd::gpusim::make_p100();
  throw pd::Error("unknown device '" + name + "' (expected a100|v100|p100)");
}

pd::sparse::CsrF64 load_or_generate(const pd::CliParser& cli) {
  const std::string in = cli.get("in");
  if (!in.empty()) {
    if (in.size() > 4 && in.substr(in.size() - 4) == ".mtx") {
      return pd::sparse::read_matrix_market_file(in);
    }
    return pd::sparse::read_binary_file(in);
  }
  const auto def = case_by_name(cli.get("case"), cli.get_double("scale"));
  const auto patient = pd::cases::build_phantom(def);
  return pd::cases::generate_beam(def, patient,
                                  static_cast<std::size_t>(cli.get_int("beam")))
      .matrix;
}

void add_source_options(pd::CliParser& cli) {
  cli.add_option("in", "", "input matrix (.mtx or .pdsm); overrides --case");
  cli.add_option("case", "liver", "case to generate: liver or prostate");
  cli.add_option("beam", "0", "beam index within the case");
  cli.add_option("scale", "1.0", "case scale");
}

int cmd_generate(int argc, const char* const* argv) {
  pd::CliParser cli("protondose generate",
                    "generate a dose deposition matrix and export it");
  add_source_options(cli);
  cli.add_option("out", "beam.pdsm", "output path (.mtx or .pdsm)");
  if (!cli.parse(argc, argv)) return 0;

  const auto matrix = load_or_generate(cli);
  const std::string out = cli.get("out");
  if (out.size() > 4 && out.substr(out.size() - 4) == ".mtx") {
    pd::sparse::write_matrix_market_file(out, matrix);
  } else {
    pd::sparse::write_binary_file(out, matrix);
  }
  std::cout << "wrote " << out << ": " << matrix.num_rows << " x "
            << matrix.num_cols << ", nnz " << matrix.nnz() << "\n";
  return 0;
}

int cmd_stats(int argc, const char* const* argv) {
  pd::CliParser cli("protondose stats", "matrix structure statistics");
  add_source_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto matrix = load_or_generate(cli);
  const auto s = pd::sparse::compute_stats(matrix);
  pd::TextTable t({"quantity", "value"});
  t.add_row({"rows (voxels)", std::to_string(s.rows)});
  t.add_row({"cols (spots)", std::to_string(s.cols)});
  t.add_row({"non-zeros", std::to_string(s.nnz)});
  t.add_row({"density", pd::fmt_percent(s.density, 2)});
  t.add_row({"empty rows", pd::fmt_percent(s.empty_row_fraction, 1)});
  t.add_row({"mean nnz / non-empty row",
             pd::fmt_double(s.mean_nnz_per_nonempty_row, 1)});
  t.add_row({"max row nnz", std::to_string(s.max_row_nnz)});
  t.add_row({"non-empty rows < 32 nnz",
             pd::fmt_percent(s.frac_nonempty_below_warp, 1)});
  t.add_row({"CSR size (half + u32 cols)",
             pd::fmt_bytes(static_cast<double>(s.csr_bytes(2, 4)))});
  std::cout << t.str();
  std::cout << "\ncumulative row-length histogram:\n";
  for (const auto& p : pd::sparse::cumulative_row_length_histogram(s, 12)) {
    std::cout << "  <= " << p.row_length << ": "
              << pd::fmt_percent(p.cumulative_fraction, 1) << "\n";
  }
  return 0;
}

// `spmv --tier fast`: execute on compressed storage (docs/fast_tier.md),
// report wall-clock + streamed-bytes ratio + worst deviation from the
// bitwise tier.  No modeled GPU numbers: the fast tier is host-native only.
// With --batch K > 1, additionally runs the batched fused kernel and checks
// it bitwise against K looped single-RHS products (nonzero exit on mismatch).
int run_spmv_fast_tier(const pd::CliParser& cli,
                       pd::kernels::DoseEngine& engine,
                       const std::vector<double>& weights,
                       const std::string& mode_str) {
  using Tier = pd::kernels::DoseEngine::Tier;
  using FastFormat = pd::kernels::DoseEngine::FastFormat;

  engine.set_backend(pd::kernels::DoseEngine::Backend::kNative);
  engine.set_native_threads(static_cast<unsigned>(cli.get_int("threads")));
  const std::vector<double> bitwise_dose = engine.compute(weights);

  const std::string fmt_str = cli.get("format");
  FastFormat fmt;
  std::string fmt_name = fmt_str;
  if (fmt_str == "auto") {
    engine.set_tier(Tier::kFast, FastFormat::kRsFormat);
    engine.set_tier(Tier::kFast, FastFormat::kSellCs);
    std::uint64_t sellq_bytes = 0;
    try {
      engine.set_tier(Tier::kFast, FastFormat::kSellCsQ);
      sellq_bytes =
          pd::kernels::sellcs_q_streamed_bytes(engine.fast_sellq_matrix());
    } catch (const pd::Error&) {
      // Quantized container unavailable (negative values or > 2^16 spots);
      // the three-way choice degrades to the float pair.
    }
    const auto choice = pd::kernels::choose_fast_format(
        pd::kernels::rsformat_streamed_bytes(engine.fast_rs_matrix()),
        pd::kernels::sellcs_streamed_bytes(engine.fast_sell_matrix()),
        sellq_bytes);
    fmt = choice.format;
    fmt_name = choice.format == FastFormat::kRsFormat ? "rsformat"
               : choice.format == FastFormat::kSellCsQ ? "sellcsq"
                                                       : "sellcs";
  } else if (fmt_str == "rsformat") {
    fmt = FastFormat::kRsFormat;
  } else if (fmt_str == "sellcs") {
    fmt = FastFormat::kSellCs;
  } else if (fmt_str == "sellcsq") {
    fmt = FastFormat::kSellCsQ;
  } else {
    throw pd::Error("unknown format '" + fmt_str +
                    "' (expected rsformat, sellcs, sellcsq, or auto)");
  }
  engine.set_tier(Tier::kFast, fmt);

  const std::uint64_t csr_bytes = engine.stored_matrix_as_double().bytes();
  const std::uint64_t fast_bytes =
      fmt == FastFormat::kRsFormat
          ? pd::kernels::rsformat_streamed_bytes(engine.fast_rs_matrix())
      : fmt == FastFormat::kSellCsQ
          ? pd::kernels::sellcs_q_streamed_bytes(engine.fast_sellq_matrix())
          : pd::kernels::sellcs_streamed_bytes(engine.fast_sell_matrix());
  const char* variant =
      fmt == FastFormat::kRsFormat
          ? pd::kernels::rsformat_spmv_variant_name()
      : fmt == FastFormat::kSellCsQ
          ? pd::kernels::sellcs_q_spmv_variant_name(
                engine.fast_sellq_matrix().chunk_height)
          : pd::kernels::sellcs_spmv_variant_name(
                engine.fast_sell_matrix().chunk_height);

  std::vector<double> fast_dose = engine.compute(weights);  // warm-up
  double best_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    pd::WallTimer timer;
    fast_dose = engine.compute(weights);
    best_s = std::min(best_s, timer.seconds());
  }

  double max_abs = 0.0, max_ref = 0.0;
  for (std::size_t r = 0; r < fast_dose.size(); ++r) {
    max_abs = std::max(max_abs, std::abs(fast_dose[r] - bitwise_dose[r]));
    max_ref = std::max(max_ref, std::abs(bitwise_dose[r]));
  }

  pd::TextTable t({"quantity", "value"});
  t.add_row({"tier", "fast (" + fmt_name + ", " + variant + ")"});
  t.add_row({"mode", mode_str});
  t.add_row({"native threads",
             std::to_string(engine.native_threads())});
  t.add_row({"wall-clock / product", pd::fmt_sci(best_s, 3) + " s"});
  t.add_row({"streamed bytes",
             pd::fmt_bytes(static_cast<double>(fast_bytes)) + " vs " +
                 pd::fmt_bytes(static_cast<double>(csr_bytes)) +
                 " CSR-double"});
  t.add_row({"streamed-bytes ratio",
             pd::fmt_double(static_cast<double>(fast_bytes) /
                                static_cast<double>(csr_bytes),
                            3)});
  t.add_row({"max |fast - bitwise|",
             pd::fmt_sci(max_abs, 3) + " (dose max " +
                 pd::fmt_sci(max_ref, 3) + ")"});

  // --batch K: run the K-wide fused launch against K looped single-RHS
  // products on the same tier/format and verify bitwise equality (the
  // batched kernel's contract, docs/fast_tier.md).
  const int batch_k = cli.get_int("batch");
  std::size_t batch_mismatches = 0;
  if (batch_k > 1) {
    const std::size_t k = static_cast<std::size_t>(batch_k);
    const std::size_t spots = engine.num_spots();
    std::vector<double> batch_weights(k * spots);
    pd::Rng rng(7);
    for (double& v : batch_weights) v = rng.uniform(0.0, 2.0);

    std::vector<std::vector<double>> looped(k);
    const auto run_looped = [&] {
      for (std::size_t j = 0; j < k; ++j) {
        looped[j] = engine.compute(std::span<const double>(
            batch_weights.data() + j * spots, spots));
      }
    };
    const auto run_batched = [&] {
      return engine.compute_batch(batch_weights, k);
    };
    run_looped();
    std::vector<std::vector<double>> batched = run_batched();  // warm-up
    double loop_s = 1e300, batch_s = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      pd::WallTimer lt;
      run_looped();
      loop_s = std::min(loop_s, lt.seconds());
      pd::WallTimer bt;
      batched = run_batched();
      batch_s = std::min(batch_s, bt.seconds());
    }
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < looped[j].size(); ++r) {
        batch_mismatches += std::bit_cast<std::uint64_t>(batched[j][r]) !=
                            std::bit_cast<std::uint64_t>(looped[j][r]);
      }
    }
    t.add_row({"batched K=" + std::to_string(k),
               pd::fmt_sci(batch_s, 3) + " s vs " + pd::fmt_sci(loop_s, 3) +
                   " s looped (" + pd::fmt_double(loop_s / batch_s, 2) +
                   "x)"});
    t.add_row({"batched vs looped",
               batch_mismatches == 0
                   ? "bitwise identical (" + std::to_string(k) + " doses)"
                   : std::to_string(batch_mismatches) + " MISMATCHED values"});
  }
  std::cout << t.str();
  if (cli.get_flag("check")) {
    std::cout << "\nsimcheck: fast tier executes host-native; no simulated "
                 "launches to check\n";
  }
  return batch_mismatches == 0 ? 0 : 2;
}

int cmd_spmv(int argc, const char* const* argv) {
  pd::CliParser cli("protondose spmv",
                    "run a dose-calculation SpMV on the simulated GPU");
  add_source_options(cli);
  cli.add_option("device", "a100", "simulated device: a100, v100, p100");
  cli.add_option("mode", "half_double", "precision: half_double, single, double");
  cli.add_option("tpb", "512", "threads per block");
  cli.add_option("tier", "bitwise",
                 "accuracy tier: bitwise (simulated GPU, default) or fast "
                 "(host-native compute on compressed storage, "
                 "docs/fast_tier.md)");
  cli.add_option("format", "rsformat",
                 "fast-tier container: rsformat, sellcs, sellcsq, or auto "
                 "(fewest streamed bytes wins)");
  cli.add_option("threads", "1",
                 "native threads for the fast tier (0 = all hardware)");
  cli.add_option("batch", "1",
                 "fast tier only: also run a K-wide batched launch and "
                 "verify it bitwise against K looped products");
  cli.add_flag("profile", "print the full Nsight-style kernel profile");
  cli.add_flag("check", "run under the simcheck correctness analyzer "
                        "(memcheck/racecheck/synccheck/initcheck/"
                        "determinism-lint); nonzero exit on findings");
  if (!cli.parse(argc, argv)) return 0;

  const std::string mode_str = cli.get("mode");
  pd::kernels::DoseEngine::Mode mode;
  if (mode_str == "half_double") {
    mode = pd::kernels::DoseEngine::Mode::kHalfDouble;
  } else if (mode_str == "single") {
    mode = pd::kernels::DoseEngine::Mode::kSingle;
  } else if (mode_str == "double") {
    mode = pd::kernels::DoseEngine::Mode::kDouble;
  } else {
    throw pd::Error("unknown mode: " + mode_str);
  }

  pd::kernels::DoseEngine engine(
      load_or_generate(cli), device_by_name(cli.get("device")), mode,
      static_cast<unsigned>(cli.get_int("tpb")));
  if (cli.get_flag("check")) {
    engine.enable_check();
  }
  const std::vector<double> weights(engine.num_spots(), 1.0);

  const std::string tier_str = cli.get("tier");
  if (tier_str == "fast") {
    return run_spmv_fast_tier(cli, engine, weights, mode_str);
  }
  if (tier_str != "bitwise") {
    throw pd::Error("unknown tier '" + tier_str +
                    "' (expected bitwise or fast)");
  }
  engine.compute(weights);
  const auto est = engine.last_estimate();

  pd::TextTable t({"quantity", "value"});
  t.add_row({"kernel", mode_str});
  t.add_row({"device", cli.get("device")});
  t.add_row({"modeled time", pd::fmt_sci(est.seconds, 3) + " s"});
  t.add_row({"GFLOP/s", pd::fmt_double(est.gflops, 1)});
  t.add_row({"DRAM bandwidth", pd::fmt_double(est.dram_gbs, 1) + " GB/s (" +
                                   pd::fmt_percent(est.bandwidth_fraction, 1) +
                                   " of peak)"});
  t.add_row({"operational intensity",
             pd::fmt_double(est.operational_intensity, 3) + " FLOP/B"});
  t.add_row({"occupancy", pd::fmt_percent(est.occupancy, 0)});
  std::cout << t.str();
  if (cli.get_flag("profile")) {
    pd::gpusim::PerfInput in;
    in.stats = engine.last_run().stats;
    in.config = engine.last_run().config;
    in.precision = engine.last_run().precision;
    in.mean_work_per_warp = engine.stats().mean_nnz_per_nonempty_row;
    std::cout << "\n"
              << pd::gpusim::profile_report(
                     device_by_name(cli.get("device")), in, est, mode_str);
  }
  if (engine.check_enabled()) {
    std::cout << "\n" << engine.check_report().summary();
    if (!engine.check_report().clean()) {
      return 2;
    }
  }
  return 0;
}

int cmd_optimize(int argc, const char* const* argv) {
  pd::CliParser cli("protondose optimize",
                    "optimize spot weights for a generated case");
  cli.add_option("case", "prostate", "case: liver or prostate");
  cli.add_option("beam", "0", "beam index");
  cli.add_option("scale", "0.5", "case scale");
  cli.add_option("iterations", "25", "optimizer iterations");
  cli.add_option("device", "a100", "simulated device");
  if (!cli.parse(argc, argv)) return 0;

  const auto def = case_by_name(cli.get("case"), cli.get_double("scale"));
  const auto patient = pd::cases::build_phantom(def);
  const auto beam = pd::cases::generate_beam(
      def, patient, static_cast<std::size_t>(cli.get_int("beam")));

  std::vector<double> probe(beam.matrix.num_rows);
  pd::sparse::reference_spmv(beam.matrix,
                             std::vector<double>(beam.matrix.num_cols, 1.0),
                             probe);
  double max_dose = 0.0;
  for (const double d : probe) max_dose = std::max(max_dose, d);
  const double prescription = 0.5 * max_dose;

  pd::opt::OptimizerConfig cfg;
  cfg.max_iterations = static_cast<unsigned>(cli.get_int("iterations"));
  pd::opt::PlanOptimizer optimizer(
      beam.matrix,
      pd::opt::DoseObjective::standard_goals(patient, prescription,
                                             0.4 * prescription),
      device_by_name(cli.get("device")), cfg);
  const auto result = optimizer.optimize();

  const auto target_dvh =
      pd::opt::Dvh::for_roi(patient, pd::phantom::Roi::kTarget, result.dose);
  pd::TextTable t({"quantity", "value"});
  t.add_row({"iterations", std::to_string(result.iterations)});
  t.add_row({"SpMV products", std::to_string(result.spmv_count)});
  t.add_row({"objective", pd::fmt_sci(result.objective_history.front(), 2) +
                              " -> " +
                              pd::fmt_sci(result.objective_history.back(), 2)});
  t.add_row({"prescription", pd::fmt_double(prescription, 3)});
  t.add_row({"target D95", pd::fmt_double(target_dvh.dose_at_volume(0.95), 3)});
  t.add_row({"target mean", pd::fmt_double(target_dvh.mean_dose(), 3)});
  t.add_row({"homogeneity index",
             pd::fmt_double(pd::opt::homogeneity_index(target_dvh), 3)});
  std::cout << t.str();
  return 0;
}

int cmd_roofline(int argc, const char* const* argv) {
  pd::CliParser cli("protondose roofline",
                    "ASCII roofline of the kernel family on a matrix");
  add_source_options(cli);
  cli.add_option("device", "a100", "simulated device: a100, v100, p100");
  if (!cli.parse(argc, argv)) return 0;

  const auto matrix = load_or_generate(cli);
  const auto spec = device_by_name(cli.get("device"));
  pd::gpusim::Gpu gpu(spec);
  const auto stats = pd::sparse::compute_stats(matrix);

  std::vector<pd::roofline::RooflinePoint> points;
  for (const auto mode : {pd::kernels::DoseEngine::Mode::kHalfDouble,
                          pd::kernels::DoseEngine::Mode::kSingle,
                          pd::kernels::DoseEngine::Mode::kDouble}) {
    pd::kernels::DoseEngine engine(pd::sparse::CsrF64(matrix), spec, mode);
    engine.compute(std::vector<double>(matrix.num_cols, 1.0));
    const auto est = engine.last_estimate();
    const char* label = mode == pd::kernels::DoseEngine::Mode::kHalfDouble
                            ? "Half/Double"
                            : mode == pd::kernels::DoseEngine::Mode::kSingle
                                  ? "Single"
                                  : "Double";
    points.push_back({label, est.operational_intensity, est.gflops});
  }
  const auto model =
      pd::roofline::make_roofline(spec, pd::gpusim::FlopPrecision::kFp64);
  std::cout << pd::roofline::ascii_roofline(model, points) << "\n";
  (void)stats;
  return 0;
}

// `tune --fast`: run the measurement-driven fast-tier autotuner
// (kernels/tuner.hpp) and print the winning TunedConfig plus the candidate
// table.  --trials 0 pins the fully deterministic byte-model mode (the same
// pin CI uses via PROTONDOSE_TUNER_TRIALS).
int run_tune_fast_tier(const pd::CliParser& cli) {
  pd::kernels::DoseEngine engine(
      load_or_generate(cli), device_by_name(cli.get("device")),
      pd::kernels::DoseEngine::Mode::kHalfDouble,
      pd::kernels::kDefaultVectorTpb, pd::kernels::SpmvFamily::kVector,
      pd::kernels::DoseEngine::Backend::kNative);

  pd::kernels::TuneOptions opts = pd::kernels::tune_options_from_env();
  const int trials = cli.get_int("trials");
  if (trials >= 0) {
    opts.trials = static_cast<unsigned>(trials);
  }
  opts.probe_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("batch")));
  const pd::kernels::TunedConfig config =
      pd::kernels::autotune_fast_tier(engine, opts);

  const auto fmt_name = [](pd::kernels::DoseEngine::FastFormat f) {
    switch (f) {
      case pd::kernels::DoseEngine::FastFormat::kRsFormat: return "rsformat";
      case pd::kernels::DoseEngine::FastFormat::kSellCs: return "sellcs";
      case pd::kernels::DoseEngine::FastFormat::kSellCsQ: return "sellcsq";
      case pd::kernels::DoseEngine::FastFormat::kAuto: return "auto";
    }
    return "?";
  };

  pd::TextTable t({"quantity", "value"});
  t.add_row({"chosen format", fmt_name(config.format)});
  if (config.format != pd::kernels::DoseEngine::FastFormat::kRsFormat) {
    t.add_row({"chunk height C", std::to_string(config.sell_c)});
    t.add_row({"sort window sigma", std::to_string(config.sell_sigma)});
  }
  t.add_row({"fast threads", std::to_string(config.fast_threads)});
  t.add_row({"batch width", std::to_string(config.batch_width)});
  if (config.batched_speedup > 0.0) {
    t.add_row({"batched speedup",
               pd::fmt_double(config.batched_speedup, 2) + "x"});
  }
  t.add_row({"streamed bytes",
             pd::fmt_bytes(static_cast<double>(config.streamed_bytes))});
  if (config.us_per_product > 0.0) {
    t.add_row({"us / product", pd::fmt_double(config.us_per_product, 1)});
  }
  t.add_row({"trials", std::to_string(config.trials) +
                           (config.trials == 0 ? " (model-only)" : "")});
  std::cout << t.str();

  pd::TextTable c({"candidate", "streamed bytes", "us/product"});
  for (const pd::kernels::TuneCandidate& cand : config.candidates) {
    std::string name = fmt_name(cand.format);
    if (cand.format != pd::kernels::DoseEngine::FastFormat::kRsFormat) {
      name += " C=" + std::to_string(cand.sell_c) +
              " sigma=" + std::to_string(cand.sell_sigma);
    }
    c.add_row({name,
               pd::fmt_bytes(static_cast<double>(cand.streamed_bytes)),
               cand.measured ? pd::fmt_double(cand.us_per_product, 1)
                             : "(model)"});
  }
  std::cout << "\n" << c.str();
  return 0;
}

int cmd_tune(int argc, const char* const* argv) {
  pd::CliParser cli("protondose tune",
                    "threads-per-block sweep for the Half/Double kernel, or "
                    "(--fast) the fast-tier container/geometry autotuner");
  add_source_options(cli);
  cli.add_option("device", "a100", "simulated device: a100, v100, p100");
  cli.add_flag("fast", "autotune the fast tier (docs/fast_tier.md) instead "
                       "of sweeping threads-per-block");
  cli.add_option("trials", "-1",
                 "--fast: measurement repeats per candidate (0 = "
                 "deterministic byte-model only; -1 = PROTONDOSE_TUNER_TRIALS "
                 "or default)");
  cli.add_option("batch", "1",
                 "--fast: probe a K-wide batched launch for the tuned config");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_flag("fast")) {
    return run_tune_fast_tier(cli);
  }

  const auto matrix = load_or_generate(cli);
  const auto stats = pd::sparse::compute_stats(matrix);
  const auto mh = pd::sparse::convert_values<pd::Half>(matrix);
  const std::vector<double> x(matrix.num_cols, 1.0);
  std::vector<double> y(matrix.num_rows);

  pd::gpusim::Gpu gpu(device_by_name(cli.get("device")));
  const auto result = pd::kernels::tune_block_size(
      gpu.spec(),
      [&](unsigned tpb) {
        return pd::kernels::run_vector_csr<pd::Half, double>(
            gpu, mh, x, std::span<double>(y), tpb);
      },
      stats.mean_nnz_per_nonempty_row);

  pd::TextTable t({"threads/block", "GFLOP/s", "GB/s", "occupancy"});
  for (const auto& p : result.points) {
    t.add_row({std::to_string(p.threads_per_block),
               pd::fmt_double(p.estimate.gflops, 1),
               pd::fmt_double(p.estimate.dram_gbs, 1),
               pd::fmt_percent(p.estimate.occupancy, 0)});
  }
  std::cout << t.str() << "\nbest: " << result.best_threads_per_block
            << " threads/block\n";
  return 0;
}

// `protondose delta`: change a fraction of spot weights, update the dose
// incrementally (docs/delta_engine.md), and compare against full recompute.
// Verifies the bitwise-mode result on the spot: nonzero exit on mismatch.
int cmd_delta(int argc, const char* const* argv) {
  pd::CliParser cli("protondose delta",
                    "incremental dose update vs full recompute");
  add_source_options(cli);
  cli.add_option("changed-frac", "0.01",
                 "fraction of spot weights to change (at least one spot)");
  cli.add_option("mode", "half_double",
                 "precision: half_double, single, double");
  cli.add_option("threads", "1", "native threads (0 = all hardware)");
  cli.add_option("seed", "1", "weight / changed-spot seed");
  if (!cli.parse(argc, argv)) return 0;

  using Engine = pd::kernels::DoseEngine;
  const std::string mode_str = cli.get("mode");
  Engine::Mode mode;
  if (mode_str == "half_double") {
    mode = Engine::Mode::kHalfDouble;
  } else if (mode_str == "single") {
    mode = Engine::Mode::kSingle;
  } else if (mode_str == "double") {
    mode = Engine::Mode::kDouble;
  } else {
    throw pd::Error("unknown mode: " + mode_str);
  }

  Engine engine(load_or_generate(cli), pd::gpusim::make_a100(), mode,
                pd::kernels::kDefaultVectorTpb, Engine::Family::kVector,
                Engine::Backend::kNative);
  engine.set_native_threads(static_cast<unsigned>(cli.get_int("threads")));
  const std::size_t spots = engine.num_spots();

  pd::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  std::vector<double> w(spots);
  for (double& v : w) v = rng.uniform(0.5, 2.0);
  const double frac = cli.get_double("changed-frac");
  const std::size_t k = std::min<std::size_t>(
      spots, std::max<std::size_t>(
                 1, static_cast<std::size_t>(
                        std::llround(frac * static_cast<double>(spots)))));
  std::vector<double> w_new = w;
  std::vector<std::uint8_t> used(spots, 0);
  for (std::size_t changed = 0; changed < k;) {
    const std::size_t j = rng.uniform_index(spots);
    if (used[j] == 0) {
      used[j] = 1;
      w_new[j] = w[j] * 1.1 + 0.01;
      ++changed;
    }
  }

  const std::vector<double> base = engine.compute(w);
  const std::vector<double> full = engine.compute(w_new);

  const auto time_min = [&](const auto& fn) {
    fn();  // warm-up (also builds the CSC sidecar for the delta paths)
    double best_s = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      pd::WallTimer timer;
      fn();
      best_s = std::min(best_s, timer.seconds());
    }
    return best_s;
  };
  const double s_full = time_min([&] { engine.compute(w_new); });
  const double s_bitwise = time_min(
      [&] { engine.compute_delta(base, w, w_new, Engine::DeltaMode::kBitwise); });
  const double s_fast = time_min(
      [&] { engine.compute_delta(base, w, w_new, Engine::DeltaMode::kFast); });

  const std::vector<double> delta_dose =
      engine.compute_delta(base, w, w_new, Engine::DeltaMode::kBitwise);
  const Engine::DeltaRun run = engine.last_delta();
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < full.size(); ++r) {
    mismatches += std::bit_cast<std::uint64_t>(delta_dose[r]) !=
                  std::bit_cast<std::uint64_t>(full[r]);
  }

  const pd::sparse::MatrixStats& st = engine.stats();

  pd::TextTable t({"quantity", "value"});
  t.add_row({"mode", mode_str});
  t.add_row({"changed spots", std::to_string(run.changed_cols) + " of " +
                                  std::to_string(spots) + " (" +
                                  pd::fmt_percent(frac, 2) + " requested)"});
  t.add_row({"delta nnz", std::to_string(run.delta_nnz) + " of " +
                              std::to_string(st.nnz)});
  t.add_row({"touched rows", std::to_string(run.touched_rows) + " of " +
                                 std::to_string(st.rows)});
  t.add_row({"full recompute", pd::fmt_sci(s_full, 3) + " s"});
  t.add_row({"bitwise delta", pd::fmt_sci(s_bitwise, 3) + " s (" +
                                  pd::fmt_double(s_full / s_bitwise, 1) +
                                  "x)"});
  t.add_row({"fast delta (" +
                 std::string(pd::kernels::delta_spmv_variant_name()) + ")",
             pd::fmt_sci(s_fast, 3) + " s (" +
                 pd::fmt_double(s_full / s_fast, 1) + "x)"});
  t.add_row({"bitwise vs full", mismatches == 0
                                    ? "identical (" +
                                          std::to_string(full.size()) +
                                          " rows)"
                                    : std::to_string(mismatches) +
                                          " MISMATCHED rows"});
  std::cout << t.str();
  return mismatches == 0 ? 0 : 2;
}

int cmd_serve_replay(int argc, const char* const* argv) {
  pd::CliParser cli(
      "protondose serve-replay",
      "replay a synthetic optimizer request stream through DoseService");
  add_source_options(cli);
  cli.add_option("backend", "native", "execution backend: native or gpusim");
  cli.add_option("workers", "2", "service worker threads");
  cli.add_option("batch-cap", "8", "max requests coalesced per launch");
  cli.add_option("queue-bound", "256", "queue depth before backpressure");
  cli.add_option("flush-ms", "2.0", "partial-batch flush deadline (ms)");
  cli.add_option("clients", "4", "concurrent client threads");
  cli.add_option("requests", "64", "requests per client");
  cli.add_option("deadline-ms", "0", "per-request queue deadline (0 = none)");
  cli.add_option("seed", "1", "weight-stream seed");
  cli.add_option("delta-every", "0",
                 "every Nth request per client is an incremental submit_delta "
                 "against a per-client base dose (0 = none)");
  cli.add_option("shards", "1", "DoseService shards behind the router");
  cli.add_option("replicate", "1", "replica-set size per plan");
  cli.add_option("slices", "0",
                 "register the plan column-sliced into N row blocks "
                 "(0 = whole plan; incompatible with --delta-every)");
  if (!cli.parse(argc, argv)) return 0;

  const std::string backend_str = cli.get("backend");
  pd::kernels::DoseEngine::Backend backend;
  if (backend_str == "native") {
    backend = pd::kernels::DoseEngine::Backend::kNative;
  } else if (backend_str == "gpusim") {
    backend = pd::kernels::DoseEngine::Backend::kGpusim;
  } else {
    throw pd::Error("unknown backend: " + backend_str);
  }

  const auto matrix = load_or_generate(cli);
  const std::size_t spots = matrix.num_cols;

  pd::service::ShardedServiceConfig config;
  config.shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("shards")));
  config.replication = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("replicate")));
  config.shard.workers = static_cast<unsigned>(cli.get_int("workers"));
  config.shard.batch_cap = static_cast<std::size_t>(cli.get_int("batch-cap"));
  config.shard.queue_bound =
      static_cast<std::size_t>(cli.get_int("queue-bound"));
  config.shard.flush_deadline_ms = cli.get_double("flush-ms");
  config.shard.default_deadline_ms = cli.get_double("deadline-ms");
  config.shard.engine.device = pd::gpusim::make_a100();
  config.shard.engine.backend = backend;

  const std::size_t slices = static_cast<std::size_t>(
      std::max<std::int64_t>(0, cli.get_int("slices")));
  const std::size_t delta_every =
      static_cast<std::size_t>(
          std::max<std::int64_t>(0, cli.get_int("delta-every")));
  if (slices > 0 && delta_every > 0) {
    throw pd::Error(
        "--slices and --delta-every are incompatible: a delta base holds a "
        "full dose, which no single slice shard can update");
  }

  pd::service::ShardedDoseService service(config);
  const auto source = [&matrix] { return pd::sparse::CsrF64(matrix); };
  if (slices > 0) {
    service.register_plan_sliced("replay", source, slices);
  } else {
    service.register_plan("replay", source);
  }

  const std::size_t clients = static_cast<std::size_t>(cli.get_int("clients"));
  const std::size_t requests =
      static_cast<std::size_t>(cli.get_int("requests"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  pd::WallTimer timer;
  std::vector<std::vector<pd::service::Ticket>> tickets(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &tickets, c, requests, spots, seed,
                            delta_every] {
        pd::Rng rng(seed + c);
        // Optional incremental traffic: compute one base dose up front, then
        // every delta_every-th request updates it via submit_delta (per-client
        // base key, so one client's deltas coalesce with each other).
        std::shared_ptr<const pd::service::DeltaBase> base;
        if (delta_every > 0) {
          std::vector<double> w(spots);
          for (double& v : w) v = rng.uniform(0.0, 2.0);
          pd::service::Ticket first =
              service.submit("replay", std::vector<double>(w));
          pd::service::DoseResult result = first.result.get();
          if (result.status == pd::service::RequestStatus::kOk) {
            auto b = std::make_shared<pd::service::DeltaBase>();
            b->key = static_cast<std::uint32_t>(c);
            b->weights = std::move(w);
            b->dose = std::move(result.dose);
            base = std::move(b);
          }
        }
        tickets[c].reserve(requests);
        for (std::size_t r = 0; r < requests; ++r) {
          if (base && (r + 1) % delta_every == 0) {
            std::vector<double> w_new = base->weights;
            const std::size_t changed =
                std::max<std::size_t>(1, spots / 100);
            for (std::size_t i = 0; i < changed; ++i) {
              w_new[rng.uniform_index(spots)] += rng.uniform(0.0, 0.5);
            }
            tickets[c].push_back(
                service.submit_delta("replay", base, std::move(w_new)));
            continue;
          }
          std::vector<double> weights(spots);
          for (double& w : weights) w = rng.uniform(0.0, 2.0);
          tickets[c].push_back(service.submit("replay", std::move(weights)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  service.drain();
  std::size_t ok = 0, other = 0;
  for (auto& client_tickets : tickets) {
    for (pd::service::Ticket& ticket : client_tickets) {
      const pd::service::DoseResult result = ticket.result.get();
      (result.status == pd::service::RequestStatus::kOk ? ok : other) += 1;
    }
  }
  const double elapsed_s = timer.seconds();

  const pd::service::ShardedServiceStats stats = service.stats();
  std::uint64_t batches = 0, delta_batches = 0, rejected = 0, expired = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::size_t max_depth = 0;
  double batch_requests = 0.0, p50 = 0.0, p99 = 0.0;
  std::string routed;
  for (const pd::service::ServiceStats& shard : stats.shards) {
    batches += shard.batches;
    delta_batches += shard.delta_batches;
    rejected += shard.rejected;
    expired += shard.expired;
    hits += shard.cache.hits;
    misses += shard.cache.misses;
    evictions += shard.cache.evictions;
    max_depth = std::max(max_depth, shard.max_queue_depth);
    batch_requests +=
        static_cast<double>(shard.batches) * shard.mean_batch_size();
    p50 = std::max(p50, shard.p50_latency_ms);
    p99 = std::max(p99, shard.p99_latency_ms);
  }
  for (const std::uint64_t n : stats.routed_per_shard) {
    routed += (routed.empty() ? "" : " / ") + std::to_string(n);
  }

  pd::TextTable t({"quantity", "value"});
  t.add_row({"backend", backend_str});
  t.add_row({"shards / replicate / slices",
             std::to_string(config.shards) + " / " +
                 std::to_string(config.replication) + " / " +
                 std::to_string(slices)});
  t.add_row({"workers / batch cap",
             std::to_string(config.shard.workers) + " / " +
                 std::to_string(config.shard.batch_cap)});
  t.add_row({"requests ok / other",
             std::to_string(ok) + " / " + std::to_string(other)});
  t.add_row({"throughput", pd::fmt_double(
                               static_cast<double>(ok) / elapsed_s, 1) +
                               " req/s"});
  t.add_row({"routed per shard", routed});
  t.add_row({"rerouted / replica spills",
             std::to_string(stats.rerouted) + " / " +
                 std::to_string(stats.replica_spills)});
  t.add_row({"compute_batch launches", std::to_string(batches)});
  t.add_row({"delta launches", std::to_string(delta_batches)});
  t.add_row({"mean batch size",
             pd::fmt_double(batches > 0 ? batch_requests /
                                              static_cast<double>(batches)
                                        : 0.0,
                            2)});
  t.add_row({"p50 / p99 latency (worst shard)",
             pd::fmt_double(p50, 2) + " / " + pd::fmt_double(p99, 2) + " ms"});
  t.add_row({"max queue depth (worst shard)", std::to_string(max_depth)});
  t.add_row({"rejected / expired",
             std::to_string(rejected) + " / " + std::to_string(expired)});
  t.add_row({"cache hit / miss / evict",
             std::to_string(hits) + " / " + std::to_string(misses) + " / " +
                 std::to_string(evictions)});
  std::cout << t.str();
  return 0;
}

void print_usage() {
  std::cout << "protondose <subcommand> [options]\n\n"
               "subcommands:\n"
               "  generate   generate and export a dose deposition matrix\n"
               "  stats      matrix structure statistics (Table I / Fig. 2)\n"
               "  spmv       simulated-GPU dose calculation + perf model\n"
               "  roofline   ASCII roofline of the kernel family\n"
               "  tune       threads-per-block sweep (Figure 4)\n"
               "  optimize   run the treatment-plan optimizer\n"
               "  delta      incremental dose update vs full recompute\n"
               "             (docs/delta_engine.md)\n"
               "  serve-replay  replay a request stream through the batching\n"
               "                dose service and report serving stats\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Shift argv so subcommand parsers see their own options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (cmd == "generate") return cmd_generate(sub_argc, sub_argv);
    if (cmd == "stats") return cmd_stats(sub_argc, sub_argv);
    if (cmd == "spmv") return cmd_spmv(sub_argc, sub_argv);
    if (cmd == "roofline") return cmd_roofline(sub_argc, sub_argv);
    if (cmd == "tune") return cmd_tune(sub_argc, sub_argv);
    if (cmd == "optimize") return cmd_optimize(sub_argc, sub_argv);
    if (cmd == "delta") return cmd_delta(sub_argc, sub_argv);
    if (cmd == "serve-replay") return cmd_serve_replay(sub_argc, sub_argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      print_usage();
      return 0;
    }
    std::cerr << "unknown subcommand: " << cmd << "\n";
    print_usage();
    return 1;
  } catch (const pd::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
