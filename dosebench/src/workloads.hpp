#pragma once
// The dosebench workloads (see BENCHMARK.json for why each exists) and the
// layer probes their traced runs share.

#include <vector>

#include "harness.hpp"
#include "inputs.hpp"

namespace dosebench {

RunResult run_serve_churn(const RunOptions& opts, Verdict& verdict);
RunResult run_sim_profile(const RunOptions& opts, Verdict& verdict);

// Every traced run reports every per-layer metric.  Its own workload's
// layers come from its traced window; the other layer groups come from
// these probes, each set up once on the six Table I beams, with its outputs
// checked and its spans recorded.

/// Router, queue, cache and kernels: a short closed-loop window on the
/// serve_churn service, then the calibration of direct engine calls.
void profile_service(Metrics& m, const std::vector<Beam>& beams,
                     const RunOptions& opts, Tracer& tracer, Verdict& verdict);
/// opt: PlanOptimizer on the combined liver plan, one warm-up and three
/// timed optimize() calls, each bitwise identical to the warm-up, then the
/// forward and transposed products alone.
void profile_opt(Metrics& m, const std::vector<Beam>& beams,
                 const RunOptions& opts, Tracer& tracer, Verdict& verdict);
/// gpusim: three sweeps of the Fig. 5 kernel set.
void profile_sim(Metrics& m, const std::vector<Beam>& beams,
                 const RunOptions& opts, Tracer& tracer, Verdict& verdict);

}  // namespace dosebench
