// dosebench — one command for the dose stack's end-to-end benchmark.
//
//   dosebench --workload <serve_churn|sim_profile>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale <x>] [--trace-out <file>] [--inject dose|counter]
//
// Prints the host record, then, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
// per-layer metrics; every workload reports all of them.  A failed output
// check exits 1.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dosebench: " << why << "\n";
  std::exit(2);
}

dosebench::RunOptions parse(int argc, char** argv) {
  dosebench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value != "0";
    else if (flag == "--scale") o.scale = std::stod(value);
    else if (flag == "--trace-out") o.trace_out = value;
    else if (flag == "--inject") o.inject = value;
    else usage("unknown flag " + flag);
  }
  if (o.seconds <= 0 || o.scale <= 0) usage("bad numeric flag");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  dosebench::RunOptions opts = parse(argc, argv);
  std::cout << "{\"host\": " << dosebench::host_record_json() << "}\n"
            << std::flush;
  // The traced run measures the host's bandwidth ceiling first, while the
  // process holds nothing else.
  if (opts.trace) opts.triad = dosebench::triad_gbps(dosebench::kTriadArrayMib, 9);
  dosebench::Verdict verdict;
  dosebench::RunResult result;
  try {
    if (opts.workload == "serve_churn") {
      result = dosebench::run_serve_churn(opts, verdict);
    } else if (opts.workload == "sim_profile") {
      result = dosebench::run_sim_profile(opts, verdict);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "dosebench: " << e.what() << "\n";
    return 1;
  }
  const bool correct = verdict.correct();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << result.metrics.json() << "}\n"
            << std::flush;
  return correct ? 0 : 1;
}
