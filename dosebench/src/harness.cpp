#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/stats.hpp"

namespace dosebench {

double median(const std::vector<double>& samples) {
  return pd::percentile(samples, 50.0);
}

double rel_iqr(const std::vector<double>& samples) {
  const double med = median(samples);
  if (med == 0.0) return 0.0;
  return (pd::percentile(samples, 75.0) - pd::percentile(samples, 25.0)) / med;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void flip_low_bit(double& v) {
  v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ 1ULL);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    os << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

void Verdict::check(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  if (reported_++ < 20) {
    std::cerr << "dosebench: CHECK FAILED: " << what << "\n";
  }
}

bool Verdict::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return correct_;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, ns(start), ns(end), id, tid});
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "dosebench: cannot write trace " << path << "\n";
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                  "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                  "%llu}}%s\n",
                  s.name, static_cast<unsigned long long>(s.tid),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::string host_record_json() {
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ", \"avx512f\": "
     << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ", \"f16c\": " << (__builtin_cpu_supports("f16c") ? "true" : "false")
     << ", \"compiler\": \"" << DOSEBENCH_COMPILER << "\""
     << ", \"build_type\": \"" << DOSEBENCH_BUILD_TYPE << "\""
     << ", \"triad_array_mib\": " << kTriadArrayMib
     << ", \"l3_mib\": " << kHostL3Mib << "}";
  return os.str();
}

std::vector<double> triad_gbps(std::size_t array_mib, int passes) {
  const std::size_t n = array_mib * 1024 * 1024 / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0;
  std::vector<double> rates;
  for (int p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    double* __restrict pa = a.get();
    const double* __restrict pb = b.get();
    const double* __restrict pc = c.get();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double secs = seconds_since(t0);
    rates.push_back(3.0 * static_cast<double>(n * sizeof(double)) / secs /
                    1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[n / 2];
  (void)sink;
  return rates;
}

void report_triad(Metrics& m, const RunOptions& opts) {
  m.set("host.triad_gbps", median(opts.triad), "GB/s");
  m.set("host.triad_spread", rel_iqr(opts.triad), "ratio");
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void parallel_for(std::size_t n, unsigned max_threads,
                  const std::function<void(std::size_t, unsigned)>& fn) {
  std::mutex mu;
  std::size_t next = 0;
  std::exception_ptr error;
  auto worker = [&](unsigned id) {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= n || error) return;
        i = next++;
      }
      try {
        fn(i, id);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  const std::size_t helpers =
      std::min<std::size_t>(n, std::max(1u, max_threads)) - (n > 0 ? 1 : 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < helpers; ++t) {
    threads.emplace_back(worker, static_cast<unsigned>(t + 1));
  }
  worker(0);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace dosebench
