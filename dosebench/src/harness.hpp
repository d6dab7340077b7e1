#pragma once
// Measurement plumbing shared by every dosebench workload: clocks,
// medians, the metric sink that prints the final JSON line, bitwise
// comparison, in-memory spans for the traced run, the host record and the
// STREAM-triad ceiling.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace dosebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of unsorted samples (pd::percentile at 50).
double median(const std::vector<double>& samples);
/// Interquartile range over the median: the spread figure printed beside
/// repeated measurements.
double rel_iqr(const std::vector<double>& samples);

/// Times every workload repeats its whole set-up; setup_s is the median.
constexpr int kSetups = 3;

/// Byte-for-byte equality of two dose vectors.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);
/// Flip the lowest mantissa bit of `v`: the self-check's injected fault.
void flip_low_bit(double& v);

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;         ///< Table I scale (1 = repository default).
  std::string inject;         ///< "", "dose" or "counter" (self-check).
  std::string trace_out;      ///< Span file of the traced run.
  std::vector<double> triad;  ///< Traced run: triad GB/s per pass.
};

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness bookkeeping: a failed check is reported on stderr and turns
/// the run's `correct` false (the process then exits non-zero).
class Verdict {
 public:
  void check(bool ok, const std::string& what);
  bool correct() const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  int reported_ = 0;
};

/// What a workload hands back to main.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// In-memory spans around the benchmark's own calls into the program
/// (traced run only).  Disabled it costs one branch per call site.
class Tracer {
 public:
  /// Toggle only while no instrumented call is in flight.
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Record [start, end) under `name`; `id` ties spans of one request.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id = 0);
  /// Durations (ms) of every span named `name` so far.
  std::vector<double> durations_ms(const char* name) const;
  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;
    std::uint64_t tid;
  };
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), name_(name), id_(id),
        start_(tracer.enabled() ? Clock::now() : Clock::time_point{}) {}
  ~ScopedSpan() {
    if (tracer_.enabled()) tracer_.record(name_, start_, Clock::now(), id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// nproc, ISA flags, compiler and build type as one JSON object.
std::string host_record_json();

/// Single-thread STREAM triad a[i] = b[i] + s*c[i] over three arrays of
/// `array_mib` MiB each; GB/s per pass (24 bytes per element counted).
std::vector<double> triad_gbps(std::size_t array_mib, int passes);
constexpr std::size_t kTriadArrayMib = 1200;  ///< 4 x the 300 MiB L3.
constexpr std::size_t kHostL3Mib = 300;
/// host.triad_gbps (median) and host.triad_spread (IQR / median).
void report_triad(Metrics& m, const RunOptions& opts);

/// Peak resident set size of this process (MB, from getrusage).
double peak_rss_mb();

/// Run fn(i, worker) for i in [0, n), in order of i, on the calling thread
/// (worker 0) plus up to `max_threads - 1` helpers (workers 1, 2, ...);
/// rethrows the first exception.
void parallel_for(std::size_t n, unsigned max_threads,
                  const std::function<void(std::size_t, unsigned)>& fn);

}  // namespace dosebench
