// Shared scaffolding of the benchmark program: options, the result record,
// statistics helpers, the span tracer and the library configuration every
// workload starts from.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "matrix/csr.h"
#include "speck/kernels.h"
#include "speck/speck.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and short phases: the self-test smoke mode.
  bool tiny = false;
  /// Where the traced run writes its spans (JSON); empty = nowhere.
  std::string trace_out;
  /// Service workload: nominal offered rate and the SLO ladder (req/s).
  double rate = 0.0;
  std::vector<double> ladder;
  /// Threads generating load and running the pipeline (nproc).
  int threads = 1;
};

/// One workload run's outcome. Metric names must match [A-Za-z0-9_.-]+.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Sample counts behind the medians / percentiles, printed as info.
  std::map<std::string, double> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Bitwise equality of pattern and values.
bool csr_equal(const speck::Csr& x, const speck::Csr& y);
bool values_equal(std::span<const speck::value_t> x,
                  std::span<const speck::value_t> y);
/// Bitwise equality of every PassStats counter and its simulated seconds.
bool pass_stats_equal(const speck::PassStats& x, const speck::PassStats& y);
bool timeline_equal(const speck::sim::StageTimeline& x,
                    const speck::sim::StageTimeline& y);

/// The configuration every workload starts from: reduced-scale thresholds
/// (the inputs are reduced-scale stand-ins), the given planning mode and
/// pipeline pool size, and no transparent plan cache.
speck::SpeckConfig base_config(speck::PlanningMode planning, int host_threads);

/// A Speck on the simulated TITAN V.
std::unique_ptr<speck::Speck> make_speck(const speck::SpeckConfig& cfg);

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own code around the calls
// into each library layer. Spans live in memory until the run ends.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
  std::int64_t request = -1;  ///< service request id, -1 otherwise
  std::int64_t pass = -1;     ///< traced pass the span belongs to
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::int64_t now_ns() const { return ns_at(Clock::now()); }
  std::int64_t ns_at(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  std::uint64_t begin(const char* name, std::uint64_t parent, int thread,
                      std::int64_t request, std::int64_t pass);
  void end(std::uint64_t id);
  /// Records a span with explicit times; returns its id.
  std::uint64_t add(Span span);

  /// All recorded spans, sorted by id (call after every thread is joined).
  std::vector<Span> spans() const;
  /// Writes the spans as JSON to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
  std::atomic<std::uint64_t> next_id_{1};
};

/// RAII span; a no-op when the tracer is null or disabled. Spans opened on
/// one thread nest through a thread-local stack; `parent` overrides it (for
/// a worker thread's first span under a span opened on another thread).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t request = -1,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

  /// Index of the traced pass new spans are tagged with (this thread).
  static void set_pass(std::int64_t pass);
  /// Small per-thread index for span records.
  static void set_thread(int thread);

 private:
  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Per-pass self time (span duration minus the union of its children's
/// intervals) of every span name, summed over the spans of that pass.
std::map<std::string, std::vector<double>> self_seconds_by_pass(
    const std::vector<Span>& spans, int passes);

/// Duration and child-covered time of every span called `name`, in
/// recording order.
struct SpanTime {
  std::int64_t request = -1;
  std::int64_t pass = -1;
  double seconds = 0.0;
  double child_seconds = 0.0;
};
std::vector<SpanTime> span_times(const std::vector<Span>& spans, const char* name);

/// Runs `make` `reps` times (destroying the previous result first), appends
/// each run's wall seconds to `seconds` and returns the last result.
template <typename Make>
auto repeated_setup(int reps, std::vector<double>& seconds, Make&& make) {
  std::optional<decltype(make())> result;
  for (int rep = 0; rep < reps; ++rep) {
    result.reset();
    const auto t0 = Clock::now();
    result.emplace(make());
    seconds.push_back(seconds_since(t0));
  }
  return std::move(*result);
}

/// Runs worker(t) for t in [0, threads), t = 0 on the calling thread, joins
/// every thread and rethrows the first exception any worker raised.
template <typename Worker>
void run_threads(int threads, Worker&& worker) {
  std::mutex mutex;
  std::exception_ptr first;  // guarded by mutex
  const auto guarded = [&](int t) {
    try {
      worker(t);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!first) first = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(guarded, t);
  guarded(0);
  for (std::thread& th : pool) th.join();
  if (first) std::rethrow_exception(first);
}

/// Runs call(i) for i in [0, calls): each call times its own library call,
/// checks the result outside that timing and returns the call's seconds.
/// Returns the summed seconds; appends each call's latency (us) to
/// `latencies_us` when non-null.
template <typename Call>
double timed_pass(std::size_t calls, Call&& call, std::vector<double>* latencies_us) {
  double wall = 0.0;
  for (std::size_t i = 0; i < calls; ++i) {
    const double s = call(i);
    wall += s;
    if (latencies_us != nullptr) latencies_us->push_back(s * 1e6);
  }
  return wall;
}

/// Percentile of each input's calls (of reuse's round walls) taken as its
/// call time in a closed loop. On a shared virtual machine vCPU steal and
/// neighbours slow whole stretches of passes (a 4-thread pass waits for its
/// slowest vCPU at every stage barrier), so the run's fastest tenth is the
/// steady figure; the plain per-pass median is printed beside it as a
/// sample line.
constexpr double kCallPercentile = 10.0;

/// A closed loop's outcome: every call's latency in pass order and each
/// input's kCallPercentile latency.
struct ClosedLoop {
  std::vector<double> latencies_us;  ///< call i of pass p at [p * calls + i]
  std::vector<double> input_us;      ///< one per input
  std::vector<double> pass_gflops;
  /// `flops` over the summed per-input latencies.
  double gflops = 0.0;
};

/// Each input's kCallPercentile latency from latencies laid out in pass
/// order (call i of pass p at [p * calls + i]).
std::vector<double> input_percentiles(const std::vector<double>& latencies_us,
                                      std::size_t calls);

/// Closed-loop timed passes over `calls` inputs until `seconds` elapse (at
/// least three), `flops` floating-point operations per pass.
template <typename Call>
ClosedLoop closed_loop(double seconds, std::size_t calls, double flops, Call&& call) {
  ClosedLoop loop;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds || loop.pass_gflops.size() < 3) {
    loop.pass_gflops.push_back(flops / timed_pass(calls, call, &loop.latencies_us) *
                               1e-9);
  }
  loop.input_us = input_percentiles(loop.latencies_us, calls);
  double input_sum_us = 0.0;
  for (const double us : loop.input_us) input_sum_us += us;
  loop.gflops = flops / (input_sum_us * 1e-6) * 1e-9;
  return loop;
}

/// Sets the end-to-end metrics: setup_s (median of the set-ups), gflops,
/// sim_gflops, req_p50_us and peak_rss_mb; the p99 latency and the sample
/// count go to info.
void set_end_to_end(Result& out, const std::vector<double>& setups, double gflops,
                    double sim_gflops, const std::vector<double>& latencies_us);

/// set_end_to_end for a closed loop over inputs: gflops and req_p50_us
/// (the median over inputs) from the per-input latencies; the per-pass
/// median GFLOP/s and the all-call latency percentiles go to info.
void set_end_to_end(Result& out, const std::vector<double>& setups,
                    const ClosedLoop& loop, double sim_gflops);

/// Sets each layer's `.host_s` metric to the median over passes of its
/// spans' summed self time (span names: row_analysis, global_lb,
/// symbolic_pass, numeric_pass, estimator, estimated_numeric, masked_pass,
/// plan.fingerprint, plan.build_program, replay.kernel).
void set_layer_times(Result& out, const std::vector<Span>& spans, int passes);

/// Sets the sim.* metrics from a timeline summed over one pass.
void set_sim_metrics(Result& out, const speck::sim::StageTimeline& timeline);

/// Sets the PassStats-derived per-layer counts summed over one pass.
void set_pass_counts(Result& out, const speck::PassStats& symbolic,
                     const speck::PassStats& numeric,
                     std::int64_t radix_sorted_elements);

void accumulate(speck::PassStats& into, const speck::PassStats& from);
void accumulate(speck::sim::StageTimeline& into,
                const speck::sim::StageTimeline& from);

// ---------------------------------------------------------------------------
// Workloads. Each fills `out` with every metric of its mode (end-to-end when
// untraced, per-layer when traced) and counts attempted/failed operations.

void run_oneshot(const Options& opt, Result& out, Tracer& tracer);
void run_reuse(const Options& opt, Result& out, Tracer& tracer);
void run_tricount(const Options& opt, Result& out, Tracer& tracer);
void run_service(const Options& opt, Result& out, Tracer& tracer);

/// Per-layer metric names every traced run prints (zero where the workload
/// bypasses the layer), with units.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// STREAM-style triad bandwidth over arrays of at least `bytes` each, on
/// `threads` threads (GB/s, best of a few repetitions).
double stream_triad_gbps(std::size_t bytes, int threads);
/// L3 size from sysfs in bytes (0 when unknown).
std::size_t l3_bytes();

}  // namespace perfbench
