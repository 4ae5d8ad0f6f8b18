// Shared helpers for the benchmark/report binaries. The table/figure
// binaries regenerate one of the paper's tables or figures (DESIGN.md §4) as
// formatted text; the perf-trajectory drivers (bench_{hotpath,reuse,
// planning,simd,service,masked}) parse their flags with `Flags` and print
// one JSON document through `Report`, the format of the checked-in
// BENCH_*.json files that tools/bench_check compares against.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/suite.h"
#include "gen/corpus.h"
#include "ref/spgemm_api.h"

namespace speck::bench {

/// One algorithm's measurement on one corpus entry.
struct Measurement {
  std::string algorithm;
  std::string matrix;
  offset_t products = 0;
  SpGemmStatus status = SpGemmStatus::kOk;
  double seconds = 0.0;
  double gflops = 0.0;
  std::size_t peak_memory_bytes = 0;
  sim::StageTimeline timeline;
};

/// Runs every algorithm on every corpus entry. Results are verified against
/// the exact oracle once per matrix (any mismatch aborts — benchmarks must
/// not report wrong results).
std::vector<Measurement> run_suite(
    const std::vector<gen::CorpusEntry>& corpus,
    const std::vector<std::unique_ptr<SpGemmAlgorithm>>& algorithms,
    bool verify = true);

/// Fixed-width table printing.
void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths);
std::string format_double(double v, int precision = 2);
std::string format_bytes_mb(std::size_t bytes);

/// Per-matrix best time among OK measurements; key = matrix name.
std::map<std::string, double> best_seconds_per_matrix(
    const std::vector<Measurement>& measurements);

/// Handles the `--threads N` flag shared by the benchmark binaries: resizes
/// the process-wide host thread pool and returns the thread count now in
/// effect (the SPECK_THREADS/hardware default when the flag is absent).
/// Results are bit-identical for every thread count; only host wall-clock
/// changes.
int apply_thread_flag(int argc, char** argv);

/// Host wall-clock of `fn()` in seconds (monotonic clock).
double wall_seconds(const std::function<void()>& fn);

/// Seconds elapsed on the monotonic clock since `start`.
double seconds_since(std::chrono::steady_clock::time_point start);

/// Ends a perf-trajectory run that broke before its gates could be judged
/// (a multiply or plan failed): prints the message to stderr and exits 2.
[[noreturn]] void abort_run(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace speck::bench

namespace speck::bench {

/// Command-line flags of a perf-trajectory driver. parse() applies argv left
/// to right, so a later flag overrides what an earlier one set
/// (`--quick --threads 4` measures 4 threads).
class Flags {
 public:
  /// A switch without a value, such as --quick.
  void on(std::string name, std::function<void()> set);
  /// A count: an integer in [1, INT_MAX]. Zero is rejected because a
  /// driver that times zero repetitions has nothing to gate.
  void count(std::string name, std::size_t* value);
  /// `--threads N`: measure N host threads only, in place of `counts`.
  void threads(std::vector<int>* counts);
  /// A finite real number, shown as `metavar` in the usage line.
  void number(std::string name, std::string metavar, double* value);
  /// A non-negative integer, such as a seed.
  void integer(std::string name, std::uint64_t* value);

  /// On an unknown flag, a missing value or a value its kind rejects,
  /// prints the offending argument and the usage line to stderr and returns
  /// false; drivers then exit 2.
  bool parse(int argc, char** argv) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty for a switch
    std::function<bool(const char*)> apply;
  };
  void count(std::string name, std::function<void(std::size_t)> set);

  std::vector<Flag> flags_;
};

/// One perf-trajectory JSON document:
///
///   {
///     "bench": "<name>",           <- top-level keys, first-seen order
///     ...,
///     "gate": "pass",              <- "fail" when a gate failed
///     "points": [
///       {"label": "threads<N>",    <- one object per begin_point(N)
///        "threads": <N>,
///        "<key>": <value>, ...},
///       ...
///     ]
///   }
///
/// Numbers print as %.6g and counts as %zu. A number that is not finite
/// prints as null, so every document is valid JSON; bench_check skips a
/// null metric, and fails with "nothing compared" when no point has a value
/// for it. Writing a key again replaces its value in place.
class Report {
 public:
  explicit Report(const std::string& bench);

  void number(const std::string& key, double value);
  void count(const std::string& key, std::size_t value);
  void text(const std::string& key, const std::string& value);

  /// Opens the point of a run at `threads` host threads: keys written
  /// until end_point() belong to it.
  void begin_point(int threads);
  void end_point();

  /// Records a failed gate and prints "FAIL: <message>" to stderr.
  void fail(const char* format, ...) __attribute__((format(printf, 2, 3)));
  /// Gates `value >= floor` (resp. `value <= ceiling`). A value that is not
  /// finite fails: NaN compares false both ways and must not pass as "not
  /// below the floor".
  void require_at_least(const char* what, double value, double floor);
  void require_at_most(const char* what, double value, double ceiling);

  std::string json() const;
  /// Sets "gate", prints json() to stdout and returns the exit code: 0 when
  /// every gate passed, 1 otherwise.
  int finish();

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;
  void put(const std::string& key, std::string rendered);

  Fields top_;
  std::vector<std::pair<std::string, Fields>> points_;  ///< label, fields
  bool in_point_ = false;
  bool failed_ = false;
};

}  // namespace speck::bench

namespace speck::bench {

/// Writes the raw measurements as CSV (one row per algorithm x matrix) for
/// downstream plotting: algorithm,matrix,products,status,seconds,gflops,
/// peak_memory_bytes.
void write_csv(const std::string& path, const std::vector<Measurement>& measurements);

}  // namespace speck::bench

namespace speck::bench {

/// Renders series as a fixed-height ASCII line chart (one symbol per
/// series, x = sample index, optional log-scaled y). Used to draw the
/// trend figures in the terminal.
std::string ascii_chart(const std::vector<std::string>& series_names,
                        const std::vector<std::vector<double>>& series,
                        int height = 16, bool log_scale = true);

}  // namespace speck::bench
