// Estimated-planning benchmark: plan() cost under exact vs estimated
// planning on the common corpus, printed as BENCH_planning.json.
//
// Estimated planning (docs/performance.md "Estimated planning") keeps the
// cheap exact row analysis but replaces the O(products) symbolic pass with a
// sampled per-row NNZ estimator;
// rows whose estimate underflows at numeric time re-run through the exact
// fallback, so the result is bit-identical either way. Three hard gates back
// the checked-in BENCH_planning.json (CI runs `bench_planning --quick`):
//
//   * plan() wall time under estimated planning must be at least
//     --min-speedup (default 2x) faster than exact planning at one thread,
//   * every estimated-mode C must be bit-identical to the exact pipeline's —
//     at every measured thread count, and again with fault injection
//     (estimator-scale) shrinking the estimates so the fallback machinery
//     carries the run,
//   * the honest-estimate fallback rate (underflowed rows / planned rows)
//     must stay under --max-fallback-rate (default 0.25); the rate is also
//     reported as fallback_rate for bench_check --info-metric.
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "matrix/ops.h"
#include "speck/speck.h"

using namespace speck;

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 8};
  std::size_t iterations = 5;
  double min_speedup = 2.0;
  double max_fallback_rate = 0.25;
  bench::Flags flags;
  flags.on("--quick", [&] { thread_counts = {1}; });
  flags.count("--iterations", &iterations);
  flags.threads(&thread_counts);
  flags.number("--min-speedup", "X", &min_speedup);
  flags.number("--max-fallback-rate", "F", &max_fallback_rate);
  if (!flags.parse(argc, argv)) return 2;

  const auto corpus = gen::common_corpus();
  bench::Report report("planning");
  report.count("corpus_matrices", corpus.size());
  report.count("iterations", iterations);
  report.number("min_speedup", min_speedup);
  report.number("max_fallback_rate", max_fallback_rate);

  for (const int threads : thread_counts) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // every plan() must really build
    cfg.planning = PlanningMode::kExact;
    Speck exact(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    cfg.planning = PlanningMode::kEstimated;
    Speck estimated(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    report.begin_point(threads);

    // Warm both instances' kernel workspaces so the timed loops compare
    // steady states rather than first-touch buffer growth.
    for (const auto& entry : corpus) {
      if (!exact.multiply(entry.a, entry.b).ok() ||
          !estimated.multiply(entry.a, entry.b).ok()) {
        bench::abort_run("warm-up multiply failed");
      }
    }

    // Exact planning: the full pipeline (analysis + symbolic + numeric)
    // behind every plan() call.
    const auto t_exact = std::chrono::steady_clock::now();
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      for (const auto& entry : corpus) {
        const SpeckPlan p = exact.plan(entry.a, entry.b);
        if (!p.complete) {
          bench::abort_run("exact planning failed on %s: %s", entry.name.c_str(),
                           p.incomplete_reason.c_str());
        }
      }
    }
    const double exact_wall = bench::seconds_since(t_exact);

    // Estimated planning: sampled estimator, no symbolic pass; count the
    // rows that underflowed their estimate and re-ran the exact fallback.
    std::size_t fallback_rows = 0;
    std::size_t planned_rows = 0;
    const auto t_est = std::chrono::steady_clock::now();
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      for (const auto& entry : corpus) {
        const SpeckPlan p = estimated.plan(entry.a, entry.b);
        if (!p.complete) {
          bench::abort_run("estimated planning failed on %s: %s", entry.name.c_str(),
                           p.incomplete_reason.c_str());
        }
        fallback_rows += static_cast<std::size_t>(
            estimated.last_diagnostics().numeric.estimate_underflow_rows);
        planned_rows += static_cast<std::size_t>(entry.a.rows());
      }
    }
    const double est_wall = bench::seconds_since(t_est);
    const double speedup = exact_wall / est_wall;
    const double fallback_rate =
        planned_rows == 0
            ? 0.0
            : static_cast<double>(fallback_rows) /
                  static_cast<double>(planned_rows);

    // Bit-identity: the estimated pipeline must reproduce the exact C
    // everywhere — first with honest estimates, then with fault injection
    // scaling the sampled estimates down so the fallback path carries most
    // rows (the plan self-corrects; only wall time may change).
    std::size_t forced_fallback_rows = 0;
    SpeckConfig forced_cfg = cfg;
    forced_cfg.faults.estimator_scale = 0.25;
    Speck forced(sim::DeviceSpec::titan_v(), sim::CostModel{}, forced_cfg);
    for (const auto& entry : corpus) {
      const SpGemmResult want = exact.multiply(entry.a, entry.b);
      const SpGemmResult honest = estimated.multiply(entry.a, entry.b);
      const SpGemmResult fallback = forced.multiply(entry.a, entry.b);
      if (!want.ok() || !honest.ok() || !fallback.ok()) {
        bench::abort_run("verification multiply failed on %s", entry.name.c_str());
      }
      forced_fallback_rows += static_cast<std::size_t>(
          forced.last_diagnostics().numeric.estimate_underflow_rows);
      if (compare(honest.c, want.c, 0.0).has_value()) {
        report.fail("estimated C for %s is not bit-identical", entry.name.c_str());
      }
      if (compare(fallback.c, want.c, 0.0).has_value()) {
        report.fail("forced-fallback C for %s is not bit-identical", entry.name.c_str());
      }
    }

    report.number("exact_plan_wall_seconds", exact_wall);
    report.number("estimated_plan_wall_seconds", est_wall);
    report.number("plan_speedup", speedup);
    report.number("fallback_rate", fallback_rate);
    report.count("fallback_rows", fallback_rows);
    report.count("planned_rows", planned_rows);
    report.count("forced_fallback_rows", forced_fallback_rows);
    report.end_point();

    // Speedup and fallback gates bind at one worker (deterministic steady
    // state); multi-worker points are reported for the trajectory.
    // Bit-identity gates everywhere.
    if (threads == 1) {
      report.require_at_least("plan speedup", speedup, min_speedup);
      report.require_at_most("fallback rate", fallback_rate, max_fallback_rate);
    }
    if (forced_fallback_rows == 0) {
      report.fail("estimator-scale=0.25 forced no fallback rows — the fault "
                  "path is not exercising the fallback machinery");
    }
  }
  return report.finish();
}
