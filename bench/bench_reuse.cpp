// Structure-reuse benchmark: repeated multiplies with a fixed sparsity
// pattern, comparing the full pipeline (replanning every iteration) against
// Speck::plan + Speck::multiply_with_plan (plan once, replay values-only),
// printed as BENCH_reuse.json.
//
// The loop mirrors the iterative-application pattern the plan cache targets
// (AMG cycles, Newton steps): `--iterations` multiplies per corpus entry,
// values fixed, pattern fixed. Three hard gates back the checked-in
// BENCH_reuse.json (CI runs `bench_reuse --quick`):
//
//   * end-to-end speedup of the reuse path (planning included) must reach
//     --min-speedup (default 3x) at one thread,
//   * every replayed C must be bit-identical to the full pipeline's,
//   * the replay hot path must perform zero heap allocations (live-counted
//     via the counting operator new of counting_alloc.cpp).
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "matrix/ops.h"
#include "speck/speck.h"

using namespace speck;

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 8};
  std::size_t iterations = 10;
  double min_speedup = 3.0;
  bench::Flags flags;
  flags.on("--quick", [&] { thread_counts = {1}; });
  flags.count("--iterations", &iterations);
  flags.threads(&thread_counts);
  flags.number("--min-speedup", "X", &min_speedup);
  if (!flags.parse(argc, argv)) return 2;

  const auto corpus = gen::common_corpus();
  bench::Report report("reuse");
  report.count("corpus_matrices", corpus.size());
  report.count("iterations", iterations);
  report.number("min_speedup", min_speedup);

  for (const int threads : thread_counts) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // both paths are explicit; no transparent cache
    Speck full(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    Speck reuse(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    report.begin_point(threads);

    // Warm both instances' kernel workspaces with one full corpus pass, so
    // the timed loops compare steady states rather than first-touch growth.
    for (const auto& entry : corpus) {
      if (!full.multiply(entry.a, entry.b).ok() ||
          !reuse.multiply(entry.a, entry.b).ok()) {
        bench::abort_run("warm-up multiply failed");
      }
    }

    // Baseline: replan every iteration (the full pipeline each time).
    double full_sim = 0.0;
    std::vector<Csr> full_c(corpus.size());
    const auto t_full = std::chrono::steady_clock::now();
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      for (std::size_t e = 0; e < corpus.size(); ++e) {
        SpGemmResult r = full.multiply(corpus[e].a, corpus[e].b);
        if (!r.ok()) {
          bench::abort_run("full multiply failed on %s: %s", corpus[e].name.c_str(),
                           r.failure_reason.c_str());
        }
        if (iter == 0) full_sim += r.seconds;
        if (iter + 1 == iterations) full_c[e] = std::move(r.c);
      }
    }
    const double full_wall = bench::seconds_since(t_full);

    // Reuse: plan once per entry (timed — the speedup is end-to-end), then
    // run the values-only replay for every iteration.
    double plan_wall = 0.0;
    double reuse_sim = 0.0;
    std::size_t plan_bytes = 0;
    std::size_t replay_allocs = 0;
    const auto t_reuse = std::chrono::steady_clock::now();
    {
      std::vector<SpeckPlan> plans;
      plans.reserve(corpus.size());
      const auto t_plan = std::chrono::steady_clock::now();
      for (const auto& entry : corpus) {
        plans.push_back(reuse.plan(entry.a, entry.b));
        if (!plans.back().complete) {
          bench::abort_run("planning failed on %s: %s", entry.name.c_str(),
                           plans.back().incomplete_reason.c_str());
        }
        plan_bytes += plans.back().byte_size();
      }
      plan_wall = bench::seconds_since(t_plan);
      for (std::size_t iter = 0; iter < iterations; ++iter) {
        for (std::size_t e = 0; e < corpus.size(); ++e) {
          SpeckDiagnostics diag;
          SpGemmResult r =
              reuse.multiply_with_plan(plans[e], corpus[e].a, corpus[e].b, &diag);
          if (!r.ok()) {
            bench::abort_run("replay failed on %s: %s", corpus[e].name.c_str(),
                             r.failure_reason.c_str());
          }
          replay_allocs += diag.numeric.hot_path_allocs;
          if (iter == 0) reuse_sim += r.seconds;
          if (iter + 1 == iterations &&
              compare(r.c, full_c[e], 0.0).has_value()) {
            report.fail("replay of %s is not bit-identical", corpus[e].name.c_str());
          }
        }
      }
    }
    const double reuse_wall = bench::seconds_since(t_reuse);

    const double speedup = full_wall / reuse_wall;
    report.number("full_wall_seconds", full_wall);
    report.number("plan_wall_seconds", plan_wall);
    report.number("reuse_wall_seconds", reuse_wall);
    report.number("speedup", speedup);
    report.number("full_sim_seconds", full_sim);
    report.number("reuse_sim_seconds", reuse_sim);
    report.number("sim_speedup", full_sim / reuse_sim);
    report.count("plan_bytes", plan_bytes);
    report.count("replay_hot_allocs", replay_allocs);
    report.end_point();

    // Gates run at one worker (deterministic steady state); multi-worker
    // points are reported for the trajectory.
    if (threads == 1) {
      report.require_at_least("reuse speedup", speedup, min_speedup);
      if (replay_allocs != 0) {
        report.fail("replay hot path performed %zu heap allocations", replay_allocs);
      }
    }
  }
  return report.finish();
}
