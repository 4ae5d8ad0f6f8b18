// Hot-path perf-trajectory benchmark: end-to-end common-corpus wall-clock,
// ns per simulated block, and heap allocations per block (steady state and
// warm-up), printed as BENCH_hotpath.json.
//
// This binary links the counting operator new (counting_alloc.cpp) so the
// passes' per-block allocation accounting (PassStats::hot_path_allocs, see
// common/alloc_counter.h) is live. The steady-state gate is hard: after one
// warm-up pass over the corpus, every further multiply must execute its
// block bodies without a single heap allocation, or the benchmark exits
// nonzero. CI runs `bench_hotpath --quick` as a regression gate.
//
// Results are bit-identical at every thread count; only wall-clock varies.
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "speck/speck.h"

namespace {

using namespace speck;

struct RunStats {
  double wall_seconds = 0.0;     ///< per full corpus pass (averaged)
  double sim_seconds = 0.0;      ///< summed simulated seconds, one pass
  std::size_t blocks = 0;        ///< simulated blocks, one pass
  std::size_t hot_allocs = 0;    ///< block-body allocations over all passes
  std::size_t passes = 0;
};

/// Runs `passes` full corpus passes on `sp`, accumulating wall-clock,
/// per-block allocation counts and block totals.
RunStats run_corpus(Speck& sp, const std::vector<gen::CorpusEntry>& corpus,
                    std::size_t passes) {
  RunStats stats;
  stats.passes = passes;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& entry : corpus) {
      const SpGemmResult result = sp.multiply(entry.a, entry.b);
      if (!result.ok()) {
        bench::abort_run("multiply failed on %s: %s", entry.name.c_str(),
                         result.failure_reason.c_str());
      }
      const SpeckDiagnostics& diag = sp.last_diagnostics();
      stats.hot_allocs +=
          diag.symbolic.hot_path_allocs + diag.numeric.hot_path_allocs;
      if (p == 0) {
        stats.sim_seconds += result.seconds;
        stats.blocks += static_cast<std::size_t>(diag.symbolic_blocks) +
                        static_cast<std::size_t>(diag.numeric_blocks);
      }
    }
  }
  stats.wall_seconds = bench::seconds_since(t0) / static_cast<double>(passes);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 8};
  std::size_t reps = 5;
  // Pre-change serial corpus wall-clock recorded on the reference machine
  // (see docs/performance.md); 0 disables the speedup line.
  double baseline_seconds = 1.7970;
  bench::Flags flags;
  flags.on("--quick", [&] {
    thread_counts = {1};
    reps = 1;
  });
  flags.count("--reps", &reps);
  flags.threads(&thread_counts);
  flags.number("--baseline-seconds", "S", &baseline_seconds);
  if (!flags.parse(argc, argv)) return 2;

  const auto corpus = gen::common_corpus();
  bench::Report report("hotpath");
  report.count("corpus_matrices", corpus.size());
  report.count("reps", reps);
  report.number("baseline_wall_seconds", baseline_seconds);

  for (const int threads : thread_counts) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    report.begin_point(threads);

    // Cold pass: workspaces fill up — allocations are expected here and
    // recorded as the warm-up cost. With multiple workers the block-to-worker
    // assignment is scheduling-dependent, so a worker may first meet the
    // largest block only in a later pass; growth is monotone, so warming
    // until one full pass is allocation-free converges in a few passes.
    const RunStats warmup = run_corpus(sp, corpus, 1);
    report.count("blocks_per_pass", warmup.blocks);
    report.number("warmup_allocs_per_block",
                  static_cast<double>(warmup.hot_allocs) /
                      static_cast<double>(warmup.blocks));
    if (threads > 1) {
      for (int extra = 0; extra < 10; ++extra) {
        if (run_corpus(sp, corpus, 1).hot_allocs == 0) break;
      }
    }

    // Steady state: same instance, warm workspaces.
    const RunStats steady = run_corpus(sp, corpus, reps);
    const double allocs_per_block =
        static_cast<double>(steady.hot_allocs) /
        static_cast<double>(steady.blocks * steady.passes);
    report.number("corpus_wall_seconds", steady.wall_seconds);
    report.number("sim_seconds", steady.sim_seconds);
    report.number("ns_per_block", steady.wall_seconds * 1e9 /
                                      static_cast<double>(steady.blocks));
    report.number("steady_state_allocs_per_block", allocs_per_block);
    report.count("steady_state_allocs_total", steady.hot_allocs);
    if (threads == 1 && baseline_seconds > 0.0) {
      report.number("speedup_vs_baseline", baseline_seconds / steady.wall_seconds);
    }
    report.end_point();
    // The hard gate runs at one worker, where warm-up deterministically
    // covers every (workspace, block) pairing yet all code paths execute;
    // multi-worker runs are reported for the trajectory.
    if (threads == 1 && steady.hot_allocs != 0) {
      report.fail("steady-state block bodies performed heap allocations "
                  "(the zero-allocation hot-path gate)");
    }
  }
  return report.finish();
}
