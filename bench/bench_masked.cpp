// Masked-SpGEMM benchmark: triangle counting C = (L*L) .* L over a corpus
// of scale-free / web-crawl graphs, comparing the output-masked fast path
// (Speck::multiply_masked — no symbolic pass, accumulators sized off
// min(products, mask row nnz)) against the naive pipeline the mask
// replaces: full multiply, then filter the product down to the mask
// positions. Printed as BENCH_masked.json.
//
// Four hard gates back the checked-in BENCH_masked.json (CI runs
// `bench_masked --quick`):
//
//   * the masked path must beat full-multiply-then-filter by --min-speedup
//     (default 2x) in corpus wall time at one thread — the win is
//     algorithmic (symbolic + sort skipped, smaller accumulators), so it
//     must hold on any core count,
//   * every masked C must be bit-identical to the masked-Gustavson oracle,
//     and every triangle count must agree across masked / filtered / oracle,
//   * masked plan replays must be bit-identical and perform zero heap
//     allocations in their hot path (live-counted via the counting
//     operator new of counting_alloc.cpp),
//   * the transparent plan cache must replay a repeated masked product
//     (hits >= 1 on the third call).
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/ops.h"
#include "ref/masked.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace {

using namespace speck;

/// Symmetrizes into an undirected pattern (no self-loops, values 1).
Csr undirected_pattern(const Csr& directed) {
  Coo sym(directed.rows(), directed.cols());
  for (index_t r = 0; r < directed.rows(); ++r) {
    for (const index_t c : directed.row_cols(r)) {
      if (c == r) continue;
      sym.add(r, c, 1.0);
      sym.add(c, r, 1.0);
    }
  }
  Csr result = sym.to_csr();
  for (auto& v : result.values_mutable()) v = 1.0;
  return result;
}

/// Strictly-lower-triangular part (column < row), values clamped to 1.
Csr lower_triangular(const Csr& a) {
  Coo lower(a.rows(), a.cols());
  for (index_t r = 0; r < a.rows(); ++r) {
    for (const index_t c : a.row_cols(r)) {
      if (c < r) lower.add(r, c, 1.0);
    }
  }
  return lower.to_csr();
}

/// Post-hoc masking — what the baseline pipeline pays after the full
/// multiply: intersect each product row with the mask row, appending the
/// surviving values to `out` (reserved once by the caller) and returning
/// their sum. Two-pointer merge, no per-row allocation.
double filter_into(const Csr& c, const Csr& mask, std::vector<value_t>& out) {
  out.clear();
  double sum = 0.0;
  for (index_t r = 0; r < c.rows(); ++r) {
    const auto cols = c.row_cols(r);
    const auto vals = c.row_vals(r);
    const auto mask_cols = mask.row_cols(r);
    std::size_t j = 0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      while (j < mask_cols.size() && mask_cols[j] < cols[i]) ++j;
      if (j < mask_cols.size() && mask_cols[j] == cols[i]) {
        out.push_back(vals[i]);
        sum += vals[i];
      }
    }
  }
  return sum;
}

double sum_values(const Csr& c) {
  double sum = 0.0;
  for (const value_t v : c.values()) sum += v;
  return sum;
}

struct TriangleEntry {
  std::string name;
  Csr lower;  ///< strictly-lower adjacency pattern; mask == operand
};

/// The triangle corpus: the scale-free / web-crawl graph families triangle
/// counting actually runs on (skewed degree distributions are where the
/// mask pays — hub rows have huge unmasked products and tiny mask rows).
std::vector<TriangleEntry> make_triangle_corpus() {
  std::vector<TriangleEntry> out;
  const char* const graph_like[] = {"webbase", "mario002", "email-Enron",
                                    "cage13", "144"};
  for (auto& entry : gen::common_corpus()) {
    if (!entry.square) continue;
    for (const char* name : graph_like) {
      if (entry.name == name) {
        out.push_back({entry.name,
                       lower_triangular(undirected_pattern(entry.a))});
      }
    }
  }
  out.push_back({"rmat-12", lower_triangular(undirected_pattern(
                                gen::rmat(12, 8, 0.45, 0.22, 0.22, 7)))});
  out.push_back({"rmat-11", lower_triangular(undirected_pattern(
                                gen::rmat(11, 16, 0.45, 0.22, 0.22, 21)))});
  out.push_back(
      {"powerlaw-8k", lower_triangular(undirected_pattern(
                          gen::power_law(8000, 8000, 12, 2.1, 400, 33)))});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 8};
  std::size_t iterations = 3;
  double min_speedup = 2.0;
  bench::Flags flags;
  flags.on("--quick", [&] {
    thread_counts = {1};
    iterations = 2;
  });
  flags.count("--iterations", &iterations);
  flags.threads(&thread_counts);
  flags.number("--min-speedup", "X", &min_speedup);
  if (!flags.parse(argc, argv)) return 2;

  const std::vector<TriangleEntry> corpus = make_triangle_corpus();

  // Oracle counts, computed once: every path must land on these exactly.
  std::vector<Csr> oracle(corpus.size());
  double oracle_triangles = 0.0;
  for (std::size_t e = 0; e < corpus.size(); ++e) {
    oracle[e] =
        masked_spgemm(corpus[e].lower, corpus[e].lower, corpus[e].lower);
    oracle_triangles += sum_values(oracle[e]);
  }

  bench::Report report("masked");
  report.count("corpus_graphs", corpus.size());
  report.count("iterations", iterations);
  report.number("min_speedup", min_speedup);
  report.number("triangles", oracle_triangles);

  for (const int threads : thread_counts) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // both paths replan; the cache gets its own gate
    Speck masked_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    Speck full_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    report.begin_point(threads);

    // Warm both instances' kernel workspaces with one corpus pass so the
    // timed loops compare steady states rather than first-touch growth.
    std::size_t filter_reserve = 0;
    for (const auto& entry : corpus) {
      if (!masked_speck.multiply_masked(entry.lower, entry.lower, entry.lower)
               .ok() ||
          !full_speck.multiply(entry.lower, entry.lower).ok()) {
        bench::abort_run("warm-up multiply failed");
      }
      filter_reserve =
          std::max(filter_reserve, static_cast<std::size_t>(entry.lower.nnz()));
    }

    // Baseline: full product every iteration, then filter it down to the
    // mask positions (the deliverable a mask-less pipeline produces).
    double full_triangles = 0.0;
    std::vector<value_t> filtered;
    filtered.reserve(filter_reserve);
    const auto t_full = std::chrono::steady_clock::now();
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      full_triangles = 0.0;
      for (const auto& entry : corpus) {
        SpGemmResult r = full_speck.multiply(entry.lower, entry.lower);
        if (!r.ok()) {
          bench::abort_run("full multiply failed on %s: %s", entry.name.c_str(),
                           r.failure_reason.c_str());
        }
        full_triangles += filter_into(r.c, entry.lower, filtered);
      }
    }
    const double full_wall = bench::seconds_since(t_full);

    // Masked fast path: same deliverable straight from the masked pipeline.
    double masked_triangles = 0.0;
    const auto t_masked = std::chrono::steady_clock::now();
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      masked_triangles = 0.0;
      for (std::size_t e = 0; e < corpus.size(); ++e) {
        SpGemmResult r = masked_speck.multiply_masked(
            corpus[e].lower, corpus[e].lower, corpus[e].lower);
        if (!r.ok()) {
          bench::abort_run("masked multiply failed on %s: %s", corpus[e].name.c_str(),
                           r.failure_reason.c_str());
        }
        masked_triangles += sum_values(r.c);
        if (iter + 1 == iterations && compare(r.c, oracle[e], 0.0).has_value()) {
          report.fail("masked product of %s diverges from the "
                      "masked-Gustavson oracle",
                      corpus[e].name.c_str());
        }
      }
    }
    const double masked_wall = bench::seconds_since(t_masked);

    // Replay: build each masked plan once, then run values-only replays.
    // The hot path must not allocate and every replay must stay bitwise.
    std::size_t replay_allocs = 0;
    double replay_wall = 0.0;
    {
      Speck replay_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      std::vector<SpeckPlan> plans;
      plans.reserve(corpus.size());
      for (const auto& entry : corpus) {
        // Masked plans come from plan() under the configured mask.
        replay_speck.config().mask = std::make_shared<const Csr>(entry.lower);
        plans.push_back(replay_speck.plan(entry.lower, entry.lower));
        if (!plans.back().complete) {
          bench::abort_run("masked planning failed on %s: %s", entry.name.c_str(),
                           plans.back().incomplete_reason.c_str());
        }
      }
      const auto t_replay = std::chrono::steady_clock::now();
      for (std::size_t iter = 0; iter < iterations; ++iter) {
        for (std::size_t e = 0; e < corpus.size(); ++e) {
          // multiply_with_plan checks the plan against the configured mask.
          replay_speck.config().mask =
              std::make_shared<const Csr>(corpus[e].lower);
          SpeckDiagnostics diag;
          SpGemmResult r = replay_speck.multiply_with_plan(
              plans[e], corpus[e].lower, corpus[e].lower, &diag);
          if (!r.ok()) {
            bench::abort_run("masked replay failed on %s: %s", corpus[e].name.c_str(),
                             r.failure_reason.c_str());
          }
          replay_allocs += diag.numeric.hot_path_allocs;
          if (compare(r.c, oracle[e], 0.0).has_value()) {
            report.fail("masked replay of %s is not bit-identical",
                        corpus[e].name.c_str());
          }
        }
      }
      replay_wall = bench::seconds_since(t_replay);
    }

    // Transparent cache: the third identical masked product must replay.
    std::size_t cache_hits = 0;
    {
      SpeckConfig cached_cfg = cfg;
      cached_cfg.plan_cache = true;
      Speck cached(sim::DeviceSpec::titan_v(), sim::CostModel{}, cached_cfg);
      const auto& entry = corpus.front();
      for (int i = 0; i < 3; ++i) {
        SpGemmResult r =
            cached.multiply_masked(entry.lower, entry.lower, entry.lower);
        if (!r.ok() || compare(r.c, oracle.front(), 0.0).has_value()) {
          report.fail("cached masked multiply diverged");
          break;
        }
      }
      cache_hits = cached.plan_cache().stats().hits;
    }

    const double speedup = full_wall / masked_wall;
    report.number("full_filter_wall_seconds", full_wall);
    report.number("masked_wall_seconds", masked_wall);
    report.number("replay_wall_seconds", replay_wall);
    report.number("speedup", speedup);
    report.number("masked_triangles", masked_triangles);
    report.number("full_triangles", full_triangles);
    report.count("replay_hot_allocs", replay_allocs);
    report.count("cache_hits", cache_hits);
    report.end_point();

    if (masked_triangles != oracle_triangles ||
        full_triangles != oracle_triangles) {
      report.fail("triangle counts disagree (masked %.0f, filtered %.0f, oracle %.0f)",
                  masked_triangles, full_triangles, oracle_triangles);
    }
    // The speedup gate runs at one worker: the masked win is algorithmic,
    // so a single deterministic thread is its cleanest measurement.
    if (threads == 1) {
      report.require_at_least("masked speedup", speedup, min_speedup);
      if (replay_allocs != 0) {
        report.fail("masked replay hot path performed %zu heap allocations",
                    replay_allocs);
      }
    }
    if (cache_hits == 0) report.fail("repeated masked product never hit the plan cache");
  }
  return report.finish();
}
