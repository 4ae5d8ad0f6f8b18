// SIMD backend benchmark: the full pipeline on the common corpus with the
// scalar reference backend vs the best vector backend the CPU offers,
// printed as BENCH_simd.json.
//
// Two hard gates back the checked-in BENCH_simd.json (CI runs
// `bench_simd --quick`):
//
//   * the vector backend must reach --min-speedup (default 1.25x) corpus
//     wall-time speedup over scalar at one thread,
//   * every vector-backend C must be bit-identical to the scalar one
//     (CSR bytes and simulated seconds — the backend may only change host
//     wall time).
//
// On a machine whose best backend *is* scalar (no SSE/AVX2/NEON) the
// speedup gate is skipped: there is nothing to compare.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/simd.h"
#include "gen/corpus.h"
#include "matrix/ops.h"
#include "speck/speck.h"

namespace {

using namespace speck;

/// One timed corpus sweep: `iterations` full multiplies per entry. Returns
/// wall seconds; fills `cs` with the last iteration's outputs and sums the
/// first iteration's simulated seconds into `sim_seconds`. Callers repeat
/// the sweep and keep the minimum: the interleaved min-of-repeats is robust
/// against one-sided load spikes on shared CI machines.
double timed_sweep(Speck& sp, const std::vector<gen::CorpusEntry>& corpus,
                   std::size_t iterations, std::vector<Csr>& cs,
                   double& sim_seconds) {
  cs.resize(corpus.size());
  sim_seconds = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    for (std::size_t e = 0; e < corpus.size(); ++e) {
      SpGemmResult r = sp.multiply(corpus[e].a, corpus[e].b);
      if (!r.ok()) {
        bench::abort_run("multiply failed on %s: %s", corpus[e].name.c_str(),
                         r.failure_reason.c_str());
      }
      if (iter == 0) sim_seconds += r.seconds;
      if (iter + 1 == iterations) cs[e] = std::move(r.c);
    }
  }
  return bench::seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 8};
  std::size_t iterations = 3;
  double min_speedup = 1.25;
  bench::Flags flags;
  flags.on("--quick", [&] { thread_counts = {1}; });
  flags.count("--iterations", &iterations);
  flags.threads(&thread_counts);
  flags.number("--min-speedup", "X", &min_speedup);
  if (!flags.parse(argc, argv)) return 2;

  const SimdBackend vector_backend = simd::detected_backend();
  const auto corpus = gen::common_corpus();
  bench::Report report("simd");
  report.count("corpus_matrices", corpus.size());
  report.count("iterations", iterations);
  report.number("min_speedup", min_speedup);
  report.text("vector_backend", simd::backend_name(vector_backend));
  if (vector_backend == SimdBackend::kScalar) {
    report.text("gate", "skipped (no vector backend on this CPU)");
    std::fputs(report.json().c_str(), stdout);
    return 0;
  }

  for (const int threads : thread_counts) {
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.plan_cache = false;  // every multiply runs the full pipeline
    cfg.simd_backend = SimdBackend::kScalar;
    Speck scalar_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    cfg.simd_backend = vector_backend;
    Speck vector_sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    report.begin_point(threads);

    // One untimed corpus pass per instance warms the kernel workspaces, so
    // the timed sweeps compare steady states rather than first-touch growth.
    for (const auto& entry : corpus) {
      if (!scalar_sp.multiply(entry.a, entry.b).ok() ||
          !vector_sp.multiply(entry.a, entry.b).ok()) {
        bench::abort_run("warm-up multiply failed");
      }
    }

    // Alternate the two backends' sweeps and keep each one's fastest run:
    // interleaving exposes both to the same machine noise, and the minimum
    // is the best estimate of the undisturbed wall time.
    constexpr std::size_t kRepeats = 4;
    std::vector<Csr> scalar_c, vector_c;
    double scalar_sim = 0.0, vector_sim = 0.0;
    double scalar_wall = 0.0, vector_wall = 0.0;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      const double s =
          timed_sweep(scalar_sp, corpus, iterations, scalar_c, scalar_sim);
      const double v =
          timed_sweep(vector_sp, corpus, iterations, vector_c, vector_sim);
      scalar_wall = rep == 0 ? s : std::min(scalar_wall, s);
      vector_wall = rep == 0 ? v : std::min(vector_wall, v);
    }

    bool bit_identical = true;
    for (std::size_t e = 0; e < corpus.size(); ++e) {
      if (compare(vector_c[e], scalar_c[e], 0.0).has_value()) {
        report.fail("%s differs between backends", corpus[e].name.c_str());
        bit_identical = false;
      }
    }
    if (scalar_sim != vector_sim) {
      report.fail("simulated seconds differ between backends (%.9g vs %.9g)",
                  scalar_sim, vector_sim);
      bit_identical = false;
    }

    const double speedup = scalar_wall / vector_wall;
    report.number("scalar_wall_seconds", scalar_wall);
    report.number("vector_wall_seconds", vector_wall);
    report.number("speedup", speedup);
    report.number("sim_seconds", scalar_sim);
    report.count("bit_identical", bit_identical ? 1 : 0);
    report.end_point();

    // The speedup gate runs at one worker; multi-worker points are reported
    // for the trajectory (thread-pool overhead dilutes per-loop gains).
    if (threads == 1) report.require_at_least("simd speedup", speedup, min_speedup);
  }
  return report.finish();
}
