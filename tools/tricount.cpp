// tricount — triangle counting through the output-masked SpGEMM fast path:
//
//   tricount [--rmat SCALE] [--edge-factor E] [--threads N] [--seed N]
//            [--iters N] [--no-corpus] [--full-compare]
//            [graph.mtx ...]
//
// For each graph the tool symmetrizes the input into an undirected
// adjacency pattern, takes its strictly-lower-triangular part L, and counts
// triangles as sum((L*L) .* L) — every triangle {i > j > k} is counted
// exactly once, at C[i][j] via the wedge through k. The mask (L itself)
// lets Speck::multiply_masked skip the symbolic pass entirely and size
// accumulators off min(products, mask row nnz), which is why the masked
// path beats multiply-then-filter (see docs/performance.md).
//
// Every count is verified against the masked-Gustavson oracle
// (masked_product_sum); `--full-compare` additionally times the naive
// full-product-then-filter pipeline and reports the masked speedup.
//
// Inputs: any .mtx paths on the command line, plus the synthetic corpus
// stand-ins (square entries only; skip with --no-corpus) and an R-MAT
// scale-free graph (--rmat 0 disables).
//
// Exit codes: 0 ok, 1 count mismatch vs the oracle, 2 usage, 3 bad input.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/io_mtx.h"
#include "ref/masked.h"
#include "speck/speck.h"

namespace {

using namespace speck;

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [options] [graph.mtx ...]\n"
      "\n"
      "Counts triangles per graph as sum((L*L) .* L) where L is the\n"
      "strictly-lower-triangular pattern of the symmetrized graph, using\n"
      "the output-masked multiply path (no symbolic pass; accumulators\n"
      "sized off the mask). Verified against the masked-Gustavson oracle.\n"
      "\n"
      "options:\n"
      "  --rmat SCALE     add an R-MAT graph with 2^SCALE vertices\n"
      "                   (default 13; 0 disables)\n"
      "  --edge-factor E  R-MAT edges per vertex (default 8)\n"
      "  --threads N      host threads (default SPECK_THREADS/auto)\n"
      "  --seed N         R-MAT seed (default 7)\n"
      "  --iters N        timed iterations per graph, best-of (default 3)\n"
      "  --no-corpus      skip the synthetic corpus stand-ins\n"
      "  --full-compare   also time full multiply + filter and report the\n"
      "                   masked speedup\n"
      "  --help           this message\n",
      prog);
}

/// Symmetrizes a graph into an undirected pattern: drops self-loops and
/// weights, merges duplicate edges to value 1.
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

/// Naive post-hoc masking: sums the entries of the full product that land
/// on mask positions — what a pipeline without masked kernels has to do.
double filter_sum(const Csr& c, const Csr& mask) {
  double sum = 0.0;
  for (index_t r = 0; r < c.rows(); ++r) {
    const auto cols = c.row_cols(r);
    const auto vals = c.row_vals(r);
    const auto mask_cols = mask.row_cols(r);
    std::size_t j = 0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      while (j < mask_cols.size() && mask_cols[j] < cols[i]) ++j;
      if (j < mask_cols.size() && mask_cols[j] == cols[i]) sum += vals[i];
    }
  }
  return sum;
}

double sum_values(const Csr& c) {
  double sum = 0.0;
  for (const value_t v : c.values()) sum += v;
  return sum;
}

struct Job {
  std::string name;
  Csr graph;  ///< undirected pattern
};

}  // namespace

int main(int argc, char** argv) {
  int rmat_scale = 13;
  index_t edge_factor = 8;
  int threads = 0;
  std::uint64_t seed = 7;
  int iters = 3;
  bool use_corpus = true;
  bool full_compare = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rmat") == 0 && i + 1 < argc) {
      rmat_scale = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--edge-factor") == 0 && i + 1 < argc) {
      edge_factor = static_cast<index_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-corpus") == 0) {
      use_corpus = false;
    } else if (std::strcmp(argv[i], "--full-compare") == 0) {
      full_compare = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(argv[0], stdout);
      return 0;
    } else if (argv[i][0] == '-') {
      print_usage(argv[0], stderr);
      return 2;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (iters < 1 || rmat_scale < 0 || edge_factor < 1) {
    print_usage(argv[0], stderr);
    return 2;
  }

  try {
    std::vector<Job> jobs;
    for (const std::string& path : paths) {
      jobs.push_back({path, undirected_pattern(read_matrix_market_file(path))});
    }
    if (use_corpus) {
      for (auto& entry : gen::common_corpus()) {
        if (!entry.square) continue;  // triangles need an adjacency matrix
        jobs.push_back({entry.name, undirected_pattern(entry.a)});
      }
    }
    if (rmat_scale > 0) {
      jobs.push_back({"rmat-" + std::to_string(rmat_scale),
                      undirected_pattern(gen::rmat(rmat_scale, edge_factor,
                                                   0.45, 0.22, 0.22, seed))});
    }
    if (jobs.empty()) {
      std::fprintf(stderr, "no input graphs (all sources disabled)\n");
      return 2;
    }

    SpeckConfig cfg;
    cfg.host_threads = threads;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

    std::printf(" %-14s %9s %11s %11s %12s", "graph", "vertices", "edges",
                "triangles", "masked(ms)");
    if (full_compare) std::printf(" %12s %8s", "full(ms)", "speedup");
    std::printf("\n");

    bool ok = true;
    for (const Job& job : jobs) {
      const Csr lower = lower_triangular(job.graph);

      // Masked fast path: C = (L*L) .* L, triangles = sum of C's values.
      // Warm-up builds the plan; timed iterations hit the transparent
      // cache, so the steady-state number is what a pipeline sees.
      double triangles = 0.0;
      double masked_best = 1e300;
      SpGemmResult masked_result = speck.multiply_masked(lower, lower, lower);
      if (!masked_result.ok()) {
        std::fprintf(stderr, "%s: masked multiply failed: %s\n",
                     job.name.c_str(), masked_result.failure_reason.c_str());
        return 1;
      }
      for (int it = 0; it < iters; ++it) {
        const auto t0 = std::chrono::steady_clock::now();
        masked_result = speck.multiply_masked(lower, lower, lower);
        const double sec = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        masked_best = std::min(masked_best, sec);
      }
      triangles = sum_values(masked_result.c);

      // Oracle: the reference masked product must count the same triangles.
      const double expected = masked_product_sum(lower, lower, lower);
      if (triangles != expected) {
        std::fprintf(stderr,
                     "%s: masked count %.0f != oracle %.0f — MISMATCH\n",
                     job.name.c_str(), triangles, expected);
        ok = false;
      }

      std::printf(" %-14s %9d %11lld %11.0f %12.3f", job.name.c_str(),
                  job.graph.rows(),
                  static_cast<long long>(job.graph.nnz() / 2), triangles,
                  masked_best * 1e3);

      if (full_compare) {
        // The naive pipeline: full (unmasked) product, then filter the
        // result down to the mask positions.
        double full_best = 1e300;
        double full_triangles = 0.0;
        for (int it = 0; it < iters; ++it) {
          const auto t0 = std::chrono::steady_clock::now();
          const SpGemmResult full = speck.multiply(lower, lower);
          if (!full.ok()) {
            std::fprintf(stderr, "%s: full multiply failed: %s\n",
                         job.name.c_str(), full.failure_reason.c_str());
            return 1;
          }
          full_triangles = filter_sum(full.c, lower);
          const double sec = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
          full_best = std::min(full_best, sec);
        }
        if (full_triangles != expected) {
          std::fprintf(stderr,
                       "%s: full+filter count %.0f != oracle %.0f — "
                       "MISMATCH\n",
                       job.name.c_str(), full_triangles, expected);
          ok = false;
        }
        std::printf(" %12.3f %7.2fx", full_best * 1e3,
                    full_best / masked_best);
      }
      std::printf("\n");
    }

    if (!ok) {
      std::fprintf(stderr, "FAIL: triangle counts diverge from the oracle\n");
      return 1;
    }
    std::printf("all counts match the masked-Gustavson oracle\n");
    return 0;
  } catch (...) {
    return exit_code(status_from_current_exception().code);
  }
}
