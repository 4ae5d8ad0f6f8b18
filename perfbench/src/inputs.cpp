#include "inputs.h"

#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"

namespace perfbench {

using speck::Csr;
using speck::index_t;

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + salt;
  return speck::splitmix64(state);
}

Job make_job(std::string name, Csr a, Csr b, std::uint64_t value_seed) {
  Job job;
  job.name = std::move(name);
  job.a = with_values(a, value_seed);
  job.b = with_values(b, value_seed + 1);
  job.products = static_cast<std::int64_t>(speck::count_products(job.a, job.b));
  return job;
}

Job square(std::string name, const Csr& a, std::uint64_t value_seed) {
  return make_job(std::move(name), a, a, value_seed);
}

/// Symmetrized pattern without the diagonal (an undirected simple graph).
Csr undirected(const Csr& directed) {
  speck::Coo sym(directed.rows(), directed.cols());
  for (index_t r = 0; r < directed.rows(); ++r) {
    for (const index_t c : directed.row_cols(r)) {
      if (c == r) continue;
      sym.add(r, c, 1.0);
      sym.add(c, r, 1.0);
    }
  }
  Csr out = sym.to_csr();
  for (auto& v : out.values_mutable()) v = 1.0;
  return out;
}

Csr lower_triangle(const Csr& m) {
  speck::Coo lower(m.rows(), m.cols());
  for (index_t r = 0; r < m.rows(); ++r) {
    for (const index_t c : m.row_cols(r)) {
      if (c < r) lower.add(r, c, 1.0);
    }
  }
  return lower.to_csr();
}

}  // namespace

Csr with_values(const Csr& m, std::uint64_t seed) {
  Csr out = m;
  speck::Xoshiro256 rng(seed);
  for (auto& v : out.values_mutable()) {
    v = 0.5 + static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
  }
  return out;
}

std::vector<Job> table4_corpus(std::uint64_t seed, bool tiny) {
  namespace gen = speck::gen;
  // Same generator calls as gen::common_corpus, seeded from `seed`; tiny
  // mode divides the sizes so a whole pass takes milliseconds.
  const index_t d = tiny ? 16 : 1;
  const auto s = [seed](std::uint64_t salt) { return mix(seed, salt); };
  std::vector<Job> corpus;
  corpus.push_back(square("webbase",
                          gen::power_law(20000 / d, 20000 / d, 3, 1.7, 2000 / d, s(11)),
                          s(111)));
  corpus.push_back(square("hugebubbles", gen::stencil_2d(260 / d, 200 / d), s(112)));
  corpus.push_back(square("mario002", gen::banded(40000 / d, 40, 4, s(13)), s(113)));
  {
    const Csr lp = gen::rectangular_lp(4000 / d, 130000 / d, 70, s(17));
    corpus.push_back(make_job("stat96v2", lp, speck::transpose(lp), s(114)));
  }
  corpus.push_back(square("email-Enron",
                          gen::power_law(6000 / d, 6000 / d, 10, 1.8, 1500 / d, s(19)),
                          s(115)));
  corpus.push_back(square("cage13", gen::banded(24000 / d, 400 / d, 8, s(23)), s(116)));
  corpus.push_back(square("144", gen::banded(16000 / d, 600 / d, 14, s(29)), s(117)));
  corpus.push_back(square("poisson3Da", gen::stencil_3d(tiny ? 5 : 13), s(118)));
  corpus.push_back(square("QCD", gen::banded(3000 / d, 700 / d, 32, s(31)), s(119)));
  corpus.push_back(square("harbor", gen::banded(4000 / d, 800 / d, 44, s(37)), s(120)));
  corpus.push_back(square("TSC_OPF",
                          gen::block_diagonal(8, 100 / (tiny ? 4 : 1), 0.95, s(41)),
                          s(121)));
  return corpus;
}

std::vector<Job> triangle_graphs(std::uint64_t seed, bool tiny) {
  namespace gen = speck::gen;
  const auto s = [seed](std::uint64_t salt) { return mix(seed, salt); };
  struct Graph {
    std::string name;
    Csr adjacency;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"rmat", gen::rmat(tiny ? 9 : 15, 8, 0.45, 0.22, 0.22, s(1))});
  graphs.push_back({"rmat-flat", gen::rmat(tiny ? 9 : 14, 16, 0.3, 0.25, 0.25, s(2))});
  const index_t n = tiny ? 1000 : 30000;
  graphs.push_back({"powerlaw", gen::power_law(n, n, 8, 1.8, n / 20, s(3))});
  std::vector<Job> jobs;
  for (const Graph& g : graphs) {
    const Csr lower = lower_triangle(undirected(g.adjacency));
    Job job;
    job.name = g.name;
    job.a = lower;
    job.b = lower;
    job.products = static_cast<std::int64_t>(speck::count_products(lower, lower));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<Csr> service_patterns(std::size_t count, std::uint64_t seed) {
  namespace gen = speck::gen;
  std::vector<Csr> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t s = mix(seed, 1000 * i);
    const auto n = static_cast<index_t>(256 + 64 * (i % 5));
    switch (i % 4) {
      case 0:
        out.push_back(gen::banded(n, 16, 10, s));
        break;
      case 1:
        out.push_back(gen::power_law(n, n, 7, 2.1, 50, s));
        break;
      case 2:
        out.push_back(gen::banded(n, 24, 12, s + 1));
        break;
      default:
        out.push_back(gen::block_diagonal(12, 20, 0.5, s));
        break;
    }
  }
  return out;
}

}  // namespace perfbench
