// Unit tests for the symbolic/numeric kernels: method selection, per-method
// correctness, global-hash fallback and the radix-sort stage accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/prng.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/kernels.h"
#include "speck/speck.h"

namespace speck {
namespace {

struct Fixture {
  sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  sim::CostModel model;
  SpeckConfig cfg;
  std::vector<KernelConfig> configs = kernel_configs(device);
  RowAnalysis analysis;

  KernelContext context(const Csr& a, const Csr& b) {
    sim::Launch launch("analysis", device, model);
    analysis = analyze_rows(a, b, launch);
    KernelContext ctx;
    ctx.a = &a;
    ctx.b = &b;
    ctx.analysis = &analysis;
    ctx.cfg = &cfg;
    ctx.configs = &configs;
    ctx.device = &device;
    ctx.model = &model;
    ctx.wide_keys = b.cols() > kMaxColumns32Bit;
    return ctx;
  }

  BinPlan plan(const KernelContext& ctx, bool symbolic,
               std::span<const offset_t> entries) {
    sim::Launch launch("lb", device, model);
    return plan_global_lb({entries, symbolic}, configs, cfg, launch);
  }
};

TEST(Kernels, SymbolicMatchesOracleAllPaths) {
  Fixture f;
  const Csr a = gen::skewed_rows(500, 500, 0.02, 300, 3, 801);
  auto ctx = f.context(a, a);
  const BinPlan plan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, plan);
  const auto expected = gustavson_symbolic(a, a);
  ASSERT_EQ(symbolic.row_nnz.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(symbolic.row_nnz[r], expected[r]) << "row " << r;
  }
  EXPECT_GT(symbolic.stats.seconds, 0.0);
  EXPECT_GT(symbolic.stats.hash_probes, 0u);
}

TEST(Kernels, NumericMatchesOracle) {
  Fixture f;
  const Csr a = gen::power_law(400, 400, 8, 1.8, 120, 803);
  auto ctx = f.context(a, a);
  const BinPlan splan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, splan);
  std::vector<offset_t> numeric_entries(symbolic.row_nnz.begin(),
                                        symbolic.row_nnz.end());
  const BinPlan nplan = f.plan(ctx, false, numeric_entries);
  const NumericOutcome numeric = run_numeric(ctx, nplan, symbolic.row_nnz);
  const Csr expected = gustavson_spgemm(a, a);
  const auto diff = compare(numeric.c, expected);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Kernels, SymbolicMethodSelection) {
  Fixture f;
  // Row 0: single entry -> direct. Other rows: normal -> hash.
  Coo coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 2, 1.0);
  coo.add(2, 1, 1.0);
  coo.add(2, 3, 1.0);
  coo.add(3, 3, 1.0);
  const Csr a = coo.to_csr();
  auto ctx = f.context(a, a);
  EXPECT_EQ(choose_symbolic_method(ctx, 0, false, f.configs[0]), RowMethod::kDirect);
  EXPECT_EQ(choose_symbolic_method(ctx, 1, false, f.configs[0]), RowMethod::kHash);
  // Disabling the direct path falls back to hash.
  f.cfg.features.direct_rows = false;
  EXPECT_EQ(choose_symbolic_method(ctx, 0, false, f.configs[0]), RowMethod::kHash);
}

TEST(Kernels, SymbolicDenseOnlyForGiantRows) {
  Fixture f;
  // A row whose product count exceeds 2x the largest symbolic hash capacity
  // (2 * 24576) must use the dense bitmask path.
  const index_t n = 60000;
  Coo coo(n, n);
  for (index_t c = 0; c < 120; ++c) coo.add(0, c * 7 % n, 1.0);
  for (index_t r = 1; r < n; r += 1) coo.add(r, (r * 13) % n, 1.0);
  // Make the rows referenced by row 0 long: each of those 120 rows gets
  // ~500 entries -> 60000 products.
  for (index_t c = 0; c < 120; ++c) {
    const index_t target = c * 7 % n;
    for (index_t i = 0; i < 500; ++i) coo.add(target, (i * 101) % n, 1.0);
  }
  const Csr a = coo.to_csr();
  auto ctx = f.context(a, a);
  ASSERT_GT(f.analysis.products[0], 2 * 24576);
  EXPECT_EQ(choose_symbolic_method(ctx, 0, false, f.configs.back()),
            RowMethod::kDense);
  EXPECT_EQ(choose_symbolic_method(ctx, 0, true, f.configs.back()),
            RowMethod::kHash)
      << "merged blocks always hash";
}

TEST(Kernels, NumericDenseForDenseRows) {
  Fixture f;
  const Csr a = gen::block_diagonal(2, 80, 0.9, 805);
  auto ctx = f.context(a, a);
  // Block rows produce ~80 NNZ over a range of 80: density 1.0 >= 18%.
  const index_t nnz = 72;
  EXPECT_EQ(choose_numeric_method(ctx, 0, nnz, false, 1), RowMethod::kDense);
  // Largest config: always dense.
  EXPECT_EQ(choose_numeric_method(ctx, 0, 1, false,
                                  static_cast<int>(f.configs.size()) - 1),
            RowMethod::kDense);
  // Sparse row in a small config: hash.
  EXPECT_EQ(choose_numeric_method(ctx, 0, 2, false, 1), RowMethod::kHash);
  // Feature off: hash everywhere.
  f.cfg.features.dense_accumulation = false;
  EXPECT_EQ(choose_numeric_method(ctx, 0, nnz, false, 1), RowMethod::kHash);
}

TEST(Kernels, GlobalHashFallbackEngages) {
  Fixture f;
  f.cfg.features.dense_accumulation = false;  // force hashing of giant rows
  // One row with products above the largest symbolic hash capacity and no
  // compaction (distinct columns) must spill to the global map.
  const index_t n = 40000;
  Coo coo(n, n);
  for (index_t c = 0; c < 100; ++c) coo.add(0, c, 1.0);
  for (index_t r = 0; r < 100; ++r) {
    for (index_t i = 0; i < 300; ++i) coo.add(r, 100 + (r * 300 + i), 1.0);
  }
  for (index_t r = 100; r < n; ++r) coo.add(r, r, 1.0);
  const Csr a = coo.to_csr();
  auto ctx = f.context(a, a);
  ASSERT_GT(f.analysis.products[0], 24576);
  const BinPlan plan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, plan);
  EXPECT_GT(symbolic.stats.global_hash_blocks, 0);
  EXPECT_GT(symbolic.stats.global_pool_bytes, 0u);
  // Counts stay exact despite the spill.
  const auto expected = gustavson_symbolic(a, a);
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(symbolic.row_nnz[r], expected[r]) << "row " << r;
  }
}

TEST(Kernels, RadixStageOnlyForLargeHashRows) {
  Fixture f;
  // Small uniform matrix: every row lands in small kernels -> scratch sort,
  // no radix elements.
  const Csr small = gen::random_uniform(300, 300, 4, 807);
  auto ctx = f.context(small, small);
  const BinPlan splan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, splan);
  std::vector<offset_t> entries(symbolic.row_nnz.begin(), symbolic.row_nnz.end());
  const BinPlan nplan = f.plan(ctx, false, entries);
  const NumericOutcome numeric = run_numeric(ctx, nplan, symbolic.row_nnz);
  EXPECT_EQ(numeric.radix_sorted_elements, 0);
  EXPECT_DOUBLE_EQ(numeric.sorting_seconds, 0.0);
}

TEST(Kernels, WideKeysForHugeColumnCounts) {
  Fixture f;
  // Columns beyond 2^27 force 64-bit keys; result must stay exact.
  const index_t cols = (index_t{1} << 27) + 1000;
  Coo a_coo(40, cols);
  Xoshiro256 rng(809);
  for (index_t r = 0; r < 40; ++r) {
    for (int i = 0; i < 6; ++i) {
      a_coo.add(r, static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(40))), 1.0);
    }
    a_coo.add(r, cols - 1 - r, 2.0);  // far-right columns
  }
  const Csr a = a_coo.to_csr();
  // B: 40 rows of the wide matrix... use A itself is invalid (cols != rows);
  // build B = [40 x cols] accessed via A's first 40 columns.
  Coo b_coo(cols, cols);
  for (index_t r = 0; r < 40; ++r) {
    b_coo.add(r, cols - 10 + (r % 10), 1.0);
    b_coo.add(r, r, 1.0);
  }
  const Csr b = b_coo.to_csr();
  auto ctx = f.context(a, b);
  EXPECT_TRUE(ctx.wide_keys);
  const BinPlan splan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, splan);
  const auto expected = gustavson_symbolic(a, b);
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(symbolic.row_nnz[r], expected[r]) << "row " << r;
  }
}

TEST(Kernels, EmptyPlanProducesEmptyResult) {
  Fixture f;
  const Csr a = Csr::zeros(16, 16);
  auto ctx = f.context(a, a);
  const BinPlan plan = f.plan(ctx, true, f.analysis.products);
  const SymbolicOutcome symbolic = run_symbolic(ctx, plan);
  for (const index_t nnz : symbolic.row_nnz) EXPECT_EQ(nnz, 0);
  std::vector<offset_t> entries(symbolic.row_nnz.begin(), symbolic.row_nnz.end());
  const BinPlan nplan = f.plan(ctx, false, entries);
  const NumericOutcome numeric = run_numeric(ctx, nplan, symbolic.row_nnz);
  EXPECT_EQ(numeric.c.nnz(), 0);
}

// ---------------------------------------------------------------------------
// Golden counters of the exact pipeline on the Table-4 stand-ins. The other
// determinism tests compare runs against each other (threads, backends);
// this one pins the absolute values, so a host-side rewrite of the hash
// kernels that changes a probe, a block or a simulated second fails here
// even when it does so at every thread count alike.

/// FNV-1a over the bytes of C (offsets, columns, values).
std::uint64_t csr_fnv1a(const Csr& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  mix(c.row_offsets().data(), c.row_offsets().size_bytes());
  mix(c.col_indices().data(), c.col_indices().size_bytes());
  mix(c.values().data(), c.values().size_bytes());
  return h;
}

struct PassGolden {
  offset_t direct_rows, dense_rows, hash_rows;
  int global_hash_blocks;
  std::size_t global_pool_bytes, hash_probes, moved_entries, global_inserts;
};

struct CorpusGolden {
  const char* name;
  PassGolden symbolic, numeric;
  offset_t radix_sorted_elements;
  int symbolic_blocks, numeric_blocks;
  double seconds;
  std::uint64_t c_hash;
};

std::string describe_pass(const PassStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%lld, %lld, %lld, %d, %zu, %zu, %zu, %zu}",
                static_cast<long long>(s.direct_rows),
                static_cast<long long>(s.dense_rows),
                static_cast<long long>(s.hash_rows), s.global_hash_blocks,
                s.global_pool_bytes, s.hash_probes, s.moved_entries,
                s.global_inserts);
  return buf;
}

void expect_pass(const PassStats& got, const PassGolden& want) {
  EXPECT_EQ(got.direct_rows, want.direct_rows);
  EXPECT_EQ(got.dense_rows, want.dense_rows);
  EXPECT_EQ(got.hash_rows, want.hash_rows);
  EXPECT_EQ(got.global_hash_blocks, want.global_hash_blocks);
  EXPECT_EQ(got.global_pool_bytes, want.global_pool_bytes);
  EXPECT_EQ(got.hash_probes, want.hash_probes);
  EXPECT_EQ(got.moved_entries, want.moved_entries);
  EXPECT_EQ(got.global_inserts, want.global_inserts);
  EXPECT_EQ(got.estimate_underflow_rows, 0);
}

// clang-format off
const CorpusGolden kCorpusGolden[] = {
    {"webbase", {44, 0, 19956, 0, 0, 609716, 0, 0}, {884, 0, 19116, 0, 0, 343693, 0, 0}, 36729, 734, 1628, 0x1.af7978a0331f2p-13, 0x615471cfddd91813ull},
    {"hugebubbles", {0, 0, 52000, 0, 0, 2830875, 0, 0}, {0, 0, 52000, 0, 0, 3966465, 0, 0}, 0, 3467, 8667, 0x1.88186d6b56d92p-13, 0x10c66237228abdf4ull},
    {"mario002", {0, 0, 40000, 0, 0, 1533374, 0, 0}, {0, 0, 40000, 0, 0, 1369972, 0, 0}, 0, 2667, 10000, 0x1.4a204f74e540cp-13, 0xd231e0458d6e4f28ull},
    {"stat96v2", {0, 0, 4000, 0, 0, 946103, 0, 0}, {0, 0, 4000, 0, 0, 992012, 0, 0}, 0, 4000, 4000, 0x1.6f42174b8142bp-13, 0x67b7d29b392c9921ull},
    {"email-Enron", {6, 0, 5994, 0, 0, 1075359, 0, 0}, {185, 88, 5727, 0, 393216, 325180, 0, 0}, 45827, 578, 1226, 0x1.f30e77e7ee108p-13, 0xcf802b84e0db9c94ull},
    {"cage13", {0, 0, 24000, 0, 0, 2444069, 0, 0}, {0, 0, 24000, 0, 0, 2205775, 0, 0}, 0, 6000, 24000, 0x1.0298905426f06p-12, 0xaa05581c2f948929ull},
    {"144", {0, 0, 16000, 0, 0, 3966615, 0, 0}, {0, 16, 15984, 0, 0, 4348018, 0, 0}, 0, 16000, 16000, 0x1.7946f42f1959ap-12, 0xb91816c72c07e82aull},
    {"poisson3Da", {0, 0, 2197, 0, 0, 1225043, 0, 0}, {0, 162, 2035, 0, 0, 1159433, 0, 0}, 0, 2197, 2197, 0x1.1e636b988db95p-14, 0x5304b8f74884a698ull},
    {"QCD", {0, 0, 3000, 0, 0, 4343693, 0, 0}, {0, 3000, 0, 0, 0, 0, 0, 0}, 0, 3000, 3000, 0x1.7613b679878ecp-13, 0xe0767dc2e3040061ull},
    {"harbor", {0, 0, 4000, 0, 0, 8177113, 0, 0}, {0, 4000, 0, 0, 0, 0, 0, 0}, 0, 4000, 4000, 0x1.669ba186a2f1ep-12, 0x990105e52fd933c5ull},
    {"TSC_OPF", {0, 0, 800, 0, 0, 7220000, 0, 0}, {0, 800, 0, 0, 0, 0, 0, 0}, 0, 800, 800, 0x1.5b7057395b23cp-13, 0xbe3a75e83cfd2c9aull},
};
// clang-format on

TEST(KernelHotPath, CommonCorpusCountersGolden) {
  const std::vector<gen::CorpusEntry> corpus = gen::common_corpus();
  ASSERT_EQ(corpus.size(), std::size(kCorpusGolden));
  for (const int threads : {1, 4}) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const gen::CorpusEntry& entry = corpus[i];
      const CorpusGolden& want = kCorpusGolden[i];
      SCOPED_TRACE(entry.name + " at " + std::to_string(threads) + " threads");
      SpeckConfig config;
      config.thresholds = reduced_scale_thresholds();
      config.planning = PlanningMode::kExact;
      config.plan_cache = false;
      config.host_threads = threads;
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
      const SpGemmResult result = speck.multiply(entry.a, entry.b);
      ASSERT_TRUE(result.ok()) << result.failure_reason;
      const SpeckDiagnostics& d = speck.last_diagnostics();
      char tail[160];
      std::snprintf(tail, sizeof(tail), "%lld, %d, %d, %a, 0x%016llxull",
                    static_cast<long long>(d.radix_sorted_elements),
                    d.symbolic_blocks, d.numeric_blocks, result.seconds,
                    static_cast<unsigned long long>(csr_fnv1a(result.c)));
      SCOPED_TRACE("actual: {\"" + entry.name + "\", " +
                   describe_pass(d.symbolic) + ", " + describe_pass(d.numeric) +
                   ", " + tail + "},");
      EXPECT_STREQ(want.name, entry.name.c_str());
      expect_pass(d.symbolic, want.symbolic);
      expect_pass(d.numeric, want.numeric);
      EXPECT_EQ(d.radix_sorted_elements, want.radix_sorted_elements);
      EXPECT_EQ(d.symbolic_blocks, want.symbolic_blocks);
      EXPECT_EQ(d.numeric_blocks, want.numeric_blocks);
      EXPECT_EQ(result.seconds, want.seconds);
      EXPECT_EQ(csr_fnv1a(result.c), want.c_hash);
    }
  }
}

}  // namespace
}  // namespace speck
