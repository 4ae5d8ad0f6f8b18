// Tests for the structure-reuse fast path: Speck::plan /
// Speck::multiply_with_plan and the transparent plan cache behind
// Speck::multiply.
//
// The replay must be *bit-identical* to the full pipeline — same CSR bytes,
// same PassStats counters — at any thread count, including under forced
// spill fault injection. Stale plans (pattern or config changes) must be
// detected and rejected, never produce wrong values; the caller re-plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "ref/masked.h"
#include "speck/speck.h"

// The build links bench/counting_alloc.cpp into this test, which makes
// PassStats::hot_path_allocs count real heap allocations.

namespace speck {
namespace {

/// Same structure, fresh values.
Csr reweighted(const Csr& a, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<offset_t> offsets(a.row_offsets().begin(), a.row_offsets().end());
  std::vector<index_t> cols(a.col_indices().begin(), a.col_indices().end());
  std::vector<value_t> vals(static_cast<std::size_t>(a.nnz()));
  for (auto& v : vals) v = rng.next_double(-2.0, 2.0);
  return Csr(a.rows(), a.cols(), std::move(offsets), std::move(cols),
             std::move(vals));
}

/// Every PassStats counter must match; hot_path_allocs is checked separately
/// because it depends on workspace warm-up state, not on the computation.
void expect_stats_equal(const PassStats& replay, const PassStats& full,
                        const char* pass) {
  EXPECT_EQ(replay.seconds, full.seconds) << pass;
  EXPECT_EQ(replay.direct_rows, full.direct_rows) << pass;
  EXPECT_EQ(replay.dense_rows, full.dense_rows) << pass;
  EXPECT_EQ(replay.hash_rows, full.hash_rows) << pass;
  EXPECT_EQ(replay.global_hash_blocks, full.global_hash_blocks) << pass;
  EXPECT_EQ(replay.global_pool_bytes, full.global_pool_bytes) << pass;
  EXPECT_EQ(replay.hash_probes, full.hash_probes) << pass;
  EXPECT_EQ(replay.moved_entries, full.moved_entries) << pass;
  EXPECT_EQ(replay.global_inserts, full.global_inserts) << pass;
}

void expect_diagnostics_equal(const SpeckDiagnostics& replay,
                              const SpeckDiagnostics& full) {
  expect_stats_equal(replay.symbolic, full.symbolic, "symbolic");
  expect_stats_equal(replay.numeric, full.numeric, "numeric");
  EXPECT_EQ(replay.symbolic_lb_used, full.symbolic_lb_used);
  EXPECT_EQ(replay.numeric_lb_used, full.numeric_lb_used);
  EXPECT_EQ(replay.products, full.products);
  EXPECT_EQ(replay.radix_sorted_elements, full.radix_sorted_elements);
  EXPECT_EQ(replay.symbolic_blocks, full.symbolic_blocks);
  EXPECT_EQ(replay.numeric_blocks, full.numeric_blocks);
  EXPECT_EQ(replay.wide_keys, full.wide_keys);
}

/// Runs plan + replay on one Speck and a plain full multiply on another
/// (identical config), and checks bitwise-identical CSR output plus equal
/// PassStats counters.
void check_replay_matches_full(SpeckConfig cfg, const Csr& a, const Csr& b) {
  cfg.plan_cache = false;  // isolate the explicit plan API from the cache
  Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  Speck reference(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);

  const SpGemmResult full = reference.multiply(a, b);
  ASSERT_TRUE(full.ok()) << full.failure_reason;
  const SpeckDiagnostics full_diag = reference.last_diagnostics();

  const SpeckPlan plan = planner.plan(a, b);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  SpeckDiagnostics diag;
  const SpGemmResult replay = planner.multiply_with_plan(plan, a, b, &diag);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;
  EXPECT_TRUE(diag.plan_used);

  const auto diff = compare(replay.c, full.c, 0.0);  // bitwise
  EXPECT_FALSE(diff.has_value()) << diff->description;
  expect_diagnostics_equal(diag, full_diag);
  EXPECT_LT(replay.seconds, full.seconds)
      << "replay must skip analysis/symbolic/load-balancing time";
}

/// Same shape and the same bytes in all three CSR arrays.
void expect_csr_bytes_equal(const Csr& got, const Csr& want) {
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(got.row_offsets()),
                                 std::as_bytes(want.row_offsets())));
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(got.col_indices()),
                                 std::as_bytes(want.col_indices())));
  EXPECT_TRUE(std::ranges::equal(std::as_bytes(got.values()),
                                 std::as_bytes(want.values())));
}

TEST(PlanReuse, ReplayBitIdenticalAcrossThreadCounts) {
  const Csr a = gen::power_law(600, 600, 8, 1.9, 150, 2101);
  const Csr b = gen::power_law(600, 600, 7, 1.8, 150, 2103);
  const Csr mask = gen::random_uniform(600, 600, 20, 2104);
  enum class Mode { kExact, kEstimated, kMasked };
  for (const Mode mode : {Mode::kExact, Mode::kEstimated, Mode::kMasked}) {
    SCOPED_TRACE(static_cast<int>(mode));
    for (const int threads : {1, 3, 8}) {
      SCOPED_TRACE(threads);
      SpeckConfig cfg;
      cfg.host_threads = threads;
      cfg.planning = mode == Mode::kEstimated ? PlanningMode::kEstimated
                                              : PlanningMode::kExact;
      if (mode == Mode::kMasked) cfg.mask = std::make_shared<const Csr>(mask);
      // The explicit plan API replays serially on the calling thread.
      check_replay_matches_full(cfg, a, b);

      // The transparent cache replays on the instance's pool: the parallel
      // replay kernel whenever it has more than one thread.
      SpeckConfig off = cfg;
      off.plan_cache = false;
      Speck reference(sim::DeviceSpec::titan_v(), sim::CostModel{}, off);
      const SpGemmResult full = reference.multiply(a, b);
      ASSERT_TRUE(full.ok()) << full.failure_reason;
      Speck cached(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      SpGemmResult hit;
      for (int call = 0; call < 3; ++call) hit = cached.multiply(a, b);
      ASSERT_TRUE(hit.ok()) << hit.failure_reason;
      ASSERT_TRUE(cached.last_diagnostics().plan_cache_hit);
      expect_csr_bytes_equal(hit.c, full.c);
      EXPECT_EQ(hit.timeline.seconds(sim::Stage::kNumeric),
                full.timeline.seconds(sim::Stage::kNumeric));
      EXPECT_EQ(hit.timeline.seconds(sim::Stage::kSorting),
                full.timeline.seconds(sim::Stage::kSorting));
      expect_diagnostics_equal(cached.last_diagnostics(),
                               reference.last_diagnostics());
    }
  }
}

TEST(PlanReuse, ReplayBitIdenticalUnderForcedSpill) {
  const Csr a = gen::power_law(400, 400, 10, 1.7, 200, 2105);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SpeckConfig cfg;
    cfg.host_threads = threads;
    cfg.faults.hash_overflow_after = 8;   // force global-memory fallback
    cfg.faults.estimate_scale = 0.25;     // undersized bins -> spills
    check_replay_matches_full(cfg, a, a);
  }
}

TEST(PlanReuse, ReplayValuesOnlyAcrossValueChanges) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr base = gen::banded(500, 10, 6, 2107);
  const SpeckPlan plan = sp.plan(base, base);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  for (const std::uint64_t seed : {2109u, 2111u, 2113u}) {
    const Csr a = reweighted(base, seed);
    const Csr b = reweighted(base, seed + 7);
    const SpGemmResult replay = sp.multiply_with_plan(plan, a, b);
    ASSERT_TRUE(replay.ok()) << replay.failure_reason;
    const auto diff = compare(replay.c, gustavson_spgemm(a, b), 0.0);
    EXPECT_FALSE(diff.has_value())
        << "seed " << seed << ": " << diff->description;
  }
}

TEST(PlanReuse, ReplayHotPathIsAllocationFree) {
  SpeckConfig cfg;
  cfg.host_threads = 1;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::power_law(500, 500, 8, 1.9, 120, 2115);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  SpeckDiagnostics diag;
  const SpGemmResult replay = sp.multiply_with_plan(plan, a, a, &diag);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;
  EXPECT_TRUE(diag.plan_used);
  EXPECT_EQ(diag.numeric.hot_path_allocs, 0u)
      << "the values-only replay must not allocate";
}

/// A stale or incomplete plan comes back as kUnsupported with the reason.
void expect_rejected(const SpGemmResult& result) {
  EXPECT_EQ(result.status, SpGemmStatus::kUnsupported);
  EXPECT_NE(result.failure_reason.find("plan rejected: "), std::string::npos)
      << result.failure_reason;
  EXPECT_EQ(result.c.nnz(), 0) << "a rejected replay runs nothing";
}

/// The caller's answer to a rejected plan: multiply() (which re-plans
/// through the transparent cache) gives the oracle C.
void expect_replans_to_oracle(Speck& sp, const Csr& a, const Csr& b) {
  const SpGemmResult result = sp.multiply(a, b);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  const auto diff = compare(result.c, gustavson_spgemm(a, b), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, StalePatternMutationFallsBack) {
  SpeckConfig cfg;
  cfg.validate_inputs = true;  // enables the full pattern-hash check
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::random_uniform(200, 200, 6, 2117);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  // Same dims and nnz, different pattern: move one entry's column while
  // keeping the row sorted. Only the full fingerprint can catch this.
  Csr mutated = a;
  bool changed = false;
  for (index_t r = 0; r < mutated.rows() && !changed; ++r) {
    const auto cols = mutated.row_cols(r);
    if (cols.empty()) continue;
    const index_t last = cols[cols.size() - 1];
    if (last + 1 < mutated.cols()) {
      mutated.col_indices_mutable()[static_cast<std::size_t>(
          mutated.row_offsets()[r + 1] - 1)] = last + 1;
      changed = true;
    }
  }
  ASSERT_TRUE(changed);

  SpeckDiagnostics diag;
  expect_rejected(sp.multiply_with_plan(plan, mutated, mutated, &diag));
  EXPECT_FALSE(diag.plan_used);
  expect_replans_to_oracle(sp, mutated, mutated);
}

TEST(PlanReuse, StaleConfigChangeFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(200, 200, 6, 2119);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;

  // A planning-relevant config change invalidates the fingerprint's config
  // hash — caught by the O(1) quick check even without validate_inputs.
  sp.config().dense_density_threshold *= 0.5;
  expect_rejected(sp.multiply_with_plan(plan, a, a));
  expect_replans_to_oracle(sp, a, a);
}

TEST(PlanReuse, DimensionMismatchFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(150, 150, 5, 2121);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const Csr smaller = gen::random_uniform(100, 100, 5, 2123);
  expect_rejected(sp.multiply_with_plan(plan, smaller, smaller));
  expect_replans_to_oracle(sp, smaller, smaller);
}

TEST(PlanReuse, IncompletePlanFallsBack) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(100, 100, 4, 2125);
  const SpeckPlan empty;  // complete == false
  expect_rejected(sp.multiply_with_plan(empty, a, a));
  expect_replans_to_oracle(sp, a, a);
}

TEST(PlanReuse, TransparentCacheHitsOnThirdIdenticalMultiply) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});  // plan_cache on
  const Csr base = gen::power_law(400, 400, 7, 1.9, 100, 2127);

  // Call 1: new structure — full pipeline. Call 2: structure seen twice —
  // full pipeline that additionally captures a plan. Call 3+: replay.
  const SpGemmResult r1 = sp.multiply(base, base);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
  const SpGemmResult r2 = sp.multiply(base, base);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
  const SpGemmResult r3 = sp.multiply(base, base);
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  EXPECT_TRUE(sp.last_diagnostics().plan_used);

  const auto d12 = compare(r1.c, r2.c, 0.0);
  EXPECT_FALSE(d12.has_value()) << d12->description;
  const auto d13 = compare(r1.c, r3.c, 0.0);
  EXPECT_FALSE(d13.has_value()) << d13->description;
  EXPECT_LT(r3.seconds, r1.seconds);

  // Fresh values, same structure: still a hit, still exact.
  const Csr rw = reweighted(base, 2129);
  const SpGemmResult r4 = sp.multiply(rw, rw);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(sp.last_diagnostics().plan_cache_hit);
  const auto d4 = compare(r4.c, gustavson_spgemm(rw, rw), 0.0);
  EXPECT_FALSE(d4.has_value()) << d4->description;

  // A different structure evicts the slot and runs the full pipeline.
  const Csr other = gen::random_uniform(300, 300, 6, 2131);
  const SpGemmResult r5 = sp.multiply(other, other);
  ASSERT_TRUE(r5.ok());
  EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit);
}

TEST(PlanReuse, CacheDisabledNeverReplays) {
  SpeckConfig cfg;
  cfg.plan_cache = false;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  const Csr a = gen::random_uniform(200, 200, 5, 2133);
  for (int i = 0; i < 4; ++i) {
    const SpGemmResult r = sp.multiply(a, a);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(sp.last_diagnostics().plan_cache_hit) << i;
    EXPECT_FALSE(sp.last_diagnostics().plan_used) << i;
  }
}

TEST(PlanReuse, EmptyAndTinyMatrices) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr z = Csr::zeros(16, 16);
  const SpeckPlan zero_plan = sp.plan(z, z);
  ASSERT_TRUE(zero_plan.complete) << zero_plan.incomplete_reason;
  const SpGemmResult zero = sp.multiply_with_plan(zero_plan, z, z);
  ASSERT_TRUE(zero.ok()) << zero.failure_reason;
  EXPECT_EQ(zero.c.nnz(), 0);

  const Csr one = gen::random_uniform(1, 1, 1, 2135);
  const SpeckPlan one_plan = sp.plan(one, one);
  ASSERT_TRUE(one_plan.complete) << one_plan.incomplete_reason;
  const SpGemmResult r = sp.multiply_with_plan(one_plan, one, one);
  ASSERT_TRUE(r.ok());
  const auto diff = compare(r.c, gustavson_spgemm(one, one), 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(PlanReuse, PlanReportsByteSizeAndFingerprint) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::power_law(300, 300, 7, 1.8, 90, 2137);
  const SpeckPlan plan = sp.plan(a, a);
  ASSERT_TRUE(plan.complete);
  EXPECT_GT(plan.byte_size(), 0u);
  EXPECT_EQ(plan.fingerprint.a_rows, a.rows());
  EXPECT_EQ(plan.fingerprint.b_cols, a.cols());
  EXPECT_EQ(plan.fingerprint.a_nnz, a.nnz());
  EXPECT_NE(plan.fingerprint.a_pattern_hash, 0u);
  EXPECT_EQ(plan.c_nnz(), plan.fingerprint.a_rows == 0
                              ? 0
                              : plan.c_row_offsets.back());
  EXPECT_EQ(static_cast<std::size_t>(plan.c_nnz()), plan.c_col_indices.size());
}

TEST(PlanReuse, PlanPlusReplaySplitsTheFullRun) {
  // plan() records the structure-only share of the pipeline in
  // inspect_seconds and a replay charges the rest, so the two together
  // cover one full multiply — in every planning mode, masked included.
  const Csr a = gen::random_uniform(3000, 3000, 10, 1811);
  const Csr mask = gen::random_uniform(3000, 3000, 12, 1813);
  enum class Mode { kExact, kEstimated, kMasked };
  for (const Mode mode : {Mode::kExact, Mode::kEstimated, Mode::kMasked}) {
    SCOPED_TRACE(static_cast<int>(mode));
    SpeckConfig cfg;
    cfg.planning = mode == Mode::kEstimated ? PlanningMode::kEstimated
                                            : PlanningMode::kExact;
    if (mode == Mode::kMasked) cfg.mask = std::make_shared<const Csr>(mask);
    Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const SpeckPlan plan = sp.plan(a, a);
    ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
    const SpGemmResult replay = sp.multiply_with_plan(plan, a, a);
    ASSERT_TRUE(replay.ok()) << replay.failure_reason;

    Speck full(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    const SpGemmResult whole = full.multiply(a, a);
    ASSERT_TRUE(whole.ok());
    EXPECT_LT(replay.seconds, whole.seconds)
        << "replay must skip analysis/symbolic/load-balancing time";
    EXPECT_GT(plan.inspect_seconds, 0.0);
    EXPECT_NEAR(plan.inspect_seconds + replay.seconds, whole.seconds,
                whole.seconds * 1e-12);

    // The replay trace is the numeric-stage tail of a full run: every
    // launch from the first numeric kernel (or radix sort) on.
    const std::vector<sim::LaunchResult>& launches = full.last_trace().launches();
    const auto numeric_stage = [](const sim::LaunchResult& launch) {
      return launch.name == "radix_sort" ||
             (launch.name.rfind("numeric", 0) == 0 && launch.name != "numeric_lb");
    };
    const auto first = std::find_if(launches.begin(), launches.end(), numeric_stage);
    ASSERT_EQ(static_cast<std::size_t>(launches.end() - first),
              plan.replay_trace.size());
    for (std::size_t i = 0; i < plan.replay_trace.size(); ++i) {
      EXPECT_TRUE(numeric_stage(first[i])) << first[i].name;
      EXPECT_EQ(plan.replay_trace[i].name, first[i].name) << i;
      EXPECT_EQ(plan.replay_trace[i].seconds, first[i].seconds) << i;
    }
  }
}

TEST(PlanReuse, PlanRecordsRectangularFingerprint) {
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::rectangular_lp(60, 500, 6, 1819);
  const Csr b = transpose(a);
  const SpeckPlan plan = sp.plan(a, b);
  EXPECT_EQ(plan.fingerprint.a_rows, 60);
  EXPECT_EQ(plan.fingerprint.a_cols, 500);
  EXPECT_EQ(plan.fingerprint.b_cols, 60);
  EXPECT_EQ(plan.fingerprint.a_nnz, a.nnz());
  EXPECT_EQ(static_cast<index_t>(plan.row_nnz.size()), a.rows());
}

// The sizing information of a symbolic-only run comes with every plan: the
// exact row sizes and nnz of C, the product count and the simulated cost of
// the structure-only stages.
TEST(SymbolicEstimate, MatchesOracleCounts) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::power_law(300, 300, 7, 1.8, 80, 1901);
  const SpeckPlan plan = speck.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const auto expected = gustavson_symbolic(a, a);
  ASSERT_EQ(plan.row_nnz.size(), expected.size());
  offset_t total = 0;
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(plan.row_nnz[r], expected[r]) << "row " << r;
    total += expected[r];
  }
  EXPECT_EQ(plan.c_nnz(), total);
  EXPECT_GT(plan.inspect_seconds, 0.0);
  EXPECT_GT(plan.analysis.total_products, plan.c_nnz());  // compaction >= 1
}

TEST(SymbolicEstimate, CheaperThanFullMultiply) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{});
  const Csr a = gen::random_uniform(3000, 3000, 10, 1903);
  const SpeckPlan plan = speck.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  const SpGemmResult full = speck.multiply(a, a);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(plan.inspect_seconds, full.seconds);
}

}  // namespace
}  // namespace speck
