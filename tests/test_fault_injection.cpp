// Fault-injection matrix: every injected fault (estimate mis-scaling, forced
// hash-map overflow, shrunken scratchpads, jittered estimates, memory-budget
// caps) may only change the *planning* and the simulated cost. Over the whole
// test corpus the numeric CSR output must stay bit-identical to the Gustavson
// oracle — or fail with the typed out-of-memory status. This is the paper's
// graceful-degradation claim (estimates are hints, never correctness inputs)
// under deliberately hostile estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/speck.h"

namespace speck {
namespace {

struct NamedFault {
  std::string name;
  FaultSpec spec;
};

std::vector<NamedFault> fault_matrix() {
  std::vector<NamedFault> faults;
  {
    FaultSpec s;
    s.estimate_scale = 0.25;  // under-estimate: undersized bins, spills
    faults.push_back({"estimate-x0.25", s});
  }
  {
    FaultSpec s;
    s.estimate_scale = 4.0;  // over-estimate: rows mis-binned upward
    faults.push_back({"estimate-x4", s});
  }
  {
    FaultSpec s;
    s.hash_overflow_after = 8;  // force the global-memory fallback
    faults.push_back({"hash-overflow-after-8", s});
  }
  {
    FaultSpec s;
    s.scratchpad_scale = 0.5;  // kernels get half what binning assumed
    faults.push_back({"scratchpad-x0.5", s});
  }
  {
    FaultSpec s;
    s.estimate_jitter = 0.9;  // per-row chaos, deterministic via seed
    s.seed = 17;
    faults.push_back({"jitter-0.9", s});
  }
  {
    FaultSpec s;
    s.estimate_scale = 0.5;
    s.hash_overflow_after = 16;
    s.scratchpad_scale = 0.5;
    faults.push_back({"combined", s});
  }
  return faults;
}

Speck make_speck(const FaultSpec& spec, int host_threads) {
  SpeckConfig config;
  config.faults = spec;
  config.host_threads = host_threads;
  config.validate_inputs = true;
  return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, config);
}

void run_matrix(int host_threads) {
  const auto corpus = gen::test_corpus();
  const auto faults = fault_matrix();
  for (const auto& entry : corpus) {
    const Csr oracle = gustavson_spgemm(entry.a, entry.b);
    for (const auto& fault : faults) {
      Speck speck = make_speck(fault.spec, host_threads);
      const auto outcome = speck.try_multiply(entry.a, entry.b);
      ASSERT_TRUE(outcome.ok()) << entry.name << " under " << fault.name
                                << ": " << outcome.status.to_string();
      // Tolerance 0: bit-identical values, not merely close.
      const auto diff = compare(outcome.result.c, oracle, 0.0);
      EXPECT_FALSE(diff.has_value())
          << entry.name << " under " << fault.name << ": "
          << (diff ? diff->description : "");
    }
  }
}

TEST(FaultMatrix, OutputBitIdenticalToOracle) { run_matrix(/*host_threads=*/0); }

TEST(FaultMatrix, OutputBitIdenticalToOracleAt8Threads) {
  run_matrix(/*host_threads=*/8);
}

TEST(FaultMatrix, ForcedOverflowActuallySpills) {
  // Prove the fault drives the fallback path rather than being ignored.
  FaultSpec spec;
  spec.hash_overflow_after = 4;
  bool spilled_somewhere = false;
  for (const auto& entry : gen::test_corpus()) {
    Speck speck = make_speck(spec, 0);
    // The spill counters below belong to the exact pipeline's hash kernels.
    speck.config().planning = PlanningMode::kExact;
    const auto outcome = speck.try_multiply(entry.a, entry.b);
    ASSERT_TRUE(outcome.ok()) << entry.name;
    const SpeckDiagnostics& diag = speck.last_diagnostics();
    spilled_somewhere = spilled_somewhere ||
                        diag.symbolic.global_hash_blocks > 0 ||
                        diag.numeric.global_hash_blocks > 0;
  }
  EXPECT_TRUE(spilled_somewhere)
      << "hash-overflow-after=4 never reached the global fallback";
}

TEST(FaultMatrix, ResultsIdenticalAcrossThreadCounts) {
  FaultSpec spec;
  spec.estimate_jitter = 0.5;
  spec.seed = 99;
  spec.hash_overflow_after = 8;
  for (const auto& entry : gen::test_corpus()) {
    Speck one = make_speck(spec, 1);
    Speck eight = make_speck(spec, 8);
    const auto r1 = one.try_multiply(entry.a, entry.b);
    const auto r8 = eight.try_multiply(entry.a, entry.b);
    ASSERT_TRUE(r1.ok() && r8.ok()) << entry.name;
    EXPECT_FALSE(compare(r1.result.c, r8.result.c, 0.0).has_value())
        << entry.name;
    // The simulated schedule (and thus the modeled time) is part of the
    // determinism contract too.
    EXPECT_EQ(r1.result.seconds, r8.result.seconds) << entry.name;
  }
}

TEST(FaultMatrix, TightMemoryBudgetIsTypedFailure) {
  FaultSpec spec;
  spec.memory_budget_bytes = 2048;
  const auto corpus = gen::test_corpus();
  ASSERT_FALSE(corpus.empty());
  Speck speck = make_speck(spec, 0);
  const auto outcome = speck.try_multiply(corpus.front().a, corpus.front().b);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code, ErrorCode::kResourceExhausted);
  EXPECT_FALSE(outcome.status.message.empty());
}

TEST(FaultInjector, EstimateScalingIsDeterministic) {
  FaultSpec spec;
  spec.estimate_scale = 2.0;
  spec.estimate_jitter = 0.5;
  spec.seed = 7;
  const FaultInjector injector(spec);
  const FaultInjector again(spec);
  for (index_t row = 0; row < 64; ++row) {
    const offset_t scaled = injector.scale_estimate(row, 100);
    EXPECT_EQ(scaled, again.scale_estimate(row, 100));
    // scale 2 +/- 50% jitter keeps the factor within [1, 3].
    EXPECT_GE(scaled, 100);
    EXPECT_LE(scaled, 300);
  }
  // Different seeds must actually change something.
  FaultSpec other = spec;
  other.seed = 8;
  const FaultInjector reseeded(other);
  bool any_difference = false;
  for (index_t row = 0; row < 64; ++row) {
    any_difference = any_difference ||
                     injector.scale_estimate(row, 100) !=
                         reseeded.scale_estimate(row, 100);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, CapacityClampsToOneSlot) {
  FaultSpec spec;
  spec.scratchpad_scale = 0.001;
  const FaultInjector injector(spec);
  EXPECT_EQ(injector.scratchpad_capacity(10), 1u);
  EXPECT_EQ(injector.scratchpad_capacity(10000), 10u);
  // Identity when the fault is off.
  EXPECT_EQ(FaultInjector(FaultSpec{}).scratchpad_capacity(123), 123u);
}

TEST(FaultInjector, OverflowThresholdAndMemoryCap) {
  FaultSpec spec;
  spec.hash_overflow_after = 8;
  spec.memory_budget_bytes = 1000;
  const FaultInjector injector(spec);
  EXPECT_FALSE(injector.force_hash_overflow(7));
  EXPECT_TRUE(injector.force_hash_overflow(8));
  EXPECT_EQ(injector.cap_memory(5000), 1000u);
  EXPECT_EQ(injector.cap_memory(500), 500u);
  EXPECT_EQ(FaultInjector(FaultSpec{}).cap_memory(5000), 5000u);
}

// Memory-budget sweep: caps the simulated device memory at a fixed grid of
// budgets between 1 byte and the successful run's peak, and pins the
// ordered run-length sequence of failure_reason values ("" = success) to a
// golden table. The sequence is a fingerprint of the order and size of
// every device reservation a pipeline makes, so any reordering of the
// reservations — or a changed reason string — shows up here.
enum class SweepMode { kExact, kEstimated, kMasked };

using ReasonRuns = std::vector<std::pair<std::string, int>>;

constexpr int kSweepSteps = 256;

const Csr& sweep_input() {
  // A few rows long enough to outgrow the largest scratchpad map give both
  // passes a global hash pool; the forced load balancer and the hash-only
  // accumulation below keep every reservation of the pipelines in play.
  static const Csr a = gen::skewed_rows(3000, 3000, 0.001, 2800, 6, 4101);
  return a;
}

const std::shared_ptr<const Csr>& sweep_mask() {
  static const auto mask =
      std::make_shared<const Csr>(gen::random_uniform(3000, 3000, 40, 4103));
  return mask;
}

SpeckConfig sweep_config(SweepMode mode, std::size_t budget) {
  SpeckConfig cfg;
  cfg.plan_cache = false;
  cfg.planning = mode == SweepMode::kEstimated ? PlanningMode::kEstimated
                                               : PlanningMode::kExact;
  cfg.features.set_global_lb(GlobalLbMode::kAlwaysOn);
  cfg.features.dense_accumulation = false;
  cfg.faults.memory_budget_bytes = budget;
  if (mode == SweepMode::kMasked) cfg.mask = sweep_mask();
  return cfg;
}

/// One full run (`plan == nullptr`) or one replay of `*plan` under `budget`
/// bytes of device memory (0 = uncapped).
SpGemmResult budgeted_run(SweepMode mode, std::size_t budget, SpeckPlan* plan) {
  Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
              sweep_config(mode, budget));
  const Csr& a = sweep_input();
  if (plan == nullptr) return speck.multiply(a, a);
  // The budget joins the planning-config hash but never changes what the
  // plan computes: re-stamp the hash so the same plan replays under each.
  plan->fingerprint.config_hash = planning_config_hash(speck.config());
  SpeckDiagnostics diag;
  SpGemmResult result = speck.multiply_with_plan(*plan, a, a, &diag);
  EXPECT_NE(result.status, SpGemmStatus::kUnsupported) << result.failure_reason;
  EXPECT_TRUE(diag.plan_used);
  return result;
}

void expect_budget_sweep(SweepMode mode, bool replay, const ReasonRuns& golden) {
  SpeckPlan plan;
  if (replay) {
    Speck planner(sim::DeviceSpec::titan_v(), sim::CostModel{},
                  sweep_config(mode, 0));
    const Csr& a = sweep_input();
    plan = planner.plan(a, a);
    ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  }
  SpeckPlan* replayed = replay ? &plan : nullptr;
  const SpGemmResult uncapped = budgeted_run(mode, 0, replayed);
  ASSERT_TRUE(uncapped.ok()) << uncapped.failure_reason;
  const std::size_t peak = uncapped.peak_memory_bytes;
  ASSERT_GT(peak, 1u);

  EXPECT_TRUE(budgeted_run(mode, peak, replayed).ok())
      << "a budget of exactly the peak must suffice";
  const SpGemmResult short_by_one = budgeted_run(mode, peak - 1, replayed);
  EXPECT_EQ(short_by_one.status, SpGemmStatus::kOutOfMemory)
      << "one byte below the peak must fail";

  ReasonRuns runs;
  for (int i = 0; i <= kSweepSteps; ++i) {
    // Budget 0 means "uncapped", so the grid starts at 1 byte.
    const std::size_t budget = std::max<std::size_t>(
        1, peak * static_cast<std::size_t>(i) / kSweepSteps);
    const SpGemmResult result = budgeted_run(mode, budget, replayed);
    EXPECT_EQ(result.ok(), result.failure_reason.empty()) << budget;
    if (!runs.empty() && runs.back().first == result.failure_reason) {
      ++runs.back().second;
    } else {
      runs.emplace_back(result.failure_reason, 1);
    }
  }
  EXPECT_EQ(runs, golden);
  // The reservation that sets the peak is the one a budget one byte short
  // trips, and it is also the last failure on the grid.
  ASSERT_GE(golden.size(), 2u);
  EXPECT_EQ(short_by_one.failure_reason, golden[golden.size() - 2].first);
}

TEST(MemoryBudgetSweep, ExactFullRun) {
  expect_budget_sweep(SweepMode::kExact, /*replay=*/false,
                      {{"input matrices exceed device memory", 43},
                       {"row analysis buffers exceed device memory", 3},
                       {"load balancer buffers exceed device memory", 1},
                       {"global hash pool exceeds device memory", 25},
                       {"output matrix exceeds device memory", 111},
                       {"global hash pool exceeds device memory", 73},
                       {"", 1}});
}

TEST(MemoryBudgetSweep, EstimatedFullRun) {
  expect_budget_sweep(SweepMode::kEstimated, /*replay=*/false,
                      {{"input matrices exceed device memory", 35},
                       {"row estimation buffers exceed device memory", 4},
                       {"load balancer buffers exceed device memory", 1},
                       {"estimated output staging exceeds device memory", 105},
                       {"output matrix exceeds device memory", 111},
                       {"", 1}});
}

TEST(MemoryBudgetSweep, MaskedFullRun) {
  expect_budget_sweep(SweepMode::kMasked, /*replay=*/false,
                      {{"input matrices exceed device memory", 153},
                       {"row analysis buffers exceed device memory", 5},
                       {"load balancer buffers exceed device memory", 1},
                       {"masked output staging exceeds device memory", 94},
                       {"output matrix exceeds device memory", 3},
                       {"", 1}});
}

TEST(MemoryBudgetSweep, ExactReplay) {
  expect_budget_sweep(SweepMode::kExact, /*replay=*/true,
                      {{"input matrices exceed device memory", 44},
                       {"output matrix exceeds device memory", 138},
                       {"global hash pool exceeds device memory", 74},
                       {"", 1}});
}

TEST(MemoryBudgetSweep, EstimatedReplay) {
  expect_budget_sweep(SweepMode::kEstimated, /*replay=*/true,
                      {{"input matrices exceed device memory", 61},
                       {"output matrix exceeds device memory", 195},
                       {"", 1}});
}

TEST(MemoryBudgetSweep, MaskedReplay) {
  expect_budget_sweep(SweepMode::kMasked, /*replay=*/true,
                      {{"input matrices exceed device memory", 238},
                       {"output matrix exceeds device memory", 18},
                       {"", 1}});
}

}  // namespace
}  // namespace speck
