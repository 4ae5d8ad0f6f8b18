// Estimation-based planning tests (src/speck/estimator.h).
//
// The contract: estimated planning changes how much work plan() spends, never
// what the multiply computes. C must be bit-identical to exact-mode planning
// at any thread count — including when fault injection scales the sampled
// estimates below the true row sizes and every row re-runs through the exact
// fallback. Estimated and exact plans must never collide in the plan cache.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/fault_injection.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/estimator.h"
#include "speck/plan_cache.h"
#include "speck/speck.h"

namespace speck {
namespace {

Speck make_speck(SpeckConfig cfg) {
  return Speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
}

/// Runs the same inputs through exact and estimated planning (separate
/// instances, otherwise identical configs) and checks bitwise-identical C.
/// Returns the estimated run's diagnostics for further checks.
SpeckDiagnostics check_estimated_matches_exact(SpeckConfig cfg, const Csr& a,
                                               const Csr& b) {
  cfg.plan_cache = false;
  cfg.planning = PlanningMode::kExact;
  Speck exact = make_speck(cfg);
  cfg.planning = PlanningMode::kEstimated;
  Speck estimated = make_speck(cfg);

  const SpGemmResult exact_result = exact.multiply(a, b);
  EXPECT_TRUE(exact_result.ok()) << exact_result.failure_reason;
  EXPECT_FALSE(exact.last_diagnostics().estimated_planning);
  EXPECT_EQ(exact.last_diagnostics().numeric.estimate_underflow_rows, 0);

  const SpGemmResult est_result = estimated.multiply(a, b);
  EXPECT_TRUE(est_result.ok()) << est_result.failure_reason;
  EXPECT_TRUE(estimated.last_diagnostics().estimated_planning);

  const auto diff = compare(est_result.c, exact_result.c, 0.0);  // bitwise
  EXPECT_FALSE(diff.has_value()) << diff->description;
  const auto oracle = compare(est_result.c, gustavson_spgemm(a, b), 0.0);
  EXPECT_FALSE(oracle.has_value()) << oracle->description;
  return estimated.last_diagnostics();
}

TEST(Estimator, SamplingDeterministicUnderFixedSeedAndThreadCount) {
  const Csr a = gen::power_law(700, 700, 9, 1.8, 160, 8101);
  const Csr b = gen::power_law(700, 700, 8, 1.9, 160, 8103);
  SpeckConfig cfg;  // default estimator_seed
  const sim::DeviceSpec device = sim::DeviceSpec::titan_v();
  const sim::CostModel model;

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  sim::Launch l1("row_estimator", device, model);
  sim::Launch l2("row_estimator", device, model);
  sim::Launch l3("row_estimator", device, model);
  const RowEstimate serial = estimate_rows(a, b, cfg, l1, &pool1);
  const RowEstimate again = estimate_rows(a, b, cfg, l2, &pool1);
  const RowEstimate parallel = estimate_rows(a, b, cfg, l3, &pool8);

  // Same seed => identical estimates, run-to-run and at any thread count.
  EXPECT_EQ(serial.row_nnz_estimate, again.row_nnz_estimate);
  EXPECT_EQ(serial.analysis.products, again.analysis.products);
  EXPECT_EQ(serial.row_nnz_estimate, parallel.row_nnz_estimate);
  EXPECT_EQ(serial.analysis.products, parallel.analysis.products);
  EXPECT_EQ(serial.analysis.longest_b_row, parallel.analysis.longest_b_row);
}

TEST(Estimator, EstimatesAreBoundedAndConservative) {
  const Csr a = gen::power_law(500, 500, 10, 1.7, 200, 8105);
  SpeckConfig cfg;
  sim::Launch launch("row_estimator", sim::DeviceSpec::titan_v(),
                     sim::CostModel{});
  const RowEstimate est = estimate_rows(a, a, cfg, launch);
  ASSERT_EQ(est.row_nnz_estimate.size(), static_cast<std::size_t>(a.rows()));
  for (std::size_t r = 0; r < est.row_nnz_estimate.size(); ++r) {
    EXPECT_GE(est.row_nnz_estimate[r], 0);
    EXPECT_LE(est.row_nnz_estimate[r], a.cols());
    // An estimate is only 0 when the row produces nothing at all.
    if (a.row_length(static_cast<index_t>(r)) > 0 &&
        est.analysis.products[r] > 0) {
      EXPECT_GE(est.row_nnz_estimate[r], 1);
    }
  }
}

TEST(Estimator, MultiplyBitIdenticalToExactAcrossThreadCounts) {
  const Csr a = gen::power_law(800, 800, 9, 1.8, 180, 8107);
  const Csr b = gen::power_law(800, 800, 8, 1.9, 180, 8109);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SpeckConfig cfg;
    cfg.host_threads = threads;
    check_estimated_matches_exact(cfg, a, b);
  }
}

TEST(Estimator, MultiplyBitIdenticalOnStructuredMatrices) {
  // Banded/stencil structures exercise the dense and direct row methods.
  const Csr grid = gen::stencil_2d(40, 40);
  const Csr band = gen::banded(600, 10, 7, 8111);
  SpeckConfig cfg;
  cfg.host_threads = 4;
  check_estimated_matches_exact(cfg, grid, grid);
  check_estimated_matches_exact(cfg, band, band);
}

TEST(Estimator, ForcedUnderflowFallsBackBitIdentical) {
  const Csr a = gen::power_law(600, 600, 9, 1.8, 150, 8113);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    SpeckConfig cfg;
    cfg.host_threads = threads;
    // Scale every sampled estimate to a fraction of the true size: most
    // rows underflow their staging slot and re-run the exact fallback.
    cfg.faults.estimator_scale = 0.05;
    const SpeckDiagnostics diag = check_estimated_matches_exact(cfg, a, a);
    EXPECT_GT(diag.numeric.estimate_underflow_rows, 0)
        << "estimator-scale=0.05 must force fallback re-runs";
  }
}

TEST(Estimator, UnderflowCounterBoundedOnHonestEstimates) {
  const Csr a = gen::power_law(800, 800, 9, 1.8, 180, 8115);
  SpeckConfig cfg;
  cfg.planning = PlanningMode::kEstimated;
  Speck sp = make_speck(cfg);
  const SpGemmResult result = sp.multiply(a, a);
  ASSERT_TRUE(result.ok()) << result.failure_reason;
  // The safety margin keeps the fallback the exception, not the rule.
  const double rate =
      static_cast<double>(sp.last_diagnostics().numeric.estimate_underflow_rows) /
      static_cast<double>(a.rows());
  EXPECT_LT(rate, 0.5) << "more than half the rows underflowed their estimate";
}

TEST(Estimator, EstimatedPlanReplaysBitIdentical) {
  const Csr a = gen::power_law(600, 600, 8, 1.9, 150, 8117);
  SpeckConfig cfg;
  cfg.plan_cache = false;
  cfg.planning = PlanningMode::kEstimated;
  Speck planner = make_speck(cfg);
  cfg.planning = PlanningMode::kExact;
  Speck exact = make_speck(cfg);

  const SpGemmResult full = exact.multiply(a, a);
  ASSERT_TRUE(full.ok()) << full.failure_reason;

  const SpeckPlan plan = planner.plan(a, a);
  ASSERT_TRUE(plan.complete) << plan.incomplete_reason;
  EXPECT_TRUE(plan.diagnostics.estimated_planning);
  SpeckDiagnostics diag;
  const SpGemmResult replay = planner.multiply_with_plan(plan, a, a, &diag);
  ASSERT_TRUE(replay.ok()) << replay.failure_reason;
  EXPECT_TRUE(diag.plan_used);
  const auto diff = compare(replay.c, full.c, 0.0);
  EXPECT_FALSE(diff.has_value()) << diff->description;
}

TEST(Estimator, PlanFingerprintSeparatesPlanningModes) {
  SpeckConfig exact_cfg;
  exact_cfg.planning = PlanningMode::kExact;
  SpeckConfig est_cfg = exact_cfg;
  est_cfg.planning = PlanningMode::kEstimated;
  EXPECT_NE(planning_config_hash(exact_cfg), planning_config_hash(est_cfg));

  // Every estimator knob is planning-relevant in the hash.
  SpeckConfig knobs = est_cfg;
  knobs.estimator_samples *= 2;
  EXPECT_NE(planning_config_hash(est_cfg), planning_config_hash(knobs));
  knobs = est_cfg;
  knobs.estimator_safety_margin += 0.5;
  EXPECT_NE(planning_config_hash(est_cfg), planning_config_hash(knobs));
  knobs = est_cfg;
  knobs.estimator_seed ^= 1;
  EXPECT_NE(planning_config_hash(est_cfg), planning_config_hash(knobs));
  knobs = est_cfg;
  knobs.faults.estimator_scale = 0.5;
  EXPECT_NE(planning_config_hash(est_cfg), planning_config_hash(knobs));
}

TEST(Estimator, PlanCacheNeverConflatesPlanningModes) {
  const Csr a = gen::random_uniform(300, 300, 6, 8119);
  SpeckConfig cfg;
  cfg.planning = PlanningMode::kEstimated;
  Speck estimated = make_speck(cfg);
  const SpeckPlan built = estimated.plan(a, a);
  ASSERT_TRUE(built.complete) << built.incomplete_reason;

  PlanCache cache(1, 64 << 20);
  auto shared = std::make_shared<SpeckPlan>(built);
  cache.insert(shared);
  EXPECT_NE(cache.find(plan_fingerprint(a, a, cfg)), nullptr);

  cfg.planning = PlanningMode::kExact;
  EXPECT_EQ(cache.find(plan_fingerprint(a, a, cfg)), nullptr)
      << "an estimated plan must never serve an exact-mode lookup";
}

TEST(Estimator, FaultSpecParsesEstimatorScale) {
  const FaultSpec spec = parse_fault_spec("estimator-scale=0.25");
  EXPECT_DOUBLE_EQ(spec.estimator_scale, 0.25);
  EXPECT_TRUE(spec.enabled());
  EXPECT_NE(describe(spec).find("estimator-scale"), std::string::npos);

  const FaultInjector injector(spec);
  EXPECT_EQ(injector.scale_sampled_estimate(100), 25);
  EXPECT_EQ(injector.scale_sampled_estimate(0), 0);
  EXPECT_THROW(parse_fault_spec("estimator-scale=-1"), InvalidArgument);
}

TEST(Estimator, ConfigValidatesEstimatorKnobs) {
  SpeckConfig cfg;
  cfg.estimator_samples = 0;
  EXPECT_THROW(validate(cfg), InvalidArgument);
  cfg = SpeckConfig{};
  cfg.estimator_safety_margin = 0.5;
  EXPECT_THROW(validate(cfg), InvalidArgument);
  cfg = SpeckConfig{};
  cfg.estimator_safety_margin = 17.0;
  EXPECT_THROW(validate(cfg), InvalidArgument);
}

TEST(Estimator, PlanningModeParsingAndResolution) {
  EXPECT_EQ(parse_planning_mode("exact"), PlanningMode::kExact);
  EXPECT_EQ(parse_planning_mode("estimated"), PlanningMode::kEstimated);
  EXPECT_EQ(parse_planning_mode("auto"), PlanningMode::kAuto);
  EXPECT_FALSE(parse_planning_mode("bogus").has_value());
  EXPECT_STREQ(planning_mode_name(PlanningMode::kEstimated), "estimated");

  // Concrete modes resolve to themselves regardless of the environment.
  EXPECT_EQ(resolve_planning(PlanningMode::kExact), PlanningMode::kExact);
  EXPECT_EQ(resolve_planning(PlanningMode::kEstimated),
            PlanningMode::kEstimated);
#if !defined(_WIN32)
  // kAuto follows SPECK_PLANNING, defaulting to exact.
  const char* saved = std::getenv("SPECK_PLANNING");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("SPECK_PLANNING", "estimated", 1);
  EXPECT_EQ(resolve_planning(PlanningMode::kAuto), PlanningMode::kEstimated);
  ::unsetenv("SPECK_PLANNING");
  EXPECT_EQ(resolve_planning(PlanningMode::kAuto), PlanningMode::kExact);
  if (saved != nullptr) ::setenv("SPECK_PLANNING", saved_value.c_str(), 1);
#endif
}

}  // namespace
}  // namespace speck
