// Stage-by-stage re-drive of the library's pipelines through their public
// stage functions, in the order speck.cpp calls them, with a span around
// each call. The traced run checks every re-drive against the library's own
// entry point bit for bit: CSR bytes, every PassStats counter and the
// simulated seconds of every stage.
#pragma once

#include <string>

#include "bench.h"
#include "speck/plan.h"

namespace perfbench {

struct Redrive {
  speck::SpGemmResult result;  ///< c, timeline and total simulated seconds
  speck::PassStats symbolic;
  speck::PassStats numeric;
  std::int64_t radix_sorted_elements = 0;
  int lb_runs = 0;  ///< global load-balancer passes that ran
  /// Estimated planning only: planned rows and rows whose estimate
  /// underflowed.
  std::int64_t planned_rows = 0;
  /// Estimated-plan re-drive only: the captured plan state.
  speck::SpeckPlan plan;
};

/// Speck::multiply under exact planning without the plan cache: row
/// analysis -> symbolic LB -> symbolic -> numeric LB -> numeric + sort.
Redrive redrive_exact(speck::Speck& sp, const speck::Csr& a,
                      const speck::Csr& b, Tracer* tracer);

/// Speck::multiply_masked without the plan cache: row analysis -> numeric
/// LB off min(products, mask row) -> masked numeric.
Redrive redrive_masked(speck::Speck& sp, const speck::Csr& a,
                       const speck::Csr& b, const speck::Csr& mask,
                       Tracer* tracer);

/// Speck::plan under estimated planning: fingerprint -> estimator ->
/// numeric LB -> estimated numeric -> replay-program build.
Redrive redrive_estimated_plan(speck::Speck& sp, const speck::Csr& a,
                               const speck::Csr& b, Tracer* tracer);

/// Empty when the re-drive reproduces the library result, else a reason.
std::string compare_with_multiply(const Redrive& r,
                                  const speck::SpGemmResult& lib,
                                  const speck::SpeckDiagnostics& diag);
std::string compare_with_plan(const Redrive& r, const speck::SpeckPlan& lib);

}  // namespace perfbench
