#include "redrive.h"

#include <algorithm>
#include <cstring>

#include "common/simd.h"
#include "speck/estimator.h"
#include "speck/masked_pass.h"

namespace perfbench {

using speck::BinPlan;
using speck::Csr;
using speck::GlobalLbInputs;
using speck::index_t;
using speck::offset_t;
namespace sim = speck::sim;

namespace {

speck::KernelContext make_context(speck::Speck& sp, const Csr& a, const Csr& b,
                                  sim::LaunchTrace& trace) {
  speck::KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.cfg = &sp.config();
  ctx.configs = &sp.configs();
  ctx.device = &sp.device();
  ctx.model = &sp.cost_model();
  ctx.wide_keys = b.cols() > speck::kMaxColumns32Bit;
  ctx.trace = &trace;
  ctx.pool = sp.host_pool();
  ctx.workspaces = &sp.workspaces();
  ctx.simd = speck::simd::resolve_backend(sp.config().simd_backend);
  return ctx;
}

/// Numeric binning demand: row sizes inflated by the hash fill limit.
template <typename T>
std::vector<offset_t> numeric_entries(std::span<const T> rows, double fill) {
  std::vector<offset_t> out(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out[r] = static_cast<offset_t>(static_cast<double>(rows[r]) / fill + 1.0);
  }
  return out;
}

/// One global load-balancer invocation; charges the timeline when it ran.
BinPlan balance(speck::Speck& sp, std::span<const offset_t> entries,
                bool symbolic, sim::Stage stage, Redrive& r, Tracer* tracer) {
  const ScopedSpan span(tracer, "global_lb");
  sim::Launch launch(symbolic ? "symbolic_lb" : "numeric_lb", sp.device(),
                     sp.cost_model());
  BinPlan plan = speck::plan_global_lb(GlobalLbInputs{entries, symbolic},
                                       sp.configs(), sp.config(), launch);
  if (plan.used_load_balancer) {
    r.result.timeline.add(stage, launch.finish().seconds);
    ++r.lb_runs;
  }
  return plan;
}

speck::RowAnalysis analyze(speck::Speck& sp, const Csr& a, const Csr& b,
                           Redrive& r, Tracer* tracer) {
  const ScopedSpan span(tracer, "row_analysis");
  sim::Launch launch("row_analysis", sp.device(), sp.cost_model());
  speck::RowAnalysis analysis = speck::analyze_rows(a, b, launch, sp.host_pool());
  r.result.timeline.add(sim::Stage::kAnalysis, launch.finish().seconds);
  return analysis;
}

bool same_double(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

template <typename T, typename U>
bool same_bytes(const T& x, const U& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
}

}  // namespace

Redrive redrive_exact(speck::Speck& sp, const Csr& a, const Csr& b,
                      Tracer* tracer) {
  const ScopedSpan root(tracer, "speck.multiply");
  Redrive r;
  sim::LaunchTrace trace;
  speck::KernelContext ctx = make_context(sp, a, b, trace);
  const speck::RowAnalysis analysis = analyze(sp, a, b, r, tracer);
  ctx.analysis = &analysis;
  const BinPlan symbolic_plan =
      balance(sp, analysis.products, true, sim::Stage::kSymbolicLoadBalance, r,
              tracer);
  speck::SymbolicOutcome symbolic;
  {
    const ScopedSpan span(tracer, "symbolic_pass");
    symbolic = speck::run_symbolic(ctx, symbolic_plan);
  }
  r.symbolic = symbolic.stats;
  r.result.timeline.add(sim::Stage::kSymbolic, symbolic.stats.seconds);
  const std::vector<offset_t> entries = numeric_entries(
      std::span<const index_t>(symbolic.row_nnz), sp.config().max_numeric_fill);
  const BinPlan numeric_plan = balance(
      sp, entries, false, sim::Stage::kNumericLoadBalance, r, tracer);
  speck::NumericOutcome numeric;
  {
    const ScopedSpan span(tracer, "numeric_pass");
    numeric = speck::run_numeric(ctx, numeric_plan, symbolic.row_nnz);
  }
  r.numeric = numeric.stats;
  r.radix_sorted_elements = static_cast<std::int64_t>(numeric.radix_sorted_elements);
  r.result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  r.result.timeline.add(sim::Stage::kSorting, numeric.sorting_seconds);
  r.result.c = std::move(numeric.c);
  r.result.seconds = r.result.timeline.total_seconds();
  return r;
}

Redrive redrive_masked(speck::Speck& sp, const Csr& a, const Csr& b,
                       const Csr& mask, Tracer* tracer) {
  const ScopedSpan root(tracer, "speck.multiply_masked");
  Redrive r;
  sim::LaunchTrace trace;
  speck::KernelContext ctx = make_context(sp, a, b, trace);
  ctx.mask = &mask;
  const speck::RowAnalysis analysis = analyze(sp, a, b, r, tracer);
  ctx.analysis = &analysis;
  const std::span<const offset_t> mask_offsets = mask.row_offsets();
  std::vector<index_t> demand(static_cast<std::size_t>(a.rows()));
  for (std::size_t row = 0; row < demand.size(); ++row) {
    demand[row] = static_cast<index_t>(std::min(
        analysis.products[row], mask_offsets[row + 1] - mask_offsets[row]));
  }
  const std::vector<offset_t> entries = numeric_entries(
      std::span<const index_t>(demand), sp.config().max_numeric_fill);
  const BinPlan numeric_plan = balance(
      sp, entries, false, sim::Stage::kNumericLoadBalance, r, tracer);
  speck::MaskedNumericOutcome numeric;
  {
    const ScopedSpan span(tracer, "masked_pass");
    numeric = speck::run_numeric_masked(ctx, numeric_plan, demand);
  }
  r.numeric = numeric.stats;
  r.result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  r.result.c = std::move(numeric.c);
  r.result.seconds = r.result.timeline.total_seconds();
  return r;
}

Redrive redrive_estimated_plan(speck::Speck& sp, const Csr& a, const Csr& b,
                               Tracer* tracer) {
  const ScopedSpan root(tracer, "speck.plan");
  Redrive r;
  speck::SpeckPlan& plan = r.plan;
  {
    const ScopedSpan span(tracer, "plan.fingerprint");
    plan.fingerprint = speck::plan_fingerprint(a, b, sp.config());
  }
  sim::LaunchTrace trace;
  speck::KernelContext ctx = make_context(sp, a, b, trace);
  speck::RowEstimate estimate;
  {
    const ScopedSpan span(tracer, "estimator");
    sim::Launch launch("row_estimator", sp.device(), sp.cost_model());
    estimate = speck::estimate_rows(a, b, sp.config(), launch, sp.host_pool());
    r.result.timeline.add(sim::Stage::kAnalysis, launch.finish().seconds);
  }
  ctx.analysis = &estimate.analysis;
  const std::vector<offset_t> entries =
      numeric_entries(std::span<const index_t>(estimate.row_nnz_estimate),
                      sp.config().max_numeric_fill);
  BinPlan numeric_plan = balance(sp, entries, false,
                                 sim::Stage::kNumericLoadBalance, r, tracer);
  speck::EstimatedNumericOutcome numeric;
  {
    const ScopedSpan span(tracer, "estimated_numeric");
    numeric = speck::run_numeric_estimated(ctx, numeric_plan,
                                           estimate.row_nnz_estimate);
  }
  r.numeric = numeric.stats;
  r.planned_rows = a.rows();
  r.radix_sorted_elements = static_cast<std::int64_t>(numeric.radix_sorted_elements);
  r.result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  r.result.timeline.add(sim::Stage::kSorting, numeric.sorting_seconds);
  {
    const ScopedSpan span(tracer, "plan.build_program");
    const std::span<const offset_t> offsets = numeric.c.row_offsets();
    const std::span<const index_t> cols = numeric.c.col_indices();
    plan.c_row_offsets.assign(offsets.begin(), offsets.end());
    plan.c_col_indices.assign(cols.begin(), cols.end());
    plan.program = speck::build_replay_program(
        ctx, numeric_plan, estimate.row_nnz_estimate, plan.c_row_offsets,
        plan.c_col_indices);
  }
  plan.complete = true;
  plan.row_nnz = std::move(numeric.row_nnz);
  plan.numeric_seconds = numeric.stats.seconds;
  plan.sorting_seconds = numeric.sorting_seconds;
  plan.analysis = std::move(estimate.analysis);
  plan.numeric_plan = std::move(numeric_plan);
  r.result.c = std::move(numeric.c);
  r.result.seconds = r.result.timeline.total_seconds();
  return r;
}

std::string compare_with_multiply(const Redrive& r,
                                  const speck::SpGemmResult& lib,
                                  const speck::SpeckDiagnostics& diag) {
  if (!lib.ok()) return "library multiply failed: " + lib.failure_reason;
  if (!csr_equal(r.result.c, lib.c)) return "C differs";
  if (!timeline_equal(r.result.timeline, lib.timeline)) {
    return "simulated stage seconds differ";
  }
  if (!diag.masked && !diag.estimated_planning &&
      !pass_stats_equal(r.symbolic, diag.symbolic)) {
    return "symbolic PassStats differ";
  }
  if (!pass_stats_equal(r.numeric, diag.numeric)) return "numeric PassStats differ";
  if (r.radix_sorted_elements !=
      static_cast<std::int64_t>(diag.radix_sorted_elements)) {
    return "radix-sorted element count differs";
  }
  const int lib_lb = (diag.symbolic_lb_used ? 1 : 0) + (diag.numeric_lb_used ? 1 : 0);
  if (r.lb_runs != lib_lb) return "load-balancer decisions differ";
  return {};
}

std::string compare_with_plan(const Redrive& r, const speck::SpeckPlan& lib) {
  const speck::SpeckPlan& p = r.plan;
  if (!lib.complete) return "library plan incomplete: " + lib.incomplete_reason;
  if (!p.fingerprint.matches_full(lib.fingerprint)) return "fingerprint differs";
  if (!same_bytes(p.c_row_offsets, lib.c_row_offsets) ||
      !same_bytes(p.c_col_indices, lib.c_col_indices)) {
    return "C pattern differs";
  }
  if (!same_bytes(p.row_nnz, lib.row_nnz)) return "row nnz differs";
  if (p.program.masked != lib.program.masked ||
      !same_bytes(p.program.row_op_start, lib.program.row_op_start) ||
      !same_bytes(p.program.dest, lib.program.dest)) {
    return "replay program differs";
  }
  if (!pass_stats_equal(r.numeric, lib.diagnostics.numeric)) {
    return "numeric PassStats differ";
  }
  if (!same_double(p.numeric_seconds, lib.numeric_seconds) ||
      !same_double(p.sorting_seconds, lib.sorting_seconds)) {
    return "simulated seconds differ";
  }
  return {};
}

}  // namespace perfbench
