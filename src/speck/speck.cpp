#include "speck/speck.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/bit_utils.h"
#include "common/prefix_sum.h"
#include "matrix/matrix_stats.h"
#include "sim/memory_tracker.h"
#include "speck/estimator.h"
#include "speck/masked_pass.h"

namespace speck {
namespace {

// The replay program packs each C value slot with the assign-first flag
// into one uint32 (NumericReplayProgram::kAssignFirst), so indices must fit
// in 31 bits.
constexpr std::uint64_t kMaxReplayIndex = 1ULL << 31;

void validate_multiply_inputs(const Csr& a, const Csr& b) {
  a.validate();
  b.validate();
  if (!a.sorted_within_rows()) {
    throw BadInput("matrix A has unsorted rows (CSR requires ascending "
                   "column indices; call sort_rows())",
                   "Speck::multiply");
  }
  if (!b.sorted_within_rows()) {
    throw BadInput("matrix B has unsorted rows (CSR requires ascending "
                   "column indices; call sort_rows())",
                   "Speck::multiply");
  }
}

/// The output mask must describe positions of C = A*B, i.e. be rows(A) x
/// cols(B). The dimension check is unconditional (it is O(1) and a wrong-
/// shape mask silently corrupts the product); the O(nnz) structural checks
/// run under validate_inputs like A's and B's.
void validate_mask_input(const Csr& a, const Csr& b, const Csr& mask,
                         bool full) {
  if (mask.rows() != a.rows() || mask.cols() != b.cols()) {
    throw BadInput("output mask must be rows(A) x cols(B) = " +
                       std::to_string(a.rows()) + "x" + std::to_string(b.cols()) +
                       "; got " + std::to_string(mask.rows()) + "x" +
                       std::to_string(mask.cols()),
                   "Speck::multiply_masked");
  }
  if (!full) return;
  mask.validate();
  if (!mask.sorted_within_rows()) {
    throw BadInput("mask has unsorted rows (CSR requires ascending column "
                   "indices; call sort_rows())",
                   "Speck::multiply_masked");
  }
}

/// Why `plan` must not be replayed against (a, b) under `cfg`, or empty.
/// Shared by the fallback (legacy) and reject (concurrent) replay entries.
std::string plan_reject_reason(const SpeckPlan& plan, const Csr& a,
                               const Csr& b, const SpeckConfig& cfg) {
  if (!plan.complete) {
    return plan.incomplete_reason.empty() ? "plan is incomplete"
                                          : plan.incomplete_reason;
  }
  const Csr* mask = cfg.mask.get();
  if (plan.fingerprint.masked && mask == nullptr) {
    return "plan is masked but no mask is configured (set SpeckConfig::mask "
           "to the mask the plan was built with)";
  }
  const PlanFingerprint now =
      mask != nullptr
          ? plan_fingerprint_masked(a, b, *mask, cfg,
                                    /*with_pattern_hashes=*/cfg.validate_inputs)
          : plan_fingerprint(a, b, cfg,
                             /*with_pattern_hashes=*/cfg.validate_inputs);
  const bool match = cfg.validate_inputs
                         ? now.matches_full(plan.fingerprint)
                         : now.matches_quick(plan.fingerprint);
  if (!match) {
    return "structural fingerprint mismatch: plan is stale for these "
           "inputs or this configuration";
  }
  return {};
}

}  // namespace

ThreadPool* Speck::host_pool() {
  if (config_.host_threads == 0) {
    pool_.reset();
    return nullptr;
  }
  if (!pool_ || pool_->thread_count() != config_.host_threads) {
    pool_ = std::make_unique<ThreadPool>(config_.host_threads);
  }
  return pool_.get();
}

bool Speck::plan_worth_caching(const Csr& a, const Csr& b) const {
  if (static_cast<std::uint64_t>(a.nnz()) >= kMaxReplayIndex ||
      static_cast<std::uint64_t>(b.nnz()) >= kMaxReplayIndex) {
    return false;
  }
  // estimate_plan_bytes is O(nnz_A) — cheap relative to the full multiply
  // the cache is about to amortize — and bounds the plan's real byte_size(),
  // so a structure admitted here can actually be retained by the cache.
  return estimate_plan_bytes(a, b) <= config_.plan_cache_limit_bytes;
}

PlanCache& Speck::plan_cache() {
  const int shards = std::max(config_.plan_cache_shards, 1);
  if (!transparent_cache_ || transparent_cache_->shards() != shards ||
      transparent_cache_->limit_bytes() != config_.plan_cache_limit_bytes) {
    transparent_cache_ =
        std::make_unique<PlanCache>(shards, config_.plan_cache_limit_bytes);
  }
  return *transparent_cache_;
}

SpGemmResult Speck::multiply(const Csr& a, const Csr& b) {
  if (config_.mask != nullptr) return multiply_masked(a, b, *config_.mask);
  if (!config_.plan_cache) {
    has_last_structure_ = false;
    transparent_cache_.reset();
    return multiply_full(a, b, nullptr);
  }
  PlanCache& cache = plan_cache();
  const PlanFingerprint fp = plan_fingerprint(a, b, config_);
  if (const std::shared_ptr<const SpeckPlan> plan = cache.find(fp)) {
    SpGemmResult result = replay_plan(*plan, a, b);
    diagnostics_.plan_cache_hit = true;
    return result;
  }
  // Build the plan only once the same structure shows up twice in a row:
  // one-off multiplies never pay the capture cost, iterative workloads pay
  // it exactly once.
  const bool build = has_last_structure_ && fp.matches_full(last_structure_) &&
                     plan_worth_caching(a, b);
  last_structure_ = fp;
  has_last_structure_ = true;
  if (!build) return multiply_full(a, b, nullptr);
  auto plan = std::make_shared<SpeckPlan>();
  plan->fingerprint = fp;
  SpGemmResult result = multiply_full(a, b, plan.get());
  if (result.ok() && plan->complete) cache.insert(std::move(plan));
  return result;
}

SpGemmResult Speck::multiply_masked(const Csr& a, const Csr& b,
                                    const Csr& mask) {
  if (!config_.plan_cache) {
    has_last_structure_ = false;
    transparent_cache_.reset();
    return multiply_masked_full(a, b, mask, nullptr);
  }
  PlanCache& cache = plan_cache();
  const PlanFingerprint fp = plan_fingerprint_masked(a, b, mask, config_);
  if (const std::shared_ptr<const SpeckPlan> plan = cache.find(fp)) {
    SpGemmResult result = replay_plan(*plan, a, b);
    diagnostics_.plan_cache_hit = true;
    return result;
  }
  // Same build-on-second-sight policy as the unmasked path; the masked
  // fingerprint keeps masked and unmasked structures from ever colliding.
  const bool build = has_last_structure_ && fp.matches_full(last_structure_) &&
                     plan_worth_caching(a, b);
  last_structure_ = fp;
  has_last_structure_ = true;
  if (!build) return multiply_masked_full(a, b, mask, nullptr);
  auto plan = std::make_shared<SpeckPlan>();
  plan->fingerprint = fp;
  SpGemmResult result = multiply_masked_full(a, b, mask, plan.get());
  if (result.ok() && plan->complete) cache.insert(std::move(plan));
  return result;
}

SpeckPlan Speck::plan(const Csr& a, const Csr& b, SpGemmResult* full_result,
                      const CancelToken* cancel) {
  SpeckPlan plan;
  plan.fingerprint = plan_fingerprint(a, b, config_);
  // When the caller does not want the full multiply result, the capture
  // block may steal the C pattern arrays from it instead of copying.
  SpGemmResult result =
      multiply_full(a, b, &plan, cancel, /*steal_pattern=*/full_result == nullptr);
  if (!result.ok() && plan.incomplete_reason.empty()) {
    plan.incomplete_reason = "planning run failed: " + result.failure_reason;
  }
  if (full_result != nullptr) *full_result = std::move(result);
  return plan;
}

SpeckPlan Speck::plan_masked(const Csr& a, const Csr& b, const Csr& mask,
                             SpGemmResult* full_result,
                             const CancelToken* cancel) {
  SpeckPlan plan;
  plan.fingerprint = plan_fingerprint_masked(a, b, mask, config_);
  SpGemmResult result = multiply_masked_full(
      a, b, mask, &plan, cancel, /*steal_pattern=*/full_result == nullptr);
  if (!result.ok() && plan.incomplete_reason.empty()) {
    plan.incomplete_reason = "planning run failed: " + result.failure_reason;
  }
  if (full_result != nullptr) *full_result = std::move(result);
  return plan;
}

SpGemmResult Speck::multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b) {
  std::string reject = plan_reject_reason(plan, a, b, config_);
  if (reject.empty()) return replay_plan(plan, a, b);
  // Fall back the way multiply() dispatches: a configured mask still applies.
  SpGemmResult result =
      config_.mask != nullptr
          ? multiply_masked_full(a, b, *config_.mask, nullptr)
          : multiply_full(a, b, nullptr);
  diagnostics_.plan_fallback = true;
  diagnostics_.plan_fallback_reason = std::move(reject);
  return result;
}

SpGemmResult Speck::multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b,
                                       SpeckDiagnostics* diag) const {
  const std::string reject = plan_reject_reason(plan, a, b, config_);
  if (!reject.empty()) {
    // No fallback here: the full pipeline needs this instance's mutable
    // state, which concurrent callers must never touch. The caller decides
    // whether to re-plan.
    if (diag != nullptr) *diag = SpeckDiagnostics{};
    SpGemmResult result;
    result.status = SpGemmStatus::kUnsupported;
    result.failure_reason = "plan rejected: " + reject;
    return result;
  }
  return replay_plan_into(plan, a, b, &serial_pool(), diag, nullptr, nullptr);
}

SpGemmResult Speck::replay_values_into(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b, std::span<value_t> out,
                                       SpeckDiagnostics* diag) const {
  const std::string reject = plan_reject_reason(plan, a, b, config_);
  if (!reject.empty()) {
    if (diag != nullptr) *diag = SpeckDiagnostics{};
    SpGemmResult result;
    result.status = SpGemmStatus::kUnsupported;
    result.failure_reason = "plan rejected: " + reject;
    return result;
  }
  SPECK_REQUIRE(out.size() == static_cast<std::size_t>(plan.c_nnz()),
                "replay_values_into: output span must be sized to the plan's "
                "c_nnz");
  return replay_plan_into(plan, a, b, &serial_pool(), diag, nullptr, &out);
}

SpGemmResult Speck::replay_plan(const SpeckPlan& plan, const Csr& a,
                                const Csr& b) {
  return replay_plan_into(plan, a, b, host_pool(), &diagnostics_, &trace_,
                          nullptr);
}

SpGemmResult Speck::replay_plan_into(const SpeckPlan& plan, const Csr& a,
                                     const Csr& b, ThreadPool* pool,
                                     SpeckDiagnostics* diag,
                                     sim::LaunchTrace* trace,
                                     std::span<value_t>* external) const {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  if (config_.validate_inputs) validate_multiply_inputs(a, b);
  std::optional<FaultInjector> injector;
  if (config_.faults.enabled()) injector.emplace(config_.faults);
  const FaultInjector* faults = injector ? &*injector : nullptr;

  SpGemmResult result;
  // The pipeline is a deterministic function of structure and configuration
  // — values never steer control flow — so the capturing run's diagnostics
  // are exactly what a full run on these inputs would report. Only the
  // hot-path allocation counter is measured live below.
  if (diag != nullptr) {
    *diag = plan.diagnostics;
    diag->plan_used = true;
    diag->plan_cache_hit = false;
    diag->plan_fallback = false;
    diag->plan_fallback_reason.clear();
  }
  if (trace != nullptr) trace->clear();

  sim::MemoryTracker memory(faults != nullptr
                                ? faults->cap_memory(device_.global_memory_bytes)
                                : device_.global_memory_bytes);
  if (!memory.allocate(a.byte_size() + b.byte_size())) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "input matrices exceed device memory";
    return result;
  }
  const auto c_nnz = static_cast<std::size_t>(plan.c_nnz());
  const std::size_t c_bytes =
      (static_cast<std::size_t>(plan.fingerprint.a_rows) + 1) * sizeof(offset_t) +
      c_nnz * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(c_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "output matrix exceeds device memory";
    return result;
  }
  // The replayed numeric kernels use the same transient device buffers the
  // full numeric pass did.
  if (plan.diagnostics.numeric.global_pool_bytes > 0) {
    if (!memory.allocate(plan.diagnostics.numeric.global_pool_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "global hash pool exceeds device memory";
      return result;
    }
    memory.release(plan.diagnostics.numeric.global_pool_bytes);
  }
  if (plan.diagnostics.radix_sorted_elements > 0) {
    const auto sort_bytes =
        static_cast<std::size_t>(plan.diagnostics.radix_sorted_elements) *
        (sizeof(index_t) + sizeof(value_t));
    if (!memory.allocate(sort_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "radix sort buffers exceed device memory";
      return result;
    }
    memory.release(sort_bytes);
  }

  const SimdBackend simd = simd::resolve_backend(config_.simd_backend);
  // A 1-thread pool means the caller wants the replay on its own thread
  // (the concurrent service path); the serial kernel also owns no per-call
  // containers, keeping that path allocation-free.
  const bool serial = pool != nullptr && pool->thread_count() == 1;
  std::size_t replay_allocs = 0;
  if (external != nullptr) {
    // Caller-owned values; the dense-row program ops accumulate, so the
    // buffer starts from zero. result.c stays empty — the pattern is shared
    // via the plan.
    std::fill(external->begin(), external->end(), value_t{0});
    replay_allocs =
        serial ? replay_numeric_values_serial(a, b, plan.program, *external, simd)
               : replay_numeric_values(a, b, plan.program, pool, *external, simd);
  } else {
    std::vector<value_t> values(c_nnz, 0.0);
    replay_allocs =
        serial ? replay_numeric_values_serial(a, b, plan.program, values, simd)
               : replay_numeric_values(a, b, plan.program, pool, values, simd);
    result.c = Csr(plan.fingerprint.a_rows, plan.fingerprint.b_cols,
                   plan.c_row_offsets, plan.c_col_indices, std::move(values));
  }
  if (diag != nullptr) diag->numeric.hot_path_allocs = replay_allocs;

  if (trace != nullptr) {
    for (const sim::LaunchResult& launch : plan.replay_trace) {
      trace->record(launch);
    }
  }
  result.timeline.add(sim::Stage::kNumeric, plan.numeric_seconds);
  result.timeline.add(sim::Stage::kSorting, plan.sorting_seconds);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.peak_bytes();
  return result;
}

SpGemmResult Speck::multiply_full(const Csr& a, const Csr& b,
                                  SpeckPlan* capture,
                                  const CancelToken* cancel,
                                  bool steal_pattern) {
  // Cooperative cancellation: polled at stage boundaries on this (the
  // coordinating) thread only — pool workers never throw. A kernel that has
  // started runs to completion; the check before each stage keeps an
  // expired request from entering the next one.
  const auto poll_cancel = [cancel](const char* phase) {
    if (cancel != nullptr) cancel->check(phase);
  };
  poll_cancel("admission");
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  if (config_.validate_inputs) validate_multiply_inputs(a, b);
  std::optional<FaultInjector> injector;
  if (config_.faults.enabled()) injector.emplace(config_.faults);
  const FaultInjector* faults = injector ? &*injector : nullptr;

  SpGemmResult result;
  diagnostics_ = SpeckDiagnostics{};
  diagnostics_.wide_keys = b.cols() > kMaxColumns32Bit;
  trace_.clear();

  sim::MemoryTracker memory(faults != nullptr
                                ? faults->cap_memory(device_.global_memory_bytes)
                                : device_.global_memory_bytes);
  // Input matrices are resident for the duration of the multiplication
  // (the paper lists this as spECK's limitation, §7).
  if (!memory.allocate(a.byte_size() + b.byte_size())) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "input matrices exceed device memory";
    return result;
  }

  KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.cfg = &config_;
  ctx.configs = &kernel_configs_;
  ctx.device = &device_;
  ctx.model = &model_;
  ctx.wide_keys = diagnostics_.wide_keys;
  ctx.trace = &trace_;
  ctx.pool = host_pool();
  ctx.workspaces = &workspaces_;
  ctx.faults = faults;
  ctx.simd = simd::resolve_backend(config_.simd_backend);

  if (resolve_planning(config_.planning) == PlanningMode::kEstimated) {
    return multiply_estimated(a, b, capture, cancel, ctx, memory,
                              steal_pattern);
  }

  // Stage 1: lightweight row analysis (Algorithm 1).
  sim::Launch analysis_launch("row_analysis", device_, model_);
  RowAnalysis analysis = analyze_rows(a, b, analysis_launch, ctx.pool, faults);
  ctx.analysis = &analysis;
  diagnostics_.products = analysis.total_products;
  {
    sim::LaunchResult finished = analysis_launch.finish();
    result.timeline.add(sim::Stage::kAnalysis, finished.seconds);
    trace_.record(std::move(finished));
  }
  const std::size_t analysis_bytes =
      static_cast<std::size_t>(a.rows()) *
      (sizeof(offset_t) + 3 * sizeof(index_t));
  if (!memory.allocate(analysis_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "row analysis buffers exceed device memory";
    return result;
  }

  poll_cancel("row analysis");
  // Stage 2: conditional global load balancing for the symbolic pass,
  // binning on the conservative product counts.
  sim::Launch symbolic_lb_launch("symbolic_lb", device_, model_);
  const GlobalLbInputs symbolic_inputs{std::span<const offset_t>(analysis.products),
                                       /*symbolic=*/true};
  BinPlan symbolic_plan =
      plan_global_lb(symbolic_inputs, kernel_configs_, config_, symbolic_lb_launch);
  diagnostics_.symbolic_decision =
      lb_decision_stats(symbolic_inputs, kernel_configs_, config_);
  diagnostics_.symbolic_lb_used = symbolic_plan.used_load_balancer;
  diagnostics_.symbolic_blocks = static_cast<int>(symbolic_plan.blocks.size());
  if (symbolic_plan.used_load_balancer) {
    sim::LaunchResult finished = symbolic_lb_launch.finish();
    result.timeline.add(sim::Stage::kSymbolicLoadBalance, finished.seconds);
    trace_.record(std::move(finished));
    if (!memory.allocate(symbolic_plan.lb_memory_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "load balancer buffers exceed device memory";
      return result;
    }
  }

  poll_cancel("symbolic load balancing");
  // Stage 3: symbolic SpGEMM (exact C row sizes).
  SymbolicOutcome symbolic = run_symbolic(ctx, symbolic_plan);
  diagnostics_.symbolic = symbolic.stats;
  result.timeline.add(sim::Stage::kSymbolic, symbolic.stats.seconds);
  if (symbolic.stats.global_pool_bytes > 0 &&
      !memory.allocate(symbolic.stats.global_pool_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "global hash pool exceeds device memory";
    return result;
  }
  if (symbolic.stats.global_pool_bytes > 0) {
    memory.release(symbolic.stats.global_pool_bytes);
  }

  // Output row offsets via exclusive prefix sum; the C allocation itself is
  // not timed (identical for every method) but counts towards peak memory.
  offset_t c_nnz = 0;
  for (const index_t nnz : symbolic.row_nnz) c_nnz += nnz;
  const std::size_t c_bytes =
      (static_cast<std::size_t>(a.rows()) + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(c_nnz) * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(c_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "output matrix exceeds device memory";
    return result;
  }

  poll_cancel("symbolic pass");
  // Stage 4: conditional global load balancing for the numeric pass, using
  // the exact row sizes inflated by the hash fill limit (66%).
  std::vector<offset_t> numeric_entries(symbolic.row_nnz.size());
  for (std::size_t r = 0; r < symbolic.row_nnz.size(); ++r) {
    numeric_entries[r] = static_cast<offset_t>(
        static_cast<double>(symbolic.row_nnz[r]) / config_.max_numeric_fill + 1.0);
    if (faults != nullptr) {
      // Perturb the numeric binning input too — like the analysis estimates
      // this only shifts rows between kernel configurations.
      numeric_entries[r] =
          faults->scale_estimate(static_cast<index_t>(r), numeric_entries[r]);
    }
  }
  sim::Launch numeric_lb_launch("numeric_lb", device_, model_);
  const GlobalLbInputs numeric_inputs{std::span<const offset_t>(numeric_entries),
                                      /*symbolic=*/false};
  BinPlan numeric_plan =
      plan_global_lb(numeric_inputs, kernel_configs_, config_, numeric_lb_launch);
  diagnostics_.numeric_decision =
      lb_decision_stats(numeric_inputs, kernel_configs_, config_);
  diagnostics_.numeric_lb_used = numeric_plan.used_load_balancer;
  diagnostics_.numeric_blocks = static_cast<int>(numeric_plan.blocks.size());
  if (numeric_plan.used_load_balancer) {
    sim::LaunchResult finished = numeric_lb_launch.finish();
    result.timeline.add(sim::Stage::kNumericLoadBalance, finished.seconds);
    trace_.record(std::move(finished));
    if (!memory.allocate(numeric_plan.lb_memory_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "load balancer buffers exceed device memory";
      return result;
    }
  }

  poll_cancel("numeric load balancing");
  // Stage 5 + 6: numeric SpGEMM and the sorting pass.
  const std::size_t numeric_trace_mark = trace_.launches().size();
  NumericOutcome numeric = run_numeric(ctx, numeric_plan, symbolic.row_nnz);
  diagnostics_.numeric = numeric.stats;
  diagnostics_.radix_sorted_elements = numeric.radix_sorted_elements;
  result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  result.timeline.add(sim::Stage::kSorting, numeric.sorting_seconds);
  if (numeric.stats.global_pool_bytes > 0) {
    if (!memory.allocate(numeric.stats.global_pool_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "global hash pool exceeds device memory";
      return result;
    }
    memory.release(numeric.stats.global_pool_bytes);
  }
  if (numeric.radix_sorted_elements > 0) {
    // Double-buffer for the device radix sort.
    const auto sort_bytes = static_cast<std::size_t>(numeric.radix_sorted_elements) *
                            (sizeof(index_t) + sizeof(value_t));
    if (!memory.allocate(sort_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "radix sort buffers exceed device memory";
      return result;
    }
    memory.release(sort_bytes);
  }

  result.c = std::move(numeric.c);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.peak_bytes();

  if (capture != nullptr) {
    SpeckPlan& plan = *capture;
    plan.wide_keys = ctx.wide_keys;
    plan.row_nnz = std::move(symbolic.row_nnz);
    if (steal_pattern) {
      // The caller promised to discard the result: take the pattern arrays
      // instead of copying them (the values are dropped either way).
      std::vector<value_t> discarded_values;
      result.c.take_arrays(plan.c_row_offsets, plan.c_col_indices,
                           discarded_values);
    } else {
      const std::span<const offset_t> c_offsets = result.c.row_offsets();
      const std::span<const index_t> c_cols = result.c.col_indices();
      plan.c_row_offsets.assign(c_offsets.begin(), c_offsets.end());
      plan.c_col_indices.assign(c_cols.begin(), c_cols.end());
    }
    if (static_cast<std::uint64_t>(a.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(b.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(c_nnz) >= kMaxReplayIndex) {
      plan.incomplete_reason =
          "matrix too large for the 32-bit replay program";
    } else {
      plan.program = build_replay_program(ctx, numeric_plan, plan.row_nnz,
                                          plan.c_row_offsets,
                                          plan.c_col_indices);
      plan.complete = true;
    }
    plan.analysis = std::move(analysis);
    plan.symbolic_plan = std::move(symbolic_plan);
    plan.numeric_plan = std::move(numeric_plan);
    plan.diagnostics = diagnostics_;
    plan.numeric_seconds = numeric.stats.seconds;
    plan.sorting_seconds = numeric.sorting_seconds;
    const std::vector<sim::LaunchResult>& launches = trace_.launches();
    plan.replay_trace.assign(
        launches.begin() + static_cast<std::ptrdiff_t>(numeric_trace_mark),
        launches.end());
    plan.inspect_seconds =
        result.timeline.seconds(sim::Stage::kAnalysis) +
        result.timeline.seconds(sim::Stage::kSymbolicLoadBalance) +
        result.timeline.seconds(sim::Stage::kSymbolic) +
        result.timeline.seconds(sim::Stage::kNumericLoadBalance);
  }
  return result;
}

SpGemmResult Speck::multiply_estimated(const Csr& a, const Csr& b,
                                       SpeckPlan* capture,
                                       const CancelToken* cancel,
                                       KernelContext& ctx,
                                       sim::MemoryTracker& memory,
                                       bool steal_pattern) {
  const auto poll_cancel = [cancel](const char* phase) {
    if (cancel != nullptr) cancel->check(phase);
  };
  SpGemmResult result;
  diagnostics_.estimated_planning = true;
  const FaultInjector* faults = ctx.faults;

  // Stage 1': row estimation — the exact O(nnz_A) lightweight analysis plus
  // a bounded per-row sampling pass for the NNZ estimates; what it *skips*
  // is the O(products) symbolic hashing pass below.
  sim::Launch estimator_launch("row_estimator", device_, model_);
  RowEstimate estimate =
      estimate_rows(a, b, config_, estimator_launch, ctx.pool, faults);
  ctx.analysis = &estimate.analysis;
  diagnostics_.products = estimate.analysis.total_products;
  {
    sim::LaunchResult finished = estimator_launch.finish();
    result.timeline.add(sim::Stage::kAnalysis, finished.seconds);
    trace_.record(std::move(finished));
  }
  const std::size_t analysis_bytes =
      static_cast<std::size_t>(a.rows()) *
      (sizeof(offset_t) + 4 * sizeof(index_t));
  if (!memory.allocate(analysis_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "row estimation buffers exceed device memory";
    return result;
  }

  poll_cancel("row estimation");
  // The symbolic load balancer and the symbolic pass are skipped entirely:
  // numeric binning runs straight off the NNZ estimates, inflated by the
  // hash fill limit exactly like exact mode inflates the symbolic counts.
  std::vector<offset_t> numeric_entries(estimate.row_nnz_estimate.size());
  for (std::size_t r = 0; r < numeric_entries.size(); ++r) {
    numeric_entries[r] = static_cast<offset_t>(
        static_cast<double>(estimate.row_nnz_estimate[r]) /
            config_.max_numeric_fill +
        1.0);
    if (faults != nullptr) {
      numeric_entries[r] =
          faults->scale_estimate(static_cast<index_t>(r), numeric_entries[r]);
    }
  }
  sim::Launch numeric_lb_launch("numeric_lb", device_, model_);
  const GlobalLbInputs numeric_inputs{std::span<const offset_t>(numeric_entries),
                                      /*symbolic=*/false};
  BinPlan numeric_plan =
      plan_global_lb(numeric_inputs, kernel_configs_, config_, numeric_lb_launch);
  diagnostics_.numeric_decision =
      lb_decision_stats(numeric_inputs, kernel_configs_, config_);
  diagnostics_.numeric_lb_used = numeric_plan.used_load_balancer;
  diagnostics_.numeric_blocks = static_cast<int>(numeric_plan.blocks.size());
  if (numeric_plan.used_load_balancer) {
    sim::LaunchResult finished = numeric_lb_launch.finish();
    result.timeline.add(sim::Stage::kNumericLoadBalance, finished.seconds);
    trace_.record(std::move(finished));
    if (!memory.allocate(numeric_plan.lb_memory_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "load balancer buffers exceed device memory";
      return result;
    }
  }

  poll_cancel("numeric load balancing");
  // Estimated C staging: one over-allocated slot per row (this is the
  // allocation exact mode sizes from the symbolic counts).
  offset_t staging_nnz = 0;
  for (const index_t est : estimate.row_nnz_estimate) staging_nnz += est;
  const std::size_t staging_bytes =
      (static_cast<std::size_t>(a.rows()) + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(staging_nnz) * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(staging_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "estimated output staging exceeds device memory";
    return result;
  }

  // Stage 5' + 6': estimated numeric merge (discovers the exact pattern,
  // re-running underflowed rows through the fallback) and compaction.
  const std::size_t numeric_trace_mark = trace_.launches().size();
  EstimatedNumericOutcome numeric =
      run_numeric_estimated(ctx, numeric_plan, estimate.row_nnz_estimate);
  diagnostics_.numeric = numeric.stats;
  diagnostics_.radix_sorted_elements = numeric.radix_sorted_elements;
  result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  result.timeline.add(sim::Stage::kSorting, numeric.sorting_seconds);
  const offset_t c_nnz = numeric.c.nnz();
  const std::size_t c_bytes =
      (static_cast<std::size_t>(a.rows()) + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(c_nnz) * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(c_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "output matrix exceeds device memory";
    return result;
  }
  memory.release(staging_bytes);

  result.c = std::move(numeric.c);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.peak_bytes();

  if (capture != nullptr) {
    SpeckPlan& plan = *capture;
    plan.wide_keys = ctx.wide_keys;
    // The plan stores the *actual* exact counts; the replay program's method
    // selection is re-derived from the *estimates* — exactly what the
    // estimated pass executed, which is what keeps replays bit-identical.
    plan.row_nnz = std::move(numeric.row_nnz);
    if (steal_pattern) {
      std::vector<value_t> discarded_values;
      result.c.take_arrays(plan.c_row_offsets, plan.c_col_indices,
                           discarded_values);
    } else {
      const std::span<const offset_t> c_offsets = result.c.row_offsets();
      const std::span<const index_t> c_cols = result.c.col_indices();
      plan.c_row_offsets.assign(c_offsets.begin(), c_offsets.end());
      plan.c_col_indices.assign(c_cols.begin(), c_cols.end());
    }
    if (static_cast<std::uint64_t>(a.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(b.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(c_nnz) >= kMaxReplayIndex) {
      plan.incomplete_reason =
          "matrix too large for the 32-bit replay program";
    } else {
      plan.program = build_replay_program(ctx, numeric_plan,
                                          estimate.row_nnz_estimate,
                                          plan.c_row_offsets,
                                          plan.c_col_indices);
      plan.complete = true;
    }
    plan.analysis = std::move(estimate.analysis);
    plan.numeric_plan = std::move(numeric_plan);
    plan.diagnostics = diagnostics_;
    plan.numeric_seconds = numeric.stats.seconds;
    plan.sorting_seconds = numeric.sorting_seconds;
    const std::vector<sim::LaunchResult>& launches = trace_.launches();
    plan.replay_trace.assign(
        launches.begin() + static_cast<std::ptrdiff_t>(numeric_trace_mark),
        launches.end());
    plan.inspect_seconds =
        result.timeline.seconds(sim::Stage::kAnalysis) +
        result.timeline.seconds(sim::Stage::kNumericLoadBalance);
  }
  return result;
}

SpGemmResult Speck::multiply_masked_full(const Csr& a, const Csr& b,
                                         const Csr& mask, SpeckPlan* capture,
                                         const CancelToken* cancel,
                                         bool steal_pattern) {
  const auto poll_cancel = [cancel](const char* phase) {
    if (cancel != nullptr) cancel->check(phase);
  };
  poll_cancel("admission");
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  validate_mask_input(a, b, mask, /*full=*/config_.validate_inputs);
  if (config_.validate_inputs) validate_multiply_inputs(a, b);
  std::optional<FaultInjector> injector;
  if (config_.faults.enabled()) injector.emplace(config_.faults);
  const FaultInjector* faults = injector ? &*injector : nullptr;

  SpGemmResult result;
  diagnostics_ = SpeckDiagnostics{};
  diagnostics_.masked = true;
  diagnostics_.wide_keys = b.cols() > kMaxColumns32Bit;
  trace_.clear();

  sim::MemoryTracker memory(faults != nullptr
                                ? faults->cap_memory(device_.global_memory_bytes)
                                : device_.global_memory_bytes);
  // The mask is resident alongside the inputs for the whole multiply: the
  // numeric kernels stream it row by row like they stream B.
  if (!memory.allocate(a.byte_size() + b.byte_size() + mask.byte_size())) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "input matrices exceed device memory";
    return result;
  }

  KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.mask = &mask;
  ctx.cfg = &config_;
  ctx.configs = &kernel_configs_;
  ctx.device = &device_;
  ctx.model = &model_;
  ctx.wide_keys = diagnostics_.wide_keys;
  ctx.trace = &trace_;
  ctx.pool = host_pool();
  ctx.workspaces = &workspaces_;
  ctx.faults = faults;
  ctx.simd = simd::resolve_backend(config_.simd_backend);

  // Stage 1: the same lightweight row analysis as the exact pipeline — the
  // product counts bound the per-row work and cap the accumulator demand.
  sim::Launch analysis_launch("row_analysis", device_, model_);
  RowAnalysis analysis = analyze_rows(a, b, analysis_launch, ctx.pool, faults);
  ctx.analysis = &analysis;
  diagnostics_.products = analysis.total_products;
  {
    sim::LaunchResult finished = analysis_launch.finish();
    result.timeline.add(sim::Stage::kAnalysis, finished.seconds);
    trace_.record(std::move(finished));
  }
  const std::size_t analysis_bytes =
      static_cast<std::size_t>(a.rows()) *
      (sizeof(offset_t) + 3 * sizeof(index_t));
  if (!memory.allocate(analysis_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "row analysis buffers exceed device memory";
    return result;
  }

  poll_cancel("row analysis");
  // The symbolic pass is skipped entirely: the mask row *is* the candidate
  // pattern, so the accumulator demand per row is the hard bound
  // min(products, mask_row_nnz) — never an estimate, so there is no
  // fallback machinery. Numeric binning runs off that demand inflated by
  // the hash fill limit, exactly like exact mode inflates the symbolic
  // counts.
  const std::span<const offset_t> mask_offsets = mask.row_offsets();
  const auto rows = static_cast<std::size_t>(a.rows());
  std::vector<index_t> masked_demand(rows);
  std::vector<offset_t> numeric_entries(rows);
  offset_t staging_nnz = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const offset_t mask_len = mask_offsets[r + 1] - mask_offsets[r];
    const offset_t demand = std::min(analysis.products[r], mask_len);
    masked_demand[r] = static_cast<index_t>(demand);
    staging_nnz += demand;
    numeric_entries[r] = static_cast<offset_t>(
        static_cast<double>(demand) / config_.max_numeric_fill + 1.0);
    if (faults != nullptr) {
      numeric_entries[r] =
          faults->scale_estimate(static_cast<index_t>(r), numeric_entries[r]);
    }
  }
  sim::Launch numeric_lb_launch("numeric_lb", device_, model_);
  const GlobalLbInputs numeric_inputs{std::span<const offset_t>(numeric_entries),
                                      /*symbolic=*/false};
  BinPlan numeric_plan =
      plan_global_lb(numeric_inputs, kernel_configs_, config_, numeric_lb_launch);
  diagnostics_.numeric_decision =
      lb_decision_stats(numeric_inputs, kernel_configs_, config_);
  diagnostics_.numeric_lb_used = numeric_plan.used_load_balancer;
  diagnostics_.numeric_blocks = static_cast<int>(numeric_plan.blocks.size());
  if (numeric_plan.used_load_balancer) {
    sim::LaunchResult finished = numeric_lb_launch.finish();
    result.timeline.add(sim::Stage::kNumericLoadBalance, finished.seconds);
    trace_.record(std::move(finished));
    if (!memory.allocate(numeric_plan.lb_memory_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "load balancer buffers exceed device memory";
      return result;
    }
  }

  poll_cancel("numeric load balancing");
  // Masked C staging: one slot per admissible (mask ∩ demand) position.
  const std::size_t staging_bytes =
      (rows + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(staging_nnz) * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(staging_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "masked output staging exceeds device memory";
    return result;
  }

  // Stage 5'': masked numeric pass. No sorting stage follows — mask rows
  // are ascending, so extraction emits C already in final order.
  const std::size_t numeric_trace_mark = trace_.launches().size();
  MaskedNumericOutcome numeric =
      run_numeric_masked(ctx, numeric_plan, masked_demand);
  diagnostics_.numeric = numeric.stats;
  result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  if (numeric.stats.global_pool_bytes > 0) {
    if (!memory.allocate(numeric.stats.global_pool_bytes)) {
      result.status = SpGemmStatus::kOutOfMemory;
      result.failure_reason = "global hash pool exceeds device memory";
      return result;
    }
    memory.release(numeric.stats.global_pool_bytes);
  }
  const offset_t c_nnz = numeric.c.nnz();
  const std::size_t c_bytes =
      (rows + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(c_nnz) * (sizeof(index_t) + sizeof(value_t));
  if (!memory.allocate(c_bytes)) {
    result.status = SpGemmStatus::kOutOfMemory;
    result.failure_reason = "output matrix exceeds device memory";
    return result;
  }
  memory.release(staging_bytes);

  result.c = std::move(numeric.c);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.peak_bytes();

  if (capture != nullptr) {
    SpeckPlan& plan = *capture;
    plan.wide_keys = ctx.wide_keys;
    plan.row_nnz = std::move(numeric.row_nnz);
    if (steal_pattern) {
      std::vector<value_t> discarded_values;
      result.c.take_arrays(plan.c_row_offsets, plan.c_col_indices,
                           discarded_values);
    } else {
      const std::span<const offset_t> c_offsets = result.c.row_offsets();
      const std::span<const index_t> c_cols = result.c.col_indices();
      plan.c_row_offsets.assign(c_offsets.begin(), c_offsets.end());
      plan.c_col_indices.assign(c_cols.begin(), c_cols.end());
    }
    if (static_cast<std::uint64_t>(a.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(b.nnz()) >= kMaxReplayIndex ||
        static_cast<std::uint64_t>(c_nnz) >= kMaxReplayIndex) {
      plan.incomplete_reason =
          "matrix too large for the 32-bit replay program";
    } else {
      plan.program = build_replay_program_masked(ctx, plan.c_row_offsets,
                                                 plan.c_col_indices);
      plan.complete = true;
    }
    plan.analysis = std::move(analysis);
    plan.numeric_plan = std::move(numeric_plan);
    plan.diagnostics = diagnostics_;
    plan.numeric_seconds = numeric.stats.seconds;
    plan.sorting_seconds = 0.0;
    const std::vector<sim::LaunchResult>& launches = trace_.launches();
    plan.replay_trace.assign(
        launches.begin() + static_cast<std::ptrdiff_t>(numeric_trace_mark),
        launches.end());
    plan.inspect_seconds =
        result.timeline.seconds(sim::Stage::kAnalysis) +
        result.timeline.seconds(sim::Stage::kNumericLoadBalance);
  }
  return result;
}

Speck::TryMultiplyOutcome Speck::try_multiply(const Csr& a,
                                              const Csr& b) noexcept {
  TryMultiplyOutcome out;
  try {
    out.result = multiply(a, b);
    switch (out.result.status) {
      case SpGemmStatus::kOk:
        break;
      case SpGemmStatus::kOutOfMemory:
        out.status = Status{ErrorCode::kResourceExhausted,
                            out.result.failure_reason, "Speck::multiply"};
        break;
      case SpGemmStatus::kUnsupported:
        out.status = Status{ErrorCode::kBadInput, out.result.failure_reason,
                            "Speck::multiply"};
        break;
    }
  } catch (...) {
    out.status = status_from_current_exception();
  }
  return out;
}

SymbolicEstimate symbolic_estimate(Speck& speck, const Csr& a, const Csr& b) {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");

  KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.cfg = &speck.config();
  ctx.configs = &speck.configs();
  ctx.device = &speck.device();
  ctx.model = &speck.cost_model();
  ctx.wide_keys = b.cols() > kMaxColumns32Bit;
  ctx.pool = speck.host_pool();
  ctx.workspaces = &speck.workspaces();
  ctx.simd = simd::resolve_backend(speck.config().simd_backend);

  SymbolicEstimate estimate;

  // Analysis.
  sim::Launch analysis_launch("row_analysis", speck.device(), speck.cost_model());
  const RowAnalysis analysis = analyze_rows(a, b, analysis_launch, ctx.pool);
  ctx.analysis = &analysis;
  estimate.products = analysis.total_products;
  estimate.seconds += analysis_launch.finish().seconds;

  // Symbolic load balancing + symbolic pass.
  sim::Launch symbolic_lb("symbolic_lb", speck.device(), speck.cost_model());
  const BinPlan symbolic_plan =
      plan_global_lb({std::span<const offset_t>(analysis.products), true},
                     speck.configs(), speck.config(), symbolic_lb);
  if (symbolic_plan.used_load_balancer) {
    estimate.seconds += symbolic_lb.finish().seconds;
  }
  SymbolicOutcome symbolic = run_symbolic(ctx, symbolic_plan);
  estimate.seconds += symbolic.stats.seconds;

  // Numeric load balancing (exact sizes known) — part of what the numeric
  // pass would consume.
  std::vector<offset_t> numeric_entries(symbolic.row_nnz.size());
  for (std::size_t r = 0; r < symbolic.row_nnz.size(); ++r) {
    numeric_entries[r] = static_cast<offset_t>(
        static_cast<double>(symbolic.row_nnz[r]) / speck.config().max_numeric_fill +
        1.0);
  }
  sim::Launch numeric_lb("numeric_lb", speck.device(), speck.cost_model());
  const BinPlan numeric_plan =
      plan_global_lb({std::span<const offset_t>(numeric_entries), false},
                     speck.configs(), speck.config(), numeric_lb);
  if (numeric_plan.used_load_balancer) {
    estimate.seconds += numeric_lb.finish().seconds;
  }

  for (const index_t nnz : symbolic.row_nnz) estimate.c_nnz += nnz;
  estimate.row_nnz = std::move(symbolic.row_nnz);
  return estimate;
}

}  // namespace speck
