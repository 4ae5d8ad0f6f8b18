#include "speck/speck.h"

#include <algorithm>
#include <numeric>
#include <optional>

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
std::string plan_reject_reason(const SpeckPlan& plan, const Csr& a,
                               const Csr& b, const SpeckConfig& cfg) {
  if (!plan.complete) {
    return plan.incomplete_reason.empty() ? "plan is incomplete"
                                          : plan.incomplete_reason;
  }
  if (plan.fingerprint.masked && cfg.mask == nullptr) {
    return "plan is masked but no mask is configured (set SpeckConfig::mask "
           "to the mask the plan was built with)";
  }
  const PlanFingerprint now = plan_fingerprint(
      a, b, cfg.mask.get(), cfg, /*with_pattern_hashes=*/cfg.validate_inputs);
  const bool match = cfg.validate_inputs
                         ? now.matches_full(plan.fingerprint)
                         : now.matches_quick(plan.fingerprint);
  if (!match) {
    return "structural fingerprint mismatch: plan is stale for these "
           "inputs or this configuration";
  }
  return {};
}

/// The replay entries' answer to a rejected plan: no fallback, the caller
/// decides whether to re-plan.
SpGemmResult rejected_plan(const std::string& reason, SpeckDiagnostics* diag) {
  if (diag != nullptr) *diag = SpeckDiagnostics{};
  SpGemmResult result;
  result.status = SpGemmStatus::kUnsupported;
  result.failure_reason = "plan rejected: " + reason;
  return result;
}

/// Device bytes of a CSR matrix with `rows` rows and `nnz` entries.
std::size_t csr_device_bytes(index_t rows, offset_t nnz) {
  return (static_cast<std::size_t>(rows) + 1) * sizeof(offset_t) +
         static_cast<std::size_t>(nnz) * (sizeof(index_t) + sizeof(value_t));
}

/// Simulated device memory of one run. A reservation that does not fit
/// marks `result` out of memory with its reason and returns false; the
/// caller then returns `result` as it stands. The reservations the full
/// pipeline and the replay share are named here, so each failure reason is
/// spelled once.
class DeviceMemory {
 public:
  DeviceMemory(std::size_t device_bytes, const FaultInjector* faults,
               SpGemmResult& result)
      : tracker_(faults != nullptr ? faults->cap_memory(device_bytes)
                                   : device_bytes),
        result_(result) {}

  bool reserve(std::size_t bytes, const char* reason) {
    if (tracker_.allocate(bytes)) return true;
    result_.status = SpGemmStatus::kOutOfMemory;
    result_.failure_reason = reason;
    return false;
  }
  bool reserve_inputs(std::size_t bytes) {
    return reserve(bytes, "input matrices exceed device memory");
  }
  bool reserve_output(index_t rows, offset_t nnz) {
    return reserve(csr_device_bytes(rows, nnz),
                   "output matrix exceeds device memory");
  }
  /// Transient: held only while the pass that spills into it runs.
  bool reserve_global_pool(std::size_t bytes) {
    return reserve_transient(bytes, "global hash pool exceeds device memory");
  }
  /// Transient double buffer for the device radix sort.
  bool reserve_sort_buffers(offset_t elements) {
    return reserve_transient(
        static_cast<std::size_t>(elements) * (sizeof(index_t) + sizeof(value_t)),
        "radix sort buffers exceed device memory");
  }
  void release(std::size_t bytes) { tracker_.release(bytes); }
  std::size_t peak_bytes() const { return tracker_.peak_bytes(); }

 private:
  bool reserve_transient(std::size_t bytes, const char* reason) {
    if (bytes == 0) return true;
    if (!reserve(bytes, reason)) return false;
    tracker_.release(bytes);
    return true;
  }

  sim::MemoryTracker tracker_;
  SpGemmResult& result_;
};

/// Numeric binning input (stage 4): each row's accumulator demand inflated
/// by the hash fill limit (66%). Fault injection perturbs it like the
/// analysis estimates, which only shifts rows between kernel configurations.
std::vector<offset_t> numeric_lb_entries(std::span<const index_t> demand,
                                         double max_fill,
                                         const FaultInjector* faults) {
  std::vector<offset_t> entries(demand.size());
  for (std::size_t r = 0; r < demand.size(); ++r) {
    entries[r] = static_cast<offset_t>(static_cast<double>(demand[r]) / max_fill + 1.0);
    if (faults != nullptr) {
      entries[r] = faults->scale_estimate(static_cast<index_t>(r), entries[r]);
    }
  }
  return entries;
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
  if (!transparent_cache_ ||
      transparent_cache_->limit_bytes() != config_.plan_cache_limit_bytes) {
    transparent_cache_ =
        std::make_unique<PlanCache>(1, config_.plan_cache_limit_bytes);
  }
  return *transparent_cache_;
}

SpGemmResult Speck::multiply(const Csr& a, const Csr& b) {
  return cached_multiply(a, b, config_.mask.get());
}

SpGemmResult Speck::multiply_masked(const Csr& a, const Csr& b,
                                    const Csr& mask) {
  return cached_multiply(a, b, &mask);
}

SpGemmResult Speck::cached_multiply(const Csr& a, const Csr& b,
                                    const Csr* mask) {
  if (!config_.plan_cache) {
    has_last_structure_ = false;
    transparent_cache_.reset();
    return run_pipeline(a, b, mask, nullptr);
  }
  PlanCache& cache = plan_cache();
  // The masked fingerprint keeps masked and unmasked structures from ever
  // colliding.
  const PlanFingerprint fp = plan_fingerprint(a, b, mask, config_);
  if (const std::shared_ptr<const SpeckPlan> plan = cache.find(fp)) {
    SpGemmResult result =
        replay_plan_into(*plan, a, b, host_pool(), &diagnostics_, &trace_, nullptr);
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
  if (!build) return run_pipeline(a, b, mask, nullptr);
  auto plan = std::make_shared<SpeckPlan>();
  plan->fingerprint = fp;
  SpGemmResult result = run_pipeline(a, b, mask, plan.get());
  if (result.ok() && plan->complete) cache.insert(std::move(plan));
  return result;
}

SpeckPlan Speck::plan(const Csr& a, const Csr& b, SpGemmResult* full_result,
                      const CancelToken* cancel) {
  const Csr* mask = config_.mask.get();
  SpeckPlan plan;
  plan.fingerprint = plan_fingerprint(a, b, mask, config_);
  // When the caller does not want the full multiply result, the capture
  // block may steal the C pattern arrays from it instead of copying.
  SpGemmResult result = run_pipeline(a, b, mask, &plan, cancel,
                                     /*steal_pattern=*/full_result == nullptr);
  if (!result.ok() && plan.incomplete_reason.empty()) {
    plan.incomplete_reason = "planning run failed: " + result.failure_reason;
  }
  if (full_result != nullptr) *full_result = std::move(result);
  return plan;
}

SpGemmResult Speck::multiply_with_plan(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b,
                                       SpeckDiagnostics* diag) const {
  const std::string reject = plan_reject_reason(plan, a, b, config_);
  if (!reject.empty()) return rejected_plan(reject, diag);
  return replay_plan_into(plan, a, b, &serial_pool(), diag, nullptr, nullptr);
}

SpGemmResult Speck::replay_values_into(const SpeckPlan& plan, const Csr& a,
                                       const Csr& b, std::span<value_t> out,
                                       SpeckDiagnostics* diag) const {
  const std::string reject = plan_reject_reason(plan, a, b, config_);
  if (!reject.empty()) return rejected_plan(reject, diag);
  SPECK_REQUIRE(out.size() == static_cast<std::size_t>(plan.c_nnz()),
                "replay_values_into: output span must be sized to the plan's "
                "c_nnz");
  return replay_plan_into(plan, a, b, &serial_pool(), diag, nullptr, &out);
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
  }
  if (trace != nullptr) trace->clear();

  // The replayed numeric kernels use the same transient device buffers the
  // full numeric pass did.
  DeviceMemory memory(device_.global_memory_bytes, faults, result);
  if (!memory.reserve_inputs(a.byte_size() + b.byte_size()) ||
      !memory.reserve_output(plan.fingerprint.a_rows, plan.c_nnz()) ||
      !memory.reserve_global_pool(plan.diagnostics.numeric.global_pool_bytes) ||
      !memory.reserve_sort_buffers(plan.diagnostics.radix_sorted_elements)) {
    return result;
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
    std::vector<value_t> values(static_cast<std::size_t>(plan.c_nnz()), 0.0);
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

SpGemmResult Speck::run_pipeline(const Csr& a, const Csr& b, const Csr* mask,
                                 SpeckPlan* capture, const CancelToken* cancel,
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
  if (mask != nullptr) validate_mask_input(a, b, *mask, config_.validate_inputs);
  if (config_.validate_inputs) validate_multiply_inputs(a, b);
  std::optional<FaultInjector> injector;
  if (config_.faults.enabled()) injector.emplace(config_.faults);
  const FaultInjector* faults = injector ? &*injector : nullptr;
  // The masked pipeline ignores the planning mode: its demand bound is
  // exact by construction.
  const bool estimated =
      mask == nullptr && resolve_planning(config_.planning) == PlanningMode::kEstimated;
  const bool exact = mask == nullptr && !estimated;

  SpGemmResult result;
  diagnostics_ = SpeckDiagnostics{};
  diagnostics_.estimated_planning = estimated;
  diagnostics_.masked = mask != nullptr;
  diagnostics_.wide_keys = b.cols() > kMaxColumns32Bit;
  trace_.clear();

  // Input matrices are resident for the duration of the multiplication
  // (the paper lists this as spECK's limitation, §7). So is the mask: the
  // numeric kernels stream it row by row like they stream B.
  DeviceMemory memory(device_.global_memory_bytes, faults, result);
  if (!memory.reserve_inputs(a.byte_size() + b.byte_size() +
                             (mask != nullptr ? mask->byte_size() : 0))) {
    return result;
  }

  KernelContext ctx;
  ctx.a = &a;
  ctx.b = &b;
  ctx.mask = mask;
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

  const auto record = [&](sim::Launch& launch, sim::Stage stage) {
    sim::LaunchResult finished = launch.finish();
    result.timeline.add(stage, finished.seconds);
    trace_.record(std::move(finished));
  };
  // Conditional global load balancing (stages 2 and 4): the binning always
  // runs, the launch and its buffers only when the balancer is used.
  const auto global_lb = [&](bool symbolic, std::span<const offset_t> entries,
                             BinPlan& plan) {
    sim::Launch launch(symbolic ? "symbolic_lb" : "numeric_lb", device_, model_);
    const GlobalLbInputs inputs{entries, symbolic};
    plan = plan_global_lb(inputs, kernel_configs_, config_, launch);
    (symbolic ? diagnostics_.symbolic_decision : diagnostics_.numeric_decision) =
        lb_decision_stats(inputs, kernel_configs_, config_);
    (symbolic ? diagnostics_.symbolic_lb_used : diagnostics_.numeric_lb_used) =
        plan.used_load_balancer;
    (symbolic ? diagnostics_.symbolic_blocks : diagnostics_.numeric_blocks) =
        static_cast<int>(plan.blocks.size());
    if (!plan.used_load_balancer) return true;
    record(launch, symbolic ? sim::Stage::kSymbolicLoadBalance
                            : sim::Stage::kNumericLoadBalance);
    return memory.reserve(plan.lb_memory_bytes,
                          "load balancer buffers exceed device memory");
  };

  // The demand stage: each mode's per-row accumulator demand for the
  // numeric pass. Stage 1 is the lightweight row analysis (Algorithm 1);
  // estimated planning extends it with a bounded per-row sampling pass for
  // NNZ estimates, which is all it runs in place of stages 2 and 3.
  RowAnalysis analysis;
  std::vector<index_t> demand;
  if (estimated) {
    sim::Launch launch("row_estimator", device_, model_);
    RowEstimate estimate = estimate_rows(a, b, config_, launch, ctx.pool, faults);
    analysis = std::move(estimate.analysis);
    demand = std::move(estimate.row_nnz_estimate);
    record(launch, sim::Stage::kAnalysis);
  } else {
    sim::Launch launch("row_analysis", device_, model_);
    analysis = analyze_rows(a, b, launch, ctx.pool, faults);
    record(launch, sim::Stage::kAnalysis);
  }
  ctx.analysis = &analysis;
  diagnostics_.products = analysis.total_products;
  if (!memory.reserve(static_cast<std::size_t>(a.rows()) *
                          (sizeof(offset_t) + (estimated ? 4 : 3) * sizeof(index_t)),
                      estimated ? "row estimation buffers exceed device memory"
                                : "row analysis buffers exceed device memory")) {
    return result;
  }
  poll_cancel(estimated ? "row estimation" : "row analysis");

  BinPlan symbolic_plan;
  if (exact) {
    // Stage 2: conditional global load balancing for the symbolic pass,
    // binning on the conservative product counts.
    if (!global_lb(/*symbolic=*/true, analysis.products, symbolic_plan)) return result;
    poll_cancel("symbolic load balancing");
    // Stage 3: symbolic SpGEMM (exact C row sizes).
    SymbolicOutcome symbolic = run_symbolic(ctx, symbolic_plan);
    diagnostics_.symbolic = symbolic.stats;
    result.timeline.add(sim::Stage::kSymbolic, symbolic.stats.seconds);
    if (!memory.reserve_global_pool(symbolic.stats.global_pool_bytes)) return result;
    demand = std::move(symbolic.row_nnz);
  } else if (mask != nullptr) {
    // The mask row *is* the candidate pattern, so the demand is the hard
    // bound min(products, mask_row_nnz) — never an estimate, so there is no
    // fallback machinery.
    const std::span<const offset_t> mask_offsets = mask->row_offsets();
    demand.resize(static_cast<std::size_t>(a.rows()));
    for (std::size_t r = 0; r < demand.size(); ++r) {
      demand[r] = static_cast<index_t>(
          std::min(analysis.products[r], mask_offsets[r + 1] - mask_offsets[r]));
    }
  }
  const offset_t demand_nnz = std::accumulate(demand.begin(), demand.end(), offset_t{0});
  if (exact) {
    // Exact C row offsets are known now; the C allocation itself is not
    // timed (identical for every method) but counts towards peak memory.
    if (!memory.reserve_output(a.rows(), demand_nnz)) return result;
    poll_cancel("symbolic pass");
  }

  // Stage 4: conditional global load balancing for the numeric pass.
  BinPlan numeric_plan;
  if (!global_lb(/*symbolic=*/false,
                 numeric_lb_entries(demand, config_.max_numeric_fill, faults),
                 numeric_plan)) {
    return result;
  }
  poll_cancel("numeric load balancing");
  // Without exact row sizes, C is staged in one demand-sized slot per row
  // (the allocation exact mode sizes from the symbolic counts) until the
  // numeric pass has discovered the exact pattern.
  const std::size_t staging_bytes = csr_device_bytes(a.rows(), demand_nnz);
  if (!exact && !memory.reserve(staging_bytes,
                                mask != nullptr
                                    ? "masked output staging exceeds device memory"
                                    : "estimated output staging exceeds device memory")) {
    return result;
  }

  // Stages 5 + 6: numeric SpGEMM and the sorting pass. The estimated merge
  // re-runs underflowed rows through an exact fallback; the masked pass
  // needs no sort, since mask rows ascend and C is emitted in final order.
  const std::size_t numeric_trace_mark = trace_.launches().size();
  NumericOutcome numeric;
  std::vector<index_t> row_nnz;  // exact NNZ per C row; exact mode: `demand`
  if (exact) {
    numeric = run_numeric(ctx, numeric_plan, demand);
  } else if (estimated) {
    EstimatedNumericOutcome out = run_numeric_estimated(ctx, numeric_plan, demand);
    numeric = {std::move(out.c), out.stats, out.sorting_seconds,
               out.radix_sorted_elements};
    row_nnz = std::move(out.row_nnz);
  } else {
    MaskedNumericOutcome out = run_numeric_masked(ctx, numeric_plan, demand);
    numeric.c = std::move(out.c);
    numeric.stats = out.stats;
    row_nnz = std::move(out.row_nnz);
  }
  diagnostics_.numeric = numeric.stats;
  diagnostics_.radix_sorted_elements = numeric.radix_sorted_elements;
  result.timeline.add(sim::Stage::kNumeric, numeric.stats.seconds);
  result.timeline.add(sim::Stage::kSorting, numeric.sorting_seconds);
  if (!memory.reserve_global_pool(numeric.stats.global_pool_bytes) ||
      !memory.reserve_sort_buffers(numeric.radix_sorted_elements)) {
    return result;
  }
  const offset_t c_nnz = numeric.c.nnz();
  if (!exact) {
    if (!memory.reserve_output(a.rows(), c_nnz)) return result;
    memory.release(staging_bytes);
  }

  result.c = std::move(numeric.c);
  result.seconds = result.timeline.total_seconds();
  result.peak_memory_bytes = memory.peak_bytes();
  if (capture == nullptr) return result;

  SpeckPlan& plan = *capture;
  plan.wide_keys = ctx.wide_keys;
  if (steal_pattern) {
    // The caller promised to discard the result: take the pattern arrays
    // instead of copying them (the values are dropped either way).
    std::vector<value_t> discarded_values;
    result.c.take_arrays(plan.c_row_offsets, plan.c_col_indices, discarded_values);
  } else {
    const std::span<const offset_t> c_offsets = result.c.row_offsets();
    const std::span<const index_t> c_cols = result.c.col_indices();
    plan.c_row_offsets.assign(c_offsets.begin(), c_offsets.end());
    plan.c_col_indices.assign(c_cols.begin(), c_cols.end());
  }
  if (static_cast<std::uint64_t>(a.nnz()) >= kMaxReplayIndex ||
      static_cast<std::uint64_t>(b.nnz()) >= kMaxReplayIndex ||
      static_cast<std::uint64_t>(c_nnz) >= kMaxReplayIndex) {
    plan.incomplete_reason = "matrix too large for the 32-bit replay program";
  } else {
    // An estimated plan re-derives method selection from the *estimates* —
    // exactly what the estimated pass executed, which is what keeps replays
    // bit-identical.
    plan.program = mask != nullptr
                       ? build_replay_program_masked(ctx, plan.c_row_offsets,
                                                     plan.c_col_indices)
                       : build_replay_program(ctx, numeric_plan, demand,
                                              plan.c_row_offsets,
                                              plan.c_col_indices);
    plan.complete = true;
  }
  // The plan stores the *actual* exact counts.
  plan.row_nnz = std::move(exact ? demand : row_nnz);
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
  // Stages a mode skips add an exact 0.0.
  plan.inspect_seconds = result.timeline.seconds(sim::Stage::kAnalysis) +
                         result.timeline.seconds(sim::Stage::kSymbolicLoadBalance) +
                         result.timeline.seconds(sim::Stage::kSymbolic) +
                         result.timeline.seconds(sim::Stage::kNumericLoadBalance);
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

}  // namespace speck
