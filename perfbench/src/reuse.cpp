// reuse: the Table-4 stand-ins planned once with Speck::plan under
// estimated planning, then replayed values-only through the const
// replay_values_into by nproc caller threads, alternating two pre-generated
// value sets so no replay can be skipped. The plans are far larger than the
// L3, so replay streams from memory. No symbolic pass runs in timed work.
#include <algorithm>
#include <atomic>
#include <mutex>

#include "bench.h"
#include "common/simd.h"
#include "inputs.h"
#include "redrive.h"
#include "ref/gustavson.h"

namespace perfbench {

namespace {

constexpr int kValueSets = 2;

struct Setup {
  std::vector<Job> corpus;
  /// values[k][i]: matrix i with value set k (same pattern as corpus[i]).
  std::vector<std::vector<Job>> values;
  std::unique_ptr<speck::Speck> speck;
  std::vector<speck::SpeckPlan> plans;
  double plan_s = 0.0;
  /// warm[k][i]: replayed C values of matrix i under value set k.
  std::vector<std::vector<std::vector<speck::value_t>>> warm;
  double replay_sim_seconds = 0.0;
};

struct ReplayJob {
  std::size_t matrix = 0;
  int set = 0;
  std::int64_t id = 0;  ///< position in the round
};

Setup set_up(const Options& opt) {
  Setup s;
  s.corpus = table4_corpus(opt.seed, opt.tiny);
  for (int k = 0; k < kValueSets; ++k) {
    std::vector<Job> set;
    for (std::size_t i = 0; i < s.corpus.size(); ++i) {
      Job j;
      j.name = s.corpus[i].name;
      j.a = with_values(s.corpus[i].a, opt.seed * 7919 + 2 * i + 97 * (k + 1));
      j.b = with_values(s.corpus[i].b, opt.seed * 7919 + 2 * i + 1 + 97 * (k + 1));
      j.products = s.corpus[i].products;
      set.push_back(std::move(j));
    }
    s.values.push_back(std::move(set));
  }
  s.speck = make_speck(base_config(speck::PlanningMode::kEstimated, opt.threads));
  const auto t0 = Clock::now();
  for (const Job& job : s.corpus) s.plans.push_back(s.speck->plan(job.a, job.b));
  s.plan_s = seconds_since(t0);
  s.warm.resize(kValueSets);
  for (int k = 0; k < kValueSets; ++k) {
    for (std::size_t i = 0; i < s.corpus.size(); ++i) {
      std::vector<speck::value_t> out(static_cast<std::size_t>(s.plans[i].c_nnz()));
      const Job& j = s.values[static_cast<std::size_t>(k)][i];
      const speck::SpGemmResult r = s.speck->replay_values_into(s.plans[i], j.a, j.b, out);
      s.replay_sim_seconds += r.ok() ? r.seconds : 0.0;
      s.warm[static_cast<std::size_t>(k)].push_back(std::move(out));
    }
  }
  return s;
}

/// Jobs of one round: every (matrix, value set) twice, largest first so
/// the round's wall is not set by one late straggler.
std::vector<ReplayJob> round_jobs(const Setup& s) {
  std::vector<ReplayJob> jobs;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < s.corpus.size(); ++i) {
      for (int k = 0; k < kValueSets; ++k) jobs.push_back({i, k, 0});
    }
  }
  std::stable_sort(jobs.begin(), jobs.end(), [&](const ReplayJob& x, const ReplayJob& y) {
    return s.corpus[x.matrix].products > s.corpus[y.matrix].products;
  });
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].id = static_cast<std::int64_t>(j);
  return jobs;
}

/// Runs `jobs` on `threads` caller threads; body(job, thread) per job.
/// Returns the round's wall seconds.
template <typename Body>
double run_round(const std::vector<ReplayJob>& jobs, int threads, Body&& body) {
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  run_threads(threads, [&](int t) {
    for (std::size_t j = next.fetch_add(1); j < jobs.size(); j = next.fetch_add(1)) {
      body(jobs[j], t);
    }
  });
  return seconds_since(t0);
}

/// Per-thread output buffers, one per matrix.
std::vector<std::vector<std::vector<speck::value_t>>> make_buffers(const Setup& s,
                                                                   int threads) {
  std::vector<std::vector<std::vector<speck::value_t>>> bufs(
      static_cast<std::size_t>(threads));
  for (auto& per_thread : bufs) {
    for (const speck::SpeckPlan& p : s.plans) {
      per_thread.emplace_back(static_cast<std::size_t>(p.c_nnz()));
    }
  }
  return bufs;
}

}  // namespace

void run_reuse(const Options& opt, Result& out, Tracer& tracer) {
  std::vector<double> setups;
  Setup s = repeated_setup(opt.trace ? 1 : kSetupReps, setups,
                           [&] { return set_up(opt); });
  // Every distinct output (matrix, value set) against the Gustavson oracle.
  for (int k = 0; k < kValueSets; ++k) {
    for (std::size_t i = 0; i < s.corpus.size(); ++i) {
      ++out.attempted;
      const Job& j = s.values[static_cast<std::size_t>(k)][i];
      const speck::Csr want = speck::gustavson_spgemm(j.a, j.b);
      const speck::SpeckPlan& p = s.plans[i];
      const bool same =
          p.complete && want.row_offsets().size() == p.c_row_offsets.size() &&
          std::equal(p.c_row_offsets.begin(), p.c_row_offsets.end(),
                     want.row_offsets().begin()) &&
          std::equal(p.c_col_indices.begin(), p.c_col_indices.end(),
                     want.col_indices().begin(), want.col_indices().end()) &&
          values_equal(s.warm[static_cast<std::size_t>(k)][i], want.values());
      if (!same) out.fail("reuse: " + j.name + " differs from the Gustavson oracle");
    }
  }
  const std::vector<ReplayJob> jobs = round_jobs(s);
  double round_products = 0.0;
  for (const ReplayJob& j : jobs) {
    round_products += static_cast<double>(s.corpus[j.matrix].products);
  }
  auto bufs = make_buffers(s, opt.threads);
  const auto job_inputs = [&](const ReplayJob& j) -> const Job& {
    return s.values[static_cast<std::size_t>(j.set)][j.matrix];
  };
  // Checks one replayed buffer against the warm result of its job.
  const auto check = [&](const ReplayJob& j, int t, const char* what) {
    if (!values_equal(bufs[static_cast<std::size_t>(t)][j.matrix],
                      s.warm[static_cast<std::size_t>(j.set)][j.matrix])) {
      out.fail(std::string("reuse: ") + what + " of " + job_inputs(j).name +
               " differs from the warm replay");
    }
  };
  std::mutex out_mutex;

  if (!opt.trace) {
    std::vector<double> round_walls;
    // Job id of round r at [r * jobs + id]; each slot written by one thread.
    std::vector<double> latencies;
    std::atomic<std::uint64_t> replay_failures{0};
    const auto start = Clock::now();
    while (seconds_since(start) < opt.seconds || round_walls.size() < 3) {
      const std::size_t base = latencies.size();
      latencies.resize(base + jobs.size());
      round_walls.push_back(run_round(jobs, opt.threads, [&](const ReplayJob& j, int t) {
        const Job& in = job_inputs(j);
        const auto t0 = Clock::now();
        const speck::SpGemmResult r = s.speck->replay_values_into(
            s.plans[j.matrix], in.a, in.b, bufs[static_cast<std::size_t>(t)][j.matrix]);
        latencies[base + static_cast<std::size_t>(j.id)] = seconds_since(t0) * 1e6;
        if (!r.ok()) replay_failures.fetch_add(1);
      }));
    }
    // One verification round: every replayed output compared bitwise.
    run_round(jobs, opt.threads, [&](const ReplayJob& j, int t) {
      const Job& in = job_inputs(j);
      const speck::SpGemmResult r = s.speck->replay_values_into(
          s.plans[j.matrix], in.a, in.b, bufs[static_cast<std::size_t>(t)][j.matrix]);
      const std::lock_guard<std::mutex> lock(out_mutex);
      if (!r.ok()) replay_failures.fetch_add(1);
      check(j, t, "replay");
    });
    out.attempted += latencies.size() + jobs.size();
    for (std::uint64_t f = replay_failures.load(); f > 0; --f) out.fail("reuse: replay failed");
    double flops = 0.0;
    for (const Job& j : s.corpus) flops += 2.0 * static_cast<double>(j.products);
    // Same statistic as the closed loops: a round's kCallPercentile wall
    // and each job's kCallPercentile latency.
    set_end_to_end(out, setups,
                   2.0 * round_products / percentile(round_walls, kCallPercentile) * 1e-9,
                   kValueSets * flops / s.replay_sim_seconds * 1e-9,
                   input_percentiles(latencies, jobs.size()));
    out.info["rounds"] = static_cast<double>(round_walls.size());
    out.info["requests"] = static_cast<double>(latencies.size());
    out.info["gflops_round_median"] = 2.0 * round_products / median(round_walls) * 1e-9;
    out.info["req_p50_us_all_calls"] = percentile(latencies, 50);
    out.info["req_p99_us"] = percentile(latencies, 99);
    out.info["plan_s"] = s.plan_s;
    return;
  }

  // Traced run. Per pass: the estimated-planning re-drive of every matrix
  // (checked against the library plans) beside untraced Speck::plan, then a
  // round of bare replay kernels and a round of replay_values_into calls.
  std::vector<double> traced_walls;
  std::vector<double> plain_walls;
  std::vector<double> plan_walls;
  std::vector<double> kernel_rounds;
  std::int64_t underflow = 0;
  std::int64_t planned_rows = 0;
  int lb_runs = 0;
  std::size_t hot_allocs = 0;
  int passes = 0;
  const speck::SimdBackend simd =
      speck::simd::resolve_backend(s.speck->config().simd_backend);
  const auto start = Clock::now();
  while (seconds_since(start) < opt.seconds * 0.6 || passes < 2) {
    ScopedSpan::set_pass(passes);
    double traced = 0.0;
    underflow = planned_rows = 0;
    lb_runs = 0;
    hot_allocs = 0;
    for (std::size_t i = 0; i < s.corpus.size(); ++i) {
      const auto t0 = Clock::now();
      Redrive r = redrive_estimated_plan(*s.speck, s.corpus[i].a, s.corpus[i].b, &tracer);
      traced += seconds_since(t0);
      ++out.attempted;
      const std::string diff = compare_with_plan(r, s.plans[i]);
      if (!diff.empty()) out.fail("reuse re-drive: " + s.corpus[i].name + ": " + diff);
      underflow += static_cast<std::int64_t>(r.numeric.estimate_underflow_rows);
      planned_rows += r.planned_rows;
      lb_runs += r.lb_runs;
      hot_allocs += r.numeric.hot_path_allocs;
    }
    double plain = 0.0;
    {
      ScopedSpan::set_pass(-1);
      const auto t0 = Clock::now();
      for (const Job& job : s.corpus) {
        ++out.attempted;
        if (!s.speck->plan(job.a, job.b).complete) out.fail("reuse: plan incomplete");
      }
      plain = seconds_since(t0);
      plan_walls.push_back(plain);
      ScopedSpan::set_pass(passes);
    }
    // Bare kernels: the replay inner loop alone, into zeroed buffers.
    std::uint64_t kernel_round_id = 0;
    {
      const ScopedSpan round(&tracer, "replay.round");
      kernel_round_id = round.id();
      kernel_rounds.push_back(run_round(jobs, opt.threads, [&](const ReplayJob& j, int t) {
        ScopedSpan::set_thread(t);
        ScopedSpan::set_pass(passes);
        const Job& in = job_inputs(j);
        auto& buf = bufs[static_cast<std::size_t>(t)][j.matrix];
        const ScopedSpan span(&tracer, "replay.kernel", j.id, kernel_round_id);
        std::fill(buf.begin(), buf.end(), speck::value_t{0});
        speck::replay_numeric_values_serial(in.a, in.b, s.plans[j.matrix].program, buf,
                                            simd);
      }));
    }
    // Public replay calls; glue = call wall minus the bare kernel.
    double values_into_wall = 0.0;
    {
      const ScopedSpan round(&tracer, "replay.round");
      const std::uint64_t id = round.id();
      values_into_wall = run_round(jobs, opt.threads, [&](const ReplayJob& j, int t) {
        ScopedSpan::set_thread(t);
        ScopedSpan::set_pass(passes);
        const Job& in = job_inputs(j);
        auto& buf = bufs[static_cast<std::size_t>(t)][j.matrix];
        speck::SpeckDiagnostics diag;
        speck::SpGemmResult r;
        {
          const ScopedSpan span(&tracer, "replay.values_into", j.id, id);
          r = s.speck->replay_values_into(s.plans[j.matrix], in.a, in.b, buf, &diag);
        }
        const std::lock_guard<std::mutex> lock(out_mutex);
        ++out.attempted;
        if (!r.ok()) out.fail("reuse: traced replay failed");
        check(j, t, "traced replay");
        hot_allocs += diag.numeric.hot_path_allocs;
      });
    }
    traced_walls.push_back(traced + values_into_wall);
    // The same round untraced, for the tracing overhead.
    ScopedSpan::set_pass(-1);
    const double plain_round = run_round(jobs, opt.threads, [&](const ReplayJob& j, int t) {
      const Job& in = job_inputs(j);
      s.speck->replay_values_into(s.plans[j.matrix], in.a, in.b,
                                  bufs[static_cast<std::size_t>(t)][j.matrix]);
    });
    plain_walls.push_back(plain + plain_round);
    ++passes;
  }
  const std::vector<Span> spans = tracer.spans();
  set_layer_times(out, spans, passes);
  // Glue: per job, the fastest replay_values_into minus the fastest bare
  // kernel, summed over a round.
  std::vector<double> fastest_call(jobs.size(), 1e300);
  std::vector<double> fastest_kernel(jobs.size(), 1e300);
  for (const SpanTime& t : span_times(spans, "replay.values_into")) {
    double& f = fastest_call[static_cast<std::size_t>(t.request)];
    f = std::min(f, t.seconds);
  }
  for (const SpanTime& t : span_times(spans, "replay.kernel")) {
    double& f = fastest_kernel[static_cast<std::size_t>(t.request)];
    f = std::min(f, t.seconds);
  }
  double glue = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) glue += fastest_call[j] - fastest_kernel[j];
  // Computed bytes per round: the 4-byte program word and the B value read
  // of every op, every A value, and every C value written.
  double ops = 0.0;
  double bytes = 0.0;
  double plan_bytes = 0.0;
  for (const speck::SpeckPlan& p : s.plans) plan_bytes += static_cast<double>(p.byte_size());
  for (const ReplayJob& j : jobs) {
    const speck::SpeckPlan& p = s.plans[j.matrix];
    const double o = static_cast<double>(p.program.ops());
    ops += o;
    bytes += o * (4.0 + 8.0) + 8.0 * static_cast<double>(s.corpus[j.matrix].a.nnz()) +
             8.0 * static_cast<double>(p.c_nnz());
  }
  out.set("replay.glue_s", glue, "s");
  out.set("replay.ops", ops, "count");
  out.set("replay.bytes", bytes, "bytes");
  out.set("replay.gbps", bytes / median(kernel_rounds) * 1e-9, "GB/s");
  out.set("plan.plan_s", median(plan_walls), "s");
  out.set("plan.bytes", plan_bytes, "bytes");
  out.set("estimator.fallback_frac",
          planned_rows > 0 ? static_cast<double>(underflow) / static_cast<double>(planned_rows)
                           : 0.0,
          "ratio");
  out.set("global_lb.runs", lb_runs, "count");
  out.set("workspace.hot_path_allocs", static_cast<double>(hot_allocs), "count");
  out.set("trace.overhead_frac", median(traced_walls) / median(plain_walls) - 1.0,
          "ratio");
  speck::sim::StageTimeline replay_sim;
  for (const ReplayJob& j : jobs) {
    replay_sim.add(speck::sim::Stage::kNumeric, s.plans[j.matrix].numeric_seconds);
    replay_sim.add(speck::sim::Stage::kSorting, s.plans[j.matrix].sorting_seconds);
  }
  set_sim_metrics(out, replay_sim);
}

}  // namespace perfbench
