// oneshot: the 11 Table-4 stand-ins, each multiplied by Speck::multiply
// with exact planning and no plan cache on an nproc-thread pipeline pool —
// the paper's full six-stage pipeline on every call.
#include <algorithm>

#include "bench.h"
#include "inputs.h"
#include "redrive.h"
#include "ref/gustavson.h"

namespace perfbench {

namespace {

struct Setup {
  std::vector<Job> corpus;
  std::unique_ptr<speck::Speck> speck;
  std::vector<speck::SpGemmResult> warm;
  std::vector<speck::SpeckDiagnostics> diags;
};

Setup set_up(const Options& opt) {
  Setup s;
  s.corpus = table4_corpus(opt.seed, opt.tiny);
  s.speck = make_speck(base_config(speck::PlanningMode::kExact, opt.threads));
  for (const Job& job : s.corpus) {
    s.warm.push_back(s.speck->multiply(job.a, job.b));
    s.diags.push_back(s.speck->last_diagnostics());
  }
  return s;
}

}  // namespace

void run_oneshot(const Options& opt, Result& out, Tracer& tracer) {
  std::vector<double> setups;
  Setup s = repeated_setup(opt.trace ? 1 : kSetupReps, setups,
                           [&] { return set_up(opt); });
  // Every distinct output checked once against the Gustavson oracle.
  double flops = 0.0;
  double sim_seconds = 0.0;
  speck::sim::StageTimeline sim_total;
  for (std::size_t i = 0; i < s.corpus.size(); ++i) {
    ++out.attempted;
    const speck::Csr want = speck::gustavson_spgemm(s.corpus[i].a, s.corpus[i].b);
    if (!s.warm[i].ok() || !csr_equal(s.warm[i].c, want)) {
      out.fail("oneshot: " + s.corpus[i].name + " differs from the Gustavson oracle");
    }
    flops += 2.0 * static_cast<double>(s.corpus[i].products);
    sim_seconds += s.warm[i].seconds;
    accumulate(sim_total, s.warm[i].timeline);
  }
  // One timed Speck::multiply, compared bitwise with the checked result.
  const auto multiply = [&](speck::Speck& sp, std::size_t i) {
    const auto t0 = Clock::now();
    const speck::SpGemmResult r = sp.multiply(s.corpus[i].a, s.corpus[i].b);
    const double sec = seconds_since(t0);
    ++out.attempted;
    if (!r.ok() || !csr_equal(r.c, s.warm[i].c)) {
      out.fail("oneshot: " + s.corpus[i].name + " differs from its checked result");
    }
    return sec;
  };
  const auto call = [&](std::size_t i) { return multiply(*s.speck, i); };
  const std::size_t n = s.corpus.size();

  if (!opt.trace) {
    const ClosedLoop loop = closed_loop(opt.seconds, n, flops, call);
    set_end_to_end(out, setups, loop, flops / sim_seconds * 1e-9);
    out.info["products"] = flops / 2.0;
    return;
  }

  // Traced run: stage-by-stage re-drive of every multiply, checked against
  // the library, interleaved with untraced passes for the overhead.
  std::vector<double> traced_walls;
  std::vector<double> plain_walls;
  std::vector<double> plain_calls_us;
  int passes = 0;
  speck::PassStats symbolic;
  speck::PassStats numeric;
  std::int64_t radix = 0;
  int lb_runs = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < opt.seconds * 0.7 || passes < 2) {
    ScopedSpan::set_pass(passes);
    const auto t0 = Clock::now();
    symbolic = numeric = speck::PassStats{};
    radix = 0;
    lb_runs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Redrive r = redrive_exact(*s.speck, s.corpus[i].a, s.corpus[i].b, &tracer);
      ++out.attempted;
      const std::string diff = compare_with_multiply(r, s.warm[i], s.diags[i]);
      if (!diff.empty()) out.fail("oneshot re-drive: " + s.corpus[i].name + ": " + diff);
      accumulate(symbolic, r.symbolic);
      accumulate(numeric, r.numeric);
      radix += r.radix_sorted_elements;
      lb_runs += r.lb_runs;
    }
    traced_walls.push_back(seconds_since(t0));
    ScopedSpan::set_pass(-1);
    plain_walls.push_back(timed_pass(n, call, &plain_calls_us));
    ++passes;
  }
  const std::vector<Span> spans = tracer.spans();
  set_layer_times(out, spans, passes);
  // Glue: per matrix, the fastest Speck::multiply wall minus the fastest
  // sum of its stage spans (the re-drive's children), summed over the
  // corpus. Below the run-to-run noise it can read negative.
  const std::vector<SpanTime> calls = span_times(spans, "speck.multiply");
  double glue = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double plain = 1e300;
    double stages = 1e300;
    for (std::size_t p = 0; p < static_cast<std::size_t>(passes); ++p) {
      plain = std::min(plain, plain_calls_us[p * n + i] * 1e-6);
      stages = std::min(stages, calls[p * n + i].child_seconds);
    }
    glue += plain - stages;
  }
  out.set("speck.glue_s", glue, "s");
  out.set("trace.overhead_frac",
          median(traced_walls) / median(plain_walls) - 1.0, "ratio");
  out.set("global_lb.runs", lb_runs, "count");
  set_pass_counts(out, symbolic, numeric, radix);
  set_sim_metrics(out, sim_total);

  // Plain single-thread baseline of the same corpus pass.
  auto serial = make_speck(base_config(speck::PlanningMode::kExact, 1));
  const auto serial_call = [&](std::size_t i) { return multiply(*serial, i); };
  timed_pass(n, serial_call, nullptr);
  const double serial_wall = timed_pass(n, serial_call, nullptr);
  out.set("thread_pool.speedup_1t", serial_wall / median(plain_walls), "ratio");
}

}  // namespace perfbench
