// tricount: triangle counting, sum((L·L) ∘ L), through
// Speck::multiply_masked (no plan cache) on R-MAT and power-law graphs.
// Exercises the masked pass and its mask-seeded accumulators; the symbolic
// and sorting passes are skipped.
#include "bench.h"
#include "inputs.h"
#include "redrive.h"
#include "ref/masked.h"

namespace perfbench {

namespace {

struct Setup {
  std::vector<Job> graphs;
  std::unique_ptr<speck::Speck> speck;
  std::vector<speck::SpGemmResult> warm;
  std::vector<speck::SpeckDiagnostics> diags;
};

Setup set_up(const Options& opt) {
  Setup s;
  s.graphs = triangle_graphs(opt.seed, opt.tiny);
  s.speck = make_speck(base_config(speck::PlanningMode::kExact, opt.threads));
  for (const Job& g : s.graphs) {
    s.warm.push_back(s.speck->multiply_masked(g.a, g.b, g.a));
    s.diags.push_back(s.speck->last_diagnostics());
  }
  return s;
}

}  // namespace

void run_tricount(const Options& opt, Result& out, Tracer& tracer) {
  std::vector<double> setups;
  Setup s = repeated_setup(opt.trace ? 1 : kSetupReps, setups,
                           [&] { return set_up(opt); });
  double flops = 0.0;
  double sim_seconds = 0.0;
  speck::sim::StageTimeline sim_total;
  for (std::size_t i = 0; i < s.graphs.size(); ++i) {
    const Job& g = s.graphs[i];
    ++out.attempted;
    const speck::Csr want = speck::masked_spgemm(g.a, g.b, g.a);
    if (!s.warm[i].ok() || !csr_equal(s.warm[i].c, want)) {
      out.fail("tricount: " + g.name + " differs from the masked oracle");
    }
    flops += 2.0 * static_cast<double>(g.products);
    sim_seconds += s.warm[i].seconds;
    accumulate(sim_total, s.warm[i].timeline);
  }
  // One timed masked multiply, compared bitwise with the checked result.
  const auto call = [&](std::size_t i) {
    const Job& g = s.graphs[i];
    const auto t0 = Clock::now();
    const speck::SpGemmResult r = s.speck->multiply_masked(g.a, g.b, g.a);
    const double sec = seconds_since(t0);
    ++out.attempted;
    if (!r.ok() || !csr_equal(r.c, s.warm[i].c)) {
      out.fail("tricount: " + g.name + " differs from its checked result");
    }
    return sec;
  };
  const std::size_t n = s.graphs.size();

  if (!opt.trace) {
    const ClosedLoop loop = closed_loop(opt.seconds, n, flops, call);
    set_end_to_end(out, setups, loop, flops / sim_seconds * 1e-9);
    out.info["products"] = flops / 2.0;
    return;
  }

  std::vector<double> traced_walls;
  std::vector<double> plain_walls;
  int passes = 0;
  speck::PassStats numeric;
  int lb_runs = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < opt.seconds * 0.8 || passes < 2) {
    ScopedSpan::set_pass(passes);
    const auto t0 = Clock::now();
    numeric = speck::PassStats{};
    lb_runs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Job& g = s.graphs[i];
      const Redrive r = redrive_masked(*s.speck, g.a, g.b, g.a, &tracer);
      ++out.attempted;
      const std::string diff = compare_with_multiply(r, s.warm[i], s.diags[i]);
      if (!diff.empty()) out.fail("tricount re-drive: " + g.name + ": " + diff);
      accumulate(numeric, r.numeric);
      lb_runs += r.lb_runs;
    }
    traced_walls.push_back(seconds_since(t0));
    ScopedSpan::set_pass(-1);
    plain_walls.push_back(timed_pass(n, call, nullptr));
    ++passes;
  }
  set_layer_times(out, tracer.spans(), passes);
  out.set("trace.overhead_frac",
          median(traced_walls) / median(plain_walls) - 1.0, "ratio");
  out.set("global_lb.runs", lb_runs, "count");
  out.set("masked_pass.hash_probes", static_cast<double>(numeric.hash_probes),
          "count");
  out.set("workspace.hot_path_allocs", static_cast<double>(numeric.hot_path_allocs),
          "count");
  set_sim_metrics(out, sim_total);
}

}  // namespace perfbench
