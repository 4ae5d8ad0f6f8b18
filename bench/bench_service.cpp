// Concurrent-serving benchmark: N client threads issuing a Zipf-distributed
// mix of fixed-pattern multiplies against one shared Speck, comparing a
// mutex-serialized replay (every request takes one global lock around
// Speck::multiply_with_plan) with SpeckService's lock-free replay path
// (multiply_into + leased client workspaces). Printed as JSON; backs the
// checked-in BENCH_service.json.
//
// Hard gates (CI runs `bench_service --quick`):
//
//   * every served result must be bit-identical to the Gustavson reference
//     for its pattern (always enforced),
//   * the steady-state replay must perform zero hot-path heap allocations
//     (always enforced, measured single-threaded via the counting operator
//     new of counting_alloc.cpp),
//   * service throughput must reach --min-speedup (default 3x) over the
//     serialized baseline at 8 client threads — enforced only when the
//     machine has >= 8 hardware cores, since on fewer cores both sides
//     timeshare the same CPUs and the ratio measures the scheduler, not
//     the lock structure (reported unconditionally for the trajectory).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/prng.h"
#include "gen/generators.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"
#include "speck/service.h"
#include "speck/speck.h"

namespace {

using namespace speck;

/// The serving pattern mix: distinct structures of serving-sized matrices.
std::vector<Csr> make_patterns() {
  std::vector<Csr> out;
  out.push_back(gen::banded(512, 16, 10, 11));
  out.push_back(gen::banded(384, 24, 12, 22));
  out.push_back(gen::power_law(400, 400, 8, 2.2, 60, 33));
  out.push_back(gen::power_law(512, 512, 6, 2.0, 40, 44));
  out.push_back(gen::stencil_2d(24, 24));
  out.push_back(gen::block_diagonal(16, 24, 0.5, 55));
  return out;
}

/// CDF of a Zipf(s) distribution over `n` ranks.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Per-request pattern schedule, identical for both sides of the comparison.
std::vector<std::vector<std::size_t>> make_schedules(int threads,
                                                     std::size_t requests,
                                                     std::size_t patterns,
                                                     double zipf_s,
                                                     std::uint64_t seed) {
  const std::vector<double> cdf = zipf_cdf(patterns, zipf_s);
  std::vector<std::vector<std::size_t>> schedules(
      static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    Xoshiro256 rng(seed + static_cast<std::uint64_t>(t) * 7919u);
    auto& schedule = schedules[static_cast<std::size_t>(t)];
    schedule.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      schedule.push_back(zipf_pick(cdf, rng.next_double()));
    }
  }
  return schedules;
}

struct LatencyReport {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

LatencyReport merge_latencies(std::vector<std::vector<double>>& per_thread) {
  std::vector<double> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LatencyReport rep;
  if (all.empty()) return rep;
  auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * (all.size() - 1));
    return all[idx] * 1e6;
  };
  rep.p50_us = at(0.50);
  rep.p90_us = at(0.90);
  rep.p99_us = at(0.99);
  rep.max_us = all.back() * 1e6;
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 2, 8};
  std::size_t requests = 400;  // per client thread
  double zipf_s = 1.0;
  double min_speedup = 3.0;
  std::uint64_t seed = 42;
  bench::Flags flags;
  flags.on("--quick", [&] {
    thread_counts = {1, 8};
    requests = 150;
  });
  flags.threads(&thread_counts);
  flags.count("--requests", &requests);
  flags.number("--zipf", "S", &zipf_s);
  flags.number("--min-speedup", "X", &min_speedup);
  flags.integer("--seed", &seed);
  if (!flags.parse(argc, argv)) return 2;

  const unsigned cores = std::thread::hardware_concurrency();
  const std::vector<Csr> patterns = make_patterns();
  std::vector<Csr> refs;
  for (const Csr& a : patterns) refs.push_back(gustavson_spgemm(a, a));

  bench::Report report("service");
  report.count("cores", cores);
  report.count("patterns", patterns.size());
  report.count("requests_per_thread", requests);
  report.number("zipf_s", zipf_s);
  report.number("min_speedup", min_speedup);

  SpeckConfig cfg;
  cfg.host_threads = 1;  // replay runs serially per client; no nested pools
  cfg.plan_cache = false;
  Speck sp(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  SpeckService service(sp);

  // Plan every pattern up front: both sides of the comparison measure pure
  // replay throughput, which is the serving steady state.
  std::vector<std::shared_ptr<const SpeckPlan>> plans;
  for (const Csr& a : patterns) {
    Status st;
    std::shared_ptr<const SpeckPlan> plan = service.plan_for(a, a, &st);
    if (plan == nullptr) bench::abort_run("planning failed: %s", st.message.c_str());
    plans.push_back(std::move(plan));
  }

  // Gate 1 (always): the steady-state replay is allocation-free,
  // live-counted inside the replay kernel at one thread.
  std::size_t hot_allocs = 0;
  {
    std::vector<value_t> buf;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      buf.resize(static_cast<std::size_t>(plans[p]->c_nnz()));
      // warm-up, then measured
      (void)sp.replay_values_into(*plans[p], patterns[p], patterns[p], buf);
      SpeckDiagnostics diag;
      SpGemmResult r = sp.replay_values_into(*plans[p], patterns[p],
                                             patterns[p], buf, &diag);
      if (!r.ok()) bench::abort_run("replay failed: %s", r.failure_reason.c_str());
      hot_allocs += diag.numeric.hot_path_allocs;
    }
  }
  report.count("replay_hot_allocs", hot_allocs);
  if (hot_allocs != 0) {
    report.fail("replay hot path performed %zu allocations", hot_allocs);
  }

  // Gate 2 (always): every pattern's served values are bit-identical to the
  // Gustavson reference.
  {
    std::vector<value_t> buf;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      SpeckService::Response resp =
          service.multiply_into(patterns[p], patterns[p], buf);
      const std::span<const value_t> want = refs[p].values();
      if (!resp.ok() || resp.c_nnz != refs[p].nnz() ||
          !std::equal(buf.begin(), buf.end(), want.begin(), want.end())) {
        report.fail("pattern %zu served values diverge", p);
      }
    }
  }

  std::mutex serial_mutex;  // the baseline's single global lock
  for (const int threads : thread_counts) {
    const auto schedules = make_schedules(threads, requests,
                                          patterns.size(), zipf_s, seed);
    report.begin_point(threads);

    // Baseline: mutex-serialized replay. Every client takes the one global
    // lock around its replay.
    std::atomic<std::size_t> errors{0};
    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(threads));
    auto run_clients = [&](auto&& body) {
      std::vector<std::thread> clients;
      const auto t0 = std::chrono::steady_clock::now();
      for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] { body(t); });
      }
      for (auto& th : clients) th.join();
      return bench::seconds_since(t0);
    };

    for (auto& v : lat) {
      v.clear();
      v.reserve(requests);
    }
    const double serialized_wall = run_clients([&](int t) {
      auto& my_lat = lat[static_cast<std::size_t>(t)];
      for (const std::size_t p : schedules[static_cast<std::size_t>(t)]) {
        const auto r0 = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(serial_mutex);
        SpGemmResult r =
            sp.multiply_with_plan(*plans[p], patterns[p], patterns[p]);
        if (!r.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        my_lat.push_back(bench::seconds_since(r0));
      }
    });
    const LatencyReport serialized_lat = merge_latencies(lat);

    for (auto& v : lat) {
      v.clear();
      v.reserve(requests);
    }
    const double service_wall = run_clients([&](int t) {
      auto& my_lat = lat[static_cast<std::size_t>(t)];
      WorkspacePool::Lease lease = service.client_workspaces().lease();
      std::vector<value_t>& buf = lease->replay_values();
      for (const std::size_t p : schedules[static_cast<std::size_t>(t)]) {
        const auto r0 = std::chrono::steady_clock::now();
        SpeckService::Response resp =
            service.multiply_into(patterns[p], patterns[p], buf);
        if (!resp.ok()) errors.fetch_add(1, std::memory_order_relaxed);
        my_lat.push_back(bench::seconds_since(r0));
      }
    });
    const LatencyReport service_lat = merge_latencies(lat);

    if (errors.load() != 0) report.fail("%zu requests errored", errors.load());

    const double total =
        static_cast<double>(requests) * static_cast<double>(threads);
    const double speedup = serialized_wall / service_wall;
    report.number("serialized_wall_seconds", serialized_wall);
    report.number("service_wall_seconds", service_wall);
    report.number("serialized_rps", total / serialized_wall);
    report.number("service_rps", total / service_wall);
    report.number("speedup", speedup);
    report.number("serialized_p50_us", serialized_lat.p50_us);
    report.number("serialized_p99_us", serialized_lat.p99_us);
    report.number("service_p50_us", service_lat.p50_us);
    report.number("service_p90_us", service_lat.p90_us);
    report.number("service_p99_us", service_lat.p99_us);
    report.number("service_max_us", service_lat.max_us);
    report.end_point();

    if (threads >= 8 && cores >= 8) {
      report.require_at_least("service speedup at 8+ threads", speedup, min_speedup);
    }
  }

  const ServiceStats stats = service.stats();
  report.count("service_requests", stats.requests);
  report.count("service_replays", stats.replays);
  report.count("plans_built", stats.plans_built);
  report.count("admission_rejected", stats.rejected);
  // Lifecycle counters (informational: no deadlines/faults are configured
  // here, so all three must stay 0 — bench_check reports them without
  // gating via --info-metric).
  report.count("service_shed", stats.shed);
  report.count("service_timed_out", stats.timed_out);
  report.count("service_degraded", stats.degraded);
  report.count("cache_entries", stats.cache.entries);
  report.count("cache_bytes", stats.cache.bytes);
  if (stats.rejected != 0) {
    report.fail("%llu requests rejected with no budget set",
                static_cast<unsigned long long>(stats.rejected));
  }
  return report.finish();
}
