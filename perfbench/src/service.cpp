// service: an open loop against one SpeckService (multiply_into). One
// generator thread sends seeded Poisson arrivals; three worker threads
// serve them; the wrapped Speck runs its pipeline on one thread. Pattern
// popularity is Zipf over a window that slides through a larger pool of
// small, cache-resident patterns, and the plan cache's byte budget is below
// the window's plan bytes: patterns keep entering (full run, plan build,
// cache insert) and leaving (LRU eviction) beside lock-free replay hits.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>

#include "bench.h"
#include "common/prng.h"
#include "inputs.h"
#include "matrix/matrix_stats.h"
#include "ref/gustavson.h"
#include "speck/plan.h"
#include "speck/service.h"

namespace perfbench {

namespace {

constexpr int kWorkers = 3;
constexpr int kValueSets = 2;
constexpr double kZipfS = 1.0;
constexpr std::uint64_t kPatternSeed = 42;
constexpr double kSloUs = 1000.0;
/// Requests between two slides of the popularity window.
constexpr std::uint64_t kSlideEvery = 1000;
/// Plan-cache budget as a share of the window's plan bytes: room for the
/// window plus a few departed patterns, far below the pool's plan bytes, so
/// every pattern entering the window evicts a departed one.
constexpr double kCacheShare = 1.25;

struct Pattern {
  speck::Csr a[kValueSets];
  speck::Csr b[kValueSets];
  std::vector<speck::value_t> want[kValueSets];
  double products = 0.0;
};

struct Setup {
  std::vector<Pattern> pool;
  std::size_t window = 0;
  std::unique_ptr<speck::Speck> speck;
  std::unique_ptr<speck::SpeckService> service;
};

/// Seeded request stream: pattern by Zipf rank over the sliding window,
/// value set alternating at random, unit-rate exponential gaps.
class Stream {
 public:
  Stream(std::uint64_t seed, std::size_t pool, std::size_t window)
      : rng_(seed), pool_(pool), window_(window) {
    double total = 0.0;
    for (std::size_t i = 0; i < window; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  struct Next {
    std::size_t pattern;
    int set;
    double gap;  ///< unit-rate exponential
  };
  Next next() {
    const std::size_t start = static_cast<std::size_t>(count_++ / kSlideEvery) % pool_;
    const double u = uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    // Rank 0 is the newest pattern of the window.
    const std::size_t pattern =
        (start + window_ - 1 - std::min(rank, window_ - 1)) % pool_;
    const int set = static_cast<int>(rng_.next_u64() & 1u);
    return {pattern, set, -std::log(1.0 - uniform())};
  }

 private:
  double uniform() { return static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53; }
  speck::Xoshiro256 rng_;
  std::size_t pool_;
  std::size_t window_;
  std::vector<double> cdf_;
  std::uint64_t count_ = 0;
};

Setup set_up(const Options& opt) {
  Setup s;
  const std::size_t pool_size = opt.tiny ? 8 : 64;
  s.window = opt.tiny ? 4 : 16;
  // The pool's structure is fixed (like speckd's shapes); the seed draws the
  // values, the arrivals and the popularity order, so runs on different
  // seeds serve the same patterns in a different traffic mix.
  const std::vector<speck::Csr> patterns = service_patterns(pool_size, kPatternSeed);
  double plan_bytes = 0.0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Pattern p;
    for (int k = 0; k < kValueSets; ++k) {
      p.a[k] = with_values(patterns[i], opt.seed * 131 + 4 * i + 2 * k);
      p.b[k] = with_values(patterns[i], opt.seed * 131 + 4 * i + 2 * k + 1);
    }
    p.products = static_cast<double>(speck::count_products(p.a[0], p.b[0]));
    s.pool.push_back(std::move(p));
  }
  s.speck = make_speck(base_config(speck::PlanningMode::kExact, 1));
  for (const Pattern& p : s.pool) {
    plan_bytes += static_cast<double>(s.speck->plan(p.a[0], p.b[0]).byte_size());
  }
  // One shard: a single global LRU order under the byte budget.
  speck::ServiceConfig service_cfg;
  service_cfg.cache_shards = 1;
  service_cfg.cache_limit_bytes = static_cast<std::size_t>(
      kCacheShare * plan_bytes / static_cast<double>(pool_size) *
      static_cast<double>(s.window));
  s.service = std::make_unique<speck::SpeckService>(*s.speck, service_cfg);
  // Warm pass: every pattern of the pool once (plans built, LRU churned).
  std::vector<speck::value_t> out;
  for (Pattern& p : s.pool) s.service->multiply_into(p.a[0], p.b[0], out);
  return s;
}

struct Sample {
  double latency_us = 0.0;  ///< due -> done
  double queue_us = 0.0;    ///< due -> worker start
  double service_us = 0.0;  ///< multiply_into wall
  double sim_s = 0.0;
  double products = 0.0;
  bool replayed = false;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::vector<double> lag_us;
  std::size_t backlog_at_end = 0;  ///< requests still queued when sending ended
  double seconds = 0.0;
};

/// One open-loop phase at `rate` req/s for `seconds`. Workers check every
/// response against its precomputed reference after timing it.
PhaseResult run_phase(Setup& s, Stream& stream, double rate, double seconds,
                      Tracer* tracer, std::int64_t pass, std::int64_t& request_id,
                      Result& out) {
  struct Request {
    std::size_t pattern;
    int set;
    Clock::time_point due;
    std::int64_t id;
  };
  std::mutex mutex;
  std::deque<Request> queue;  // guarded by mutex
  std::atomic<std::size_t> pending{0};
  std::atomic<bool> closing{false};
  PhaseResult phase;
  std::vector<std::vector<Sample>> per_worker(kWorkers);
  std::mutex fail_mutex;

  const auto worker = [&](int w) {
    ScopedSpan::set_thread(w + 1);
    std::vector<speck::value_t> buf;
    while (true) {
      // Workers and the generator spin instead of blocking: on a virtual
      // machine a futex wake-up or timed sleep can take milliseconds, which
      // would swamp the latencies being measured.
      Request req;
      {
        if (pending.load(std::memory_order_acquire) == 0) {
          if (closing.load(std::memory_order_acquire) &&
              pending.load(std::memory_order_acquire) == 0) {
            return;
          }
          continue;
        }
        const std::lock_guard<std::mutex> lock(mutex);
        if (queue.empty()) continue;
        req = queue.front();
        queue.pop_front();
        pending.fetch_sub(1, std::memory_order_release);
      }
      Pattern& p = s.pool[req.pattern];
      const auto start = Clock::now();
      const speck::SpeckService::Response resp =
          s.service->multiply_into(p.a[req.set], p.b[req.set], buf);
      const auto done = Clock::now();
      Sample smp;
      const auto us = [](auto d) { return std::chrono::duration<double, std::micro>(d).count(); };
      smp.latency_us = us(done - req.due);
      smp.queue_us = us(start - req.due);
      smp.service_us = us(done - start);
      smp.sim_s = resp.seconds;
      smp.products = p.products;
      smp.replayed = resp.replayed;
      smp.ok = resp.ok() && values_equal(buf, p.want[req.set]);
      per_worker[static_cast<std::size_t>(w)].push_back(smp);
      if (tracer != nullptr && tracer->enabled()) {
        const auto ns = [&](Clock::time_point t) { return tracer->ns_at(t); };
        Span root{0, 0, "service.request", ns(req.due), ns(done), w + 1, req.id, pass};
        const std::uint64_t root_id = tracer->add(root);
        tracer->add(Span{0, root_id, "service.queue", root.start_ns, ns(start), w + 1,
                         req.id, pass});
        tracer->add(Span{0, root_id, resp.replayed ? "service.hit" : "service.miss",
                         ns(start), root.end_ns, w + 1, req.id, pass});
      }
      if (!smp.ok) {
        const std::lock_guard<std::mutex> lock(fail_mutex);
        out.fail(resp.ok() ? "service: response differs from the Gustavson oracle"
                           : "service: request failed: " + resp.status.message);
      }
    }
  };
  // Generator (thread 0): sends each request at its due time, never
  // waiting for replies, and records its own lateness. It always raises
  // `closing` on exit so the workers drain the queue and stop.
  const auto t0 = Clock::now();
  const auto generator = [&] {
    struct CloseOnExit {
      std::atomic<bool>& closing;
      ~CloseOnExit() { closing.store(true, std::memory_order_release); }
    } close_on_exit{closing};
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    double t = 0.0;
    while (true) {
      const Stream::Next n = stream.next();
      t += n.gap / rate;
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(t));
      if (due >= end) break;
      while (Clock::now() < due) {
      }
      const auto sent = Clock::now();
      phase.lag_us.push_back(std::chrono::duration<double, std::micro>(sent - due).count());
      const std::lock_guard<std::mutex> lock(mutex);
      queue.push_back({n.pattern, n.set, due, request_id++});
      pending.fetch_add(1, std::memory_order_release);
    }
    phase.backlog_at_end = pending.load();
  };
  run_threads(kWorkers + 1, [&](int t) {
    if (t == 0) {
      generator();
    } else {
      worker(t - 1);
    }
  });
  phase.seconds = seconds_since(t0);
  for (auto& v : per_worker) {
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
  }
  out.attempted += phase.samples.size();
  return phase;
}

std::vector<double> pick(const std::vector<Sample>& samples,
                         double Sample::*field, int replayed = -1) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (replayed < 0 || s.replayed == (replayed == 1)) out.push_back(s.*field);
  }
  return out;
}

}  // namespace

void run_service(const Options& opt, Result& out, Tracer& tracer) {
  std::vector<double> setups;
  Setup s = repeated_setup(opt.trace ? 1 : kSetupReps, setups,
                           [&] { return set_up(opt); });
  // References for every (pattern, value set), outside the timed phases.
  for (Pattern& p : s.pool) {
    for (int k = 0; k < kValueSets; ++k) {
      const speck::Csr c = speck::gustavson_spgemm(p.a[k], p.b[k]);
      p.want[k].assign(c.values().begin(), c.values().end());
    }
  }
  Stream stream(opt.seed ^ 0x5e7f1ce5ull, s.pool.size(), s.window);
  std::int64_t request_id = 0;

  if (!opt.trace) {
    const PhaseResult ph =
        run_phase(s, stream, opt.rate, opt.seconds, nullptr, -1, request_id, out);
    double flops = 0.0;
    double busy = 0.0;
    double sim = 0.0;
    for (const Sample& smp : ph.samples) {
      flops += 2.0 * smp.products;
      busy += smp.service_us * 1e-6;
      sim += smp.sim_s;
    }
    const std::vector<double> lat = pick(ph.samples, &Sample::latency_us);
    set_end_to_end(out, setups, flops / busy * 1e-9, flops / sim * 1e-9, lat);
    out.info["offered_rps"] = opt.rate;
    out.info["achieved_rps"] = static_cast<double>(lat.size()) / ph.seconds;
    out.info["hits"] = static_cast<double>(pick(ph.samples, &Sample::service_us, 1).size());
    out.info["backlog_at_end"] = static_cast<double>(ph.backlog_at_end);
    out.info["gen_lag_us_p99"] = percentile(ph.lag_us, 99);
    return;
  }

  // Traced run: the nominal rate untraced, then traced (spans per request:
  // queue wait and the hit/miss call), then the SLO ladder.
  const double nominal_s = opt.seconds * 0.25;
  const PhaseResult plain =
      run_phase(s, stream, opt.rate, nominal_s, nullptr, -1, request_id, out);
  const speck::ServiceStats before = s.service->stats();
  const PhaseResult traced =
      run_phase(s, stream, opt.rate, nominal_s, &tracer, 0, request_id, out);
  const speck::ServiceStats after = s.service->stats();
  const auto delta = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double hits = delta(before.cache.hits, after.cache.hits);
  const double lookups = hits + delta(before.cache.misses, after.cache.misses);
  out.set("plan_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  out.set("plan_cache.insertions", delta(before.cache.insertions, after.cache.insertions),
          "count");
  out.set("plan_cache.evictions", delta(before.cache.evictions, after.cache.evictions),
          "count");
  out.set("plan_cache.rejected_inserts",
          delta(before.cache.rejected_inserts, after.cache.rejected_inserts), "count");
  out.set("service.full_runs", delta(before.full_runs, after.full_runs), "count");
  out.set("service.plans_built", delta(before.plans_built, after.plans_built), "count");
  out.set("service.rejected", delta(before.rejected, after.rejected), "count");
  out.set("service.shed", delta(before.shed, after.shed), "count");
  out.set("service.hit_us_p50", percentile(pick(traced.samples, &Sample::service_us, 1), 50),
          "us");
  out.set("service.hit_us_p99", percentile(pick(traced.samples, &Sample::service_us, 1), 99),
          "us");
  out.set("service.miss_us_p50",
          percentile(pick(traced.samples, &Sample::service_us, 0), 50), "us");
  out.set("service.queue_us_p99", percentile(pick(traced.samples, &Sample::queue_us), 99),
          "us");
  out.set("gen.lag_us_p99", percentile(traced.lag_us, 99), "us");
  out.set("trace.overhead_frac",
          percentile(pick(traced.samples, &Sample::latency_us), 50) /
                  percentile(pick(plain.samples, &Sample::latency_us), 50) -
              1.0,
          "ratio");
  out.info["trace.passes"] = 1;

  // SLO ladder: the highest fixed rate whose p99 stays within the SLO with
  // no backlog left when sending ends; stops at the first failing rung.
  const double rung_s = opt.seconds * 0.5 / static_cast<double>(opt.ladder.size());
  double slo = 0.0;
  for (const double rate : opt.ladder) {
    const PhaseResult rung = run_phase(s, stream, rate, rung_s, nullptr, -1, request_id, out);
    const double p99 = percentile(pick(rung.samples, &Sample::latency_us), 99);
    const bool failed = std::any_of(rung.samples.begin(), rung.samples.end(),
                                    [](const Sample& x) { return !x.ok; });
    const bool backlog = static_cast<double>(rung.backlog_at_end) >
                         std::max(8.0, 0.01 * static_cast<double>(rung.samples.size()));
    out.info["ladder_p99_us@" + std::to_string(static_cast<int>(rate))] = p99;
    if (p99 > kSloUs || failed || backlog) break;
    slo = rate;
  }
  out.set("service.slo_rps", slo, "1/s");
}

}  // namespace perfbench
