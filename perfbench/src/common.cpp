#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "speck/config.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

template <typename T>
bool bytes_equal(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
}

}  // namespace

bool values_equal(std::span<const speck::value_t> x,
                  std::span<const speck::value_t> y) {
  return bytes_equal(x, y);
}

bool csr_equal(const speck::Csr& x, const speck::Csr& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         bytes_equal(x.row_offsets(), y.row_offsets()) &&
         bytes_equal(x.col_indices(), y.col_indices()) &&
         bytes_equal(x.values(), y.values());
}

bool pass_stats_equal(const speck::PassStats& x, const speck::PassStats& y) {
  return std::memcmp(&x.seconds, &y.seconds, sizeof(double)) == 0 &&
         x.direct_rows == y.direct_rows && x.dense_rows == y.dense_rows &&
         x.hash_rows == y.hash_rows &&
         x.global_hash_blocks == y.global_hash_blocks &&
         x.global_pool_bytes == y.global_pool_bytes &&
         x.hash_probes == y.hash_probes && x.moved_entries == y.moved_entries &&
         x.global_inserts == y.global_inserts &&
         x.estimate_underflow_rows == y.estimate_underflow_rows;
}

bool timeline_equal(const speck::sim::StageTimeline& x,
                    const speck::sim::StageTimeline& y) {
  for (int s = 0; s < speck::sim::kStageCount; ++s) {
    const double a = x.seconds(static_cast<speck::sim::Stage>(s));
    const double b = y.seconds(static_cast<speck::sim::Stage>(s));
    if (std::memcmp(&a, &b, sizeof(double)) != 0) return false;
  }
  return true;
}

speck::SpeckConfig base_config(speck::PlanningMode planning, int host_threads) {
  speck::SpeckConfig cfg;
  cfg.thresholds = speck::reduced_scale_thresholds();
  cfg.planning = planning;
  cfg.host_threads = host_threads;
  cfg.plan_cache = false;
  return cfg;
}

std::unique_ptr<speck::Speck> make_speck(const speck::SpeckConfig& cfg) {
  return std::make_unique<speck::Speck>(speck::sim::DeviceSpec::titan_v(),
                                        speck::sim::CostModel{}, cfg);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

struct ThreadSpanState {
  std::vector<std::uint64_t> stack;
  std::int64_t pass = -1;
  int thread = 0;
};
thread_local ThreadSpanState t_span_state;

}  // namespace

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent, int thread,
                            std::int64_t request, std::int64_t pass) {
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.name = name;
  span.thread = thread;
  span.request = request;
  span.pass = pass;
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  // Spans close in LIFO order per thread, so the open span is near the end.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
}

std::uint64_t Tracer::add(Span span) {
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = spans_;
  std::sort(out.begin(), out.end(),
            [](const Span& x, const Span& y) { return x.id < y.id; });
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"thread\": %d, "
                 "\"request\": %lld, \"pass\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.thread,
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.pass), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::int64_t request,
                       std::uint64_t parent) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  ThreadSpanState& st = t_span_state;
  if (parent == 0 && !st.stack.empty()) parent = st.stack.back();
  id_ = tracer->begin(name, parent, st.thread, request, st.pass);
  st.stack.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  t_span_state.stack.pop_back();
  tracer_->end(id_);
}

void ScopedSpan::set_pass(std::int64_t pass) { t_span_state.pass = pass; }
void ScopedSpan::set_thread(int thread) { t_span_state.thread = thread; }

namespace {

using ChildIndex = std::unordered_map<std::uint64_t, std::vector<const Span*>>;

ChildIndex index_children(const std::vector<Span>& spans) {
  ChildIndex children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  return children;
}

/// Nanoseconds of `s` covered by the union of its children's intervals.
std::int64_t covered_ns(const Span& s, const ChildIndex& children) {
  const auto it = children.find(s.id);
  if (it == children.end()) return 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span* c : it->second) {
    iv.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cur_begin = 0;
  std::int64_t cur_end = -1;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (b > cur_end) {
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_begin) covered += cur_end - cur_begin;
  return covered;
}

}  // namespace

std::map<std::string, std::vector<double>> self_seconds_by_pass(
    const std::vector<Span>& spans, int passes) {
  const ChildIndex children = index_children(spans);
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) {
    if (s.pass < 0 || s.pass >= passes) continue;
    auto& per_pass = out[s.name];
    per_pass.resize(static_cast<std::size_t>(passes), 0.0);
    per_pass[static_cast<std::size_t>(s.pass)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered_ns(s, children)) * 1e-9;
  }
  return out;
}

std::vector<SpanTime> span_times(const std::vector<Span>& spans, const char* name) {
  const ChildIndex children = index_children(spans);
  std::vector<SpanTime> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    out.push_back({s.request, s.pass, static_cast<double>(s.end_ns - s.start_ns) * 1e-9,
                   static_cast<double>(covered_ns(s, children)) * 1e-9});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Memory-bandwidth probe

double stream_triad_gbps(std::size_t bytes, int threads) {
  const std::size_t n = std::max<std::size_t>(bytes / sizeof(double), 1 << 16);
  std::vector<double> a(n), b(n), c(n);
  const auto chunk = [&](int t, auto&& body) {
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(threads);
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(threads);
    body(lo, hi);
  };
  const auto parallel = [&](auto&& body) {
    run_threads(threads, [&](int t) { chunk(t, body); });
  };
  // First touch on the threads that stream the arrays later.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    const double s = seconds_since(t0);
    // Triad moves three arrays: two reads and one write.
    best = std::max(best, 3.0 * static_cast<double>(n * sizeof(double)) / s * 1e-9);
  }
  if (a[n / 2] != 7.0) return 0.0;  // keeps the stores observable
  return best;
}

std::size_t l3_bytes() {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream level(base + "level");
    int lv = 0;
    if (!(level >> lv) || lv != 3) continue;
    std::ifstream size(base + "size");
    std::string text;
    if (!(size >> text) || text.empty()) return 0;
    std::size_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char suffix = text.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    return value;
  }
  return 0;
}

}  // namespace perfbench

namespace perfbench {

void set_layer_times(Result& out, const std::vector<Span>& spans, int passes) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"row_analysis", "row_analysis.host_s"},
      {"global_lb", "global_lb.host_s"},
      {"symbolic_pass", "symbolic_pass.host_s"},
      {"numeric_pass", "numeric_pass.host_s"},
      {"estimator", "estimator.host_s"},
      {"estimated_numeric", "estimated_numeric.host_s"},
      {"masked_pass", "masked_pass.host_s"},
      {"plan.fingerprint", "plan.fingerprint_s"},
      {"plan.build_program", "plan.build_program_s"},
      {"replay.kernel", "replay.host_s"},
  };
  const auto self = self_seconds_by_pass(spans, passes);
  for (const auto& [span, metric] : kLayers) {
    const auto it = self.find(span);
    if (it != self.end()) out.set(metric, median(it->second), "s");
  }
  out.info["trace.passes"] = passes;
  out.info["trace.spans"] = static_cast<double>(spans.size());
}

void set_end_to_end(Result& out, const std::vector<double>& setups, double gflops,
                    double sim_gflops, const std::vector<double>& latencies_us) {
  out.set("setup_s", median(setups), "s");
  out.set("gflops", gflops, "GFLOP/s");
  out.set("sim_gflops", sim_gflops, "GFLOP/s");
  out.set("req_p50_us", percentile(latencies_us, 50), "us");
  out.set("peak_rss_mb", peak_rss_mib(), "MiB");
  out.info["req_p99_us"] = percentile(latencies_us, 99);
  out.info["requests"] = static_cast<double>(latencies_us.size());
}

std::vector<double> input_percentiles(const std::vector<double>& latencies_us,
                                      std::size_t calls) {
  std::vector<double> out;
  for (std::size_t i = 0; i < calls; ++i) {
    std::vector<double> input;
    for (std::size_t k = i; k < latencies_us.size(); k += calls) {
      input.push_back(latencies_us[k]);
    }
    out.push_back(percentile(std::move(input), kCallPercentile));
  }
  return out;
}

void set_end_to_end(Result& out, const std::vector<double>& setups,
                    const ClosedLoop& loop, double sim_gflops) {
  set_end_to_end(out, setups, loop.gflops, sim_gflops, loop.input_us);
  out.info["passes"] = static_cast<double>(loop.pass_gflops.size());
  out.info["requests"] = static_cast<double>(loop.latencies_us.size());
  out.info["gflops_pass_median"] = median(loop.pass_gflops);
  out.info["req_p50_us_all_calls"] = percentile(loop.latencies_us, 50);
  out.info["req_p99_us"] = percentile(loop.latencies_us, 99);
}

void set_sim_metrics(Result& out, const speck::sim::StageTimeline& t) {
  using speck::sim::Stage;
  out.set("sim.analysis_s", t.seconds(Stage::kAnalysis), "s");
  out.set("sim.symbolic_lb_s", t.seconds(Stage::kSymbolicLoadBalance), "s");
  out.set("sim.symbolic_s", t.seconds(Stage::kSymbolic), "s");
  out.set("sim.numeric_lb_s", t.seconds(Stage::kNumericLoadBalance), "s");
  out.set("sim.numeric_s", t.seconds(Stage::kNumeric), "s");
  out.set("sim.sorting_s", t.seconds(Stage::kSorting), "s");
}

void set_pass_counts(Result& out, const speck::PassStats& symbolic,
                     const speck::PassStats& numeric,
                     std::int64_t radix_sorted_elements) {
  const auto count = [&](const char* name, double v) { out.set(name, v, "count"); };
  count("symbolic_pass.hash_probes", static_cast<double>(symbolic.hash_probes));
  count("symbolic_pass.global_hash_blocks", symbolic.global_hash_blocks);
  count("numeric_pass.hash_probes", static_cast<double>(numeric.hash_probes));
  count("numeric_pass.global_hash_blocks", numeric.global_hash_blocks);
  count("numeric_pass.radix_sorted_elements",
        static_cast<double>(radix_sorted_elements));
  count("numeric_pass.rows_direct", static_cast<double>(numeric.direct_rows));
  count("numeric_pass.rows_dense", static_cast<double>(numeric.dense_rows));
  count("numeric_pass.rows_hash", static_cast<double>(numeric.hash_rows));
  count("workspace.hot_path_allocs",
        static_cast<double>(symbolic.hot_path_allocs + numeric.hot_path_allocs));
}

/// Sums the counters of `from` into `into` (simulated seconds included).
void accumulate(speck::PassStats& into, const speck::PassStats& from) {
  into.seconds += from.seconds;
  into.direct_rows += from.direct_rows;
  into.dense_rows += from.dense_rows;
  into.hash_rows += from.hash_rows;
  into.global_hash_blocks += from.global_hash_blocks;
  into.global_pool_bytes += from.global_pool_bytes;
  into.hash_probes += from.hash_probes;
  into.moved_entries += from.moved_entries;
  into.global_inserts += from.global_inserts;
  into.hot_path_allocs += from.hot_path_allocs;
  into.estimate_underflow_rows += from.estimate_underflow_rows;
}

void accumulate(speck::sim::StageTimeline& into,
                const speck::sim::StageTimeline& from) {
  for (int s = 0; s < speck::sim::kStageCount; ++s) {
    const auto stage = static_cast<speck::sim::Stage>(s);
    into.add(stage, from.seconds(stage));
  }
}

}  // namespace perfbench
