// perfbench — the spECK-cpp benchmark program.
//
//   perfbench --workload oneshot|reuse|tricount|service --seed N --seconds S
//             --trace 0|1 [--tiny] [--trace-out PATH]
//             [--rate R] [--ladder R1,R2,...]
//
// Generates the workload's inputs from the seed, runs it for the given
// seconds, checks every output against the Gustavson / masked oracles and
// prints one JSON object on the last line of stdout: the metrics (end-to-end
// when untraced, per-layer when traced) with their units, the attempted and
// failed operation counts and sample counts. perfbench/run.py builds and
// drives it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <new>
#include <string>
#include <thread>

#include "bench.h"
#include "common/alloc_counter.h"
#include "common/simd.h"

// Counting allocator: every allocation bumps the thread-local event counter
// the kernels snapshot around their block bodies, so PassStats::
// hot_path_allocs measures the zero-allocation hot path.
void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  ++speck::detail::thread_alloc_events;
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"row_analysis.host_s", "s"},
      {"global_lb.host_s", "s"},
      {"global_lb.runs", "count"},
      {"symbolic_pass.host_s", "s"},
      {"symbolic_pass.hash_probes", "count"},
      {"symbolic_pass.global_hash_blocks", "count"},
      {"numeric_pass.host_s", "s"},
      {"numeric_pass.hash_probes", "count"},
      {"numeric_pass.global_hash_blocks", "count"},
      {"numeric_pass.radix_sorted_elements", "count"},
      {"numeric_pass.rows_direct", "count"},
      {"numeric_pass.rows_dense", "count"},
      {"numeric_pass.rows_hash", "count"},
      {"estimator.host_s", "s"},
      {"estimated_numeric.host_s", "s"},
      {"estimator.fallback_frac", "ratio"},
      {"masked_pass.host_s", "s"},
      {"masked_pass.hash_probes", "count"},
      {"plan.plan_s", "s"},
      {"plan.build_program_s", "s"},
      {"plan.fingerprint_s", "s"},
      {"plan.bytes", "bytes"},
      {"replay.host_s", "s"},
      {"replay.glue_s", "s"},
      {"replay.ops", "count"},
      {"replay.bytes", "bytes"},
      {"replay.gbps", "GB/s"},
      {"replay.roofline_frac", "ratio"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.insertions", "count"},
      {"plan_cache.evictions", "count"},
      {"plan_cache.rejected_inserts", "count"},
      {"service.hit_us_p50", "us"},
      {"service.hit_us_p99", "us"},
      {"service.miss_us_p50", "us"},
      {"service.queue_us_p99", "us"},
      {"service.full_runs", "count"},
      {"service.plans_built", "count"},
      {"service.rejected", "count"},
      {"service.shed", "count"},
      {"service.slo_rps", "1/s"},
      {"sim.analysis_s", "s"},
      {"sim.symbolic_lb_s", "s"},
      {"sim.symbolic_s", "s"},
      {"sim.numeric_lb_s", "s"},
      {"sim.numeric_s", "s"},
      {"sim.sorting_s", "s"},
      {"speck.glue_s", "s"},
      {"thread_pool.speedup_1t", "ratio"},
      {"workspace.hot_path_allocs", "count"},
      {"gen.lag_us_p99", "us"},
      {"mem.stream_gbps", "GB/s"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload oneshot|reuse|tricount|service --seed N "
               "--seconds S --trace 0|1 [--tiny] "
               "[--trace-out PATH] [--rate R] [--ladder R1,R2,...]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The configuration is fixed by the workload, never by the environment.
  for (const char* var :
       {"SPECK_THREADS", "SPECK_SIMD", "SPECK_PLANNING", "SPECK_PARTITIONS"}) {
    unsetenv(var);
  }
  Options opt;
  opt.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (std::strcmp(argv[i], "--workload") == 0) {
      opt.workload = next();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      opt.seconds = std::atof(next());
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = std::atoi(next()) != 0;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      opt.tiny = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opt.trace_out = next();
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      opt.rate = std::atof(next());
    } else if (std::strcmp(argv[i], "--ladder") == 0) {
      const std::string list = next();
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        opt.ladder.push_back(std::atof(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.seconds <= 0.0) return usage(argv[0]);

  Tracer tracer(opt.trace);
  Result result;
  try {
    if (opt.workload == "oneshot") {
      run_oneshot(opt, result, tracer);
    } else if (opt.workload == "reuse") {
      run_reuse(opt, result, tracer);
    } else if (opt.workload == "tricount") {
      run_tricount(opt, result, tracer);
    } else if (opt.workload == "service") {
      if (opt.rate <= 0.0 || opt.ladder.empty()) return usage(argv[0]);
      run_service(opt, result, tracer);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    // Every per-layer metric is printed; a layer the workload bypasses
    // did no work and reads 0.
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
    }
    const std::size_t l3 = l3_bytes();
    const std::size_t stream_bytes = std::max<std::size_t>(4 * l3, 64u << 20);
    const double gbps = stream_triad_gbps(stream_bytes, opt.threads);
    result.set("mem.stream_gbps", gbps, "GB/s");
    result.info["mem.l3_bytes"] = static_cast<double>(l3);
    result.info["mem.stream_array_bytes"] = static_cast<double>(stream_bytes);
    if (gbps > 0.0 && result.metrics["replay.gbps"].value > 0.0) {
      result.set("replay.roofline_frac", result.metrics["replay.gbps"].value / gbps,
                 "ratio");
    }
    if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }

  std::string out = "{\"workload\": \"" + json_escape(opt.workload) + "\"";
  out += ", \"fingerprint\": {\"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"l3_bytes\": " + std::to_string(l3_bytes());
  out += ", \"simd\": \"" +
         std::string(speck::simd::backend_name(
             speck::simd::resolve_backend(speck::SimdBackend::kAuto))) +
         "\"";
  out += ", \"threads\": " + std::to_string(opt.threads);
  out += ", \"partitions\": \"config default, SPECK_PARTITIONS unset\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + json_escape(result.failures[i]) + "\"";
  }
  out += "], \"info\": {";
  bool first = true;
  for (const auto& [name, value] : result.info) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
