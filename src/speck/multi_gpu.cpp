#include "speck/multi_gpu.h"

#include <algorithm>

#include "speck/partial.h"

namespace speck {

std::vector<std::pair<index_t, index_t>> partition_rows_balanced(
    std::span<const offset_t> row_products, int parts) {
  SPECK_REQUIRE(parts >= 1, "parts must be positive");
  const auto rows = static_cast<index_t>(row_products.size());
  offset_t total = 0;
  for (const offset_t p : row_products) total += p;

  std::vector<std::pair<index_t, index_t>> partition;
  partition.reserve(static_cast<std::size_t>(parts));
  index_t begin = 0;
  offset_t running = 0;
  for (int part = 0; part < parts; ++part) {
    if (part + 1 == parts) {
      // The last part takes every remaining row.
      partition.emplace_back(begin, rows);
      break;
    }
    // Cut where the running product volume reaches this part's prefix share.
    const offset_t target = total * (part + 1) / parts;
    index_t end = begin;
    while (end < rows && running < target) {
      running += row_products[static_cast<std::size_t>(end)];
      ++end;
    }
    partition.emplace_back(begin, end);
    begin = end;
  }
  return partition;
}

SpGemmResult MultiGpuSpeck::multiply(const Csr& a, const Csr& b) {
  SPECK_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  diagnostics_ = MultiGpuDiagnostics{};

  std::vector<offset_t> row_products(static_cast<std::size_t>(a.rows()), 0);
  const auto b_offsets = b.row_offsets();
  for (index_t r = 0; r < a.rows(); ++r) {
    offset_t p = 0;
    for (const index_t k : a.row_cols(r)) {
      p += b_offsets[static_cast<std::size_t>(k) + 1] -
           b_offsets[static_cast<std::size_t>(k)];
    }
    row_products[static_cast<std::size_t>(r)] = p;
  }
  const auto partition = partition_rows_balanced(row_products, config_.gpus);

  // Remote-reference fraction under shared (distributed) B storage: B's rows
  // are split evenly across devices; device d owns rows [d*n/G, (d+1)*n/G).
  offset_t remote_refs = 0;
  offset_t total_refs = 0;
  if (!config_.replicate_b) {
    const auto b_rows = static_cast<std::int64_t>(b.rows());
    for (int device_id = 0; device_id < config_.gpus; ++device_id) {
      const auto [begin, end] = partition[static_cast<std::size_t>(device_id)];
      const std::int64_t own_lo = b_rows * device_id / config_.gpus;
      const std::int64_t own_hi = b_rows * (device_id + 1) / config_.gpus;
      for (index_t r = begin; r < end; ++r) {
        for (const index_t k : a.row_cols(r)) {
          ++total_refs;
          if (k < own_lo || k >= own_hi) ++remote_refs;
        }
      }
    }
  }
  diagnostics_.remote_reference_fraction =
      total_refs > 0 ? static_cast<double>(remote_refs) /
                           static_cast<double>(total_refs)
                     : 0.0;

  SpGemmResult result;
  const std::size_t devices = partition.size();
  std::vector<Csr> panels(devices);
  std::vector<SpGemmResult> panel_results(devices);
  diagnostics_.device_seconds.assign(devices, 0.0);
  diagnostics_.device_products.assign(devices, 0);

  // Panels run concurrently, one indexed slot per device — like every
  // other loop in the repo, results are a pure function of the partition,
  // not of the schedule. Each panel gets its own Speck instance (mutable
  // per-multiply state); the pipeline's nested parallel_for calls run
  // inline on the panel's worker.
  global_pool().parallel_for(
      devices, 1, [&](std::size_t d, std::size_t, int) {
        const auto [begin, end] = partition[d];
        if (begin == end) {
          panels[d] = Csr::zeros(0, b.cols());
          panel_results[d].status = SpGemmStatus::kOk;
          return;
        }
        Speck panel_speck(device_, model_, config_.speck);
        const Csr panel = extract_row_panel(a, begin, end);
        panel_results[d] = panel_speck.multiply(panel, b);
      });

  double makespan = 0.0;
  double total_device_seconds = 0.0;
  std::size_t peak_device_memory = 0;
  for (std::size_t d = 0; d < devices; ++d) {
    const auto [begin, end] = partition[d];
    if (begin == end) continue;
    SpGemmResult& panel_result = panel_results[d];
    if (!panel_result.ok()) {
      result.status = panel_result.status;
      result.failure_reason = panel_result.failure_reason;
      return result;
    }
    double seconds = panel_result.seconds;
    if (!config_.replicate_b && diagnostics_.remote_reference_fraction > 0.0) {
      // Remote rows stream at interconnect bandwidth: dilate the
      // memory-bound share of the panel time accordingly.
      const double dilation =
          1.0 + config_.memory_bound_share * diagnostics_.remote_reference_fraction *
                    (1.0 / config_.interconnect_bandwidth_fraction - 1.0);
      seconds *= dilation;
    }
    offset_t panel_products = 0;
    for (index_t r = begin; r < end; ++r) {
      panel_products += row_products[static_cast<std::size_t>(r)];
    }
    diagnostics_.device_seconds[d] = seconds;
    diagnostics_.device_products[d] = panel_products;
    makespan = std::max(makespan, seconds);
    total_device_seconds += seconds;
    peak_device_memory = std::max(peak_device_memory, panel_result.peak_memory_bytes);
    panels[d] = std::move(panel_result.c);
  }
  diagnostics_.parallel_efficiency =
      makespan > 0.0
          ? total_device_seconds / (makespan * static_cast<double>(config_.gpus))
          : 1.0;

  result.c = concat_row_panels(panels);
  result.seconds = makespan;
  result.timeline.add(sim::Stage::kNumeric, makespan);
  // Per-device peak: panel working set, plus B when replicated (already
  // counted inside the panel run) — report the worst device.
  result.peak_memory_bytes = peak_device_memory;
  return result;
}

}  // namespace speck
