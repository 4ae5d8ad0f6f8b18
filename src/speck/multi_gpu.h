// Multi-GPU SpGEMM — the paper's second stated future-work item (§7):
// "shared matrix storage in multi-GPU setups".
//
// The rows of A are partitioned into one contiguous panel per simulated GPU,
// balanced by intermediate-product volume. B is either replicated on every
// device (fast, memory-hungry) or stored once and shared over the
// interconnect (each device owns a vertical slice of B's rows; references to
// remote rows pay interconnect bandwidth). The output panels are
// concatenated on the host side of the simulation.
#pragma once

#include <vector>

#include "ref/spgemm_api.h"
#include "speck/speck.h"

namespace speck {

struct MultiGpuConfig {
  int gpus = 4;
  /// Interconnect bandwidth as a fraction of device memory bandwidth
  /// (NVLink2 vs HBM2 is roughly 1:4).
  double interconnect_bandwidth_fraction = 0.25;
  /// true: every device holds a full copy of B. false: B is stored once,
  /// row-partitioned across devices; remote rows stream over the
  /// interconnect.
  bool replicate_b = true;
  /// Fraction of a panel's time that is memory-bound and thus dilated by
  /// remote access (model constant; SpGEMM on this device model is
  /// bandwidth-dominated).
  double memory_bound_share = 0.6;
  SpeckConfig speck;
};

struct MultiGpuDiagnostics {
  std::vector<double> device_seconds;
  std::vector<offset_t> device_products;
  /// Fraction of B-row references that were remote (0 when replicated).
  double remote_reference_fraction = 0.0;
  /// Panel makespan / sum of panel times — parallel efficiency measure.
  double parallel_efficiency = 0.0;
};

class MultiGpuSpeck final : public SpGemmAlgorithm {
 public:
  MultiGpuSpeck(sim::DeviceSpec device, sim::CostModel model,
                MultiGpuConfig config = {})
      : SpGemmAlgorithm(device, model), config_(config) {
    SPECK_REQUIRE(config_.gpus >= 1, "need at least one GPU");
  }

  std::string name() const override {
    return "speck-multigpu" + std::to_string(config_.gpus);
  }
  SpGemmResult multiply(const Csr& a, const Csr& b) override;

  const MultiGpuConfig& config() const { return config_; }
  MultiGpuConfig& config() { return config_; }
  const MultiGpuDiagnostics& last_diagnostics() const { return diagnostics_; }

 private:
  MultiGpuConfig config_;
  MultiGpuDiagnostics diagnostics_;
};

/// Balanced contiguous partition of rows into `parts` chunks by product
/// volume. Greedy prefix cuts: part p ends at the first row where the
/// running volume reaches total * (p + 1) / parts, and the last part takes
/// every remaining row. Guarantees (asserted by test_multi_gpu):
///  - panels are contiguous, non-overlapping and cover [0, rows) exactly,
///    for every input including rows == 0, all-zero volumes and
///    parts > rows (trailing parts come back empty);
///  - balance bound: each *prefix* of panels overshoots its proportional
///    volume share by less than one row's volume, so any single panel
///    carries at most total/parts plus the two boundary rows' volumes —
///    with one dominating row the panel holding it is (unavoidably) that
///    row plus a bounded remainder.
/// Pure function of (row_products, parts); exposed for tests.
std::vector<std::pair<index_t, index_t>> partition_rows_balanced(
    std::span<const offset_t> row_products, int parts);

}  // namespace speck
