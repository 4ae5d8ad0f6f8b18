// Internal helpers shared by the symbolic and numeric pass translation
// units. Not part of the public API.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/alloc_counter.h"
#include "common/bit_utils.h"
#include "common/check.h"
#include "speck/hash_acc.h"
#include "speck/kernels.h"
#include "speck/local_lb.h"
#include "speck/workspace.h"

namespace speck::detail {

/// Blocks per parallel chunk in the symbolic/numeric passes. Fixed — never
/// derived from the thread count — so the chunk boundaries (and with them
/// every per-block result slot) are identical at any parallelism level.
constexpr std::size_t kBlockChunk = 4;

/// Merges the per-block counters of `from` into the pass totals. Seconds
/// and pool bytes are launch-level quantities and are accumulated elsewhere.
inline void merge_pass_counters(PassStats& into, const PassStats& from) {
  into.direct_rows += from.direct_rows;
  into.dense_rows += from.dense_rows;
  into.hash_rows += from.hash_rows;
  into.global_hash_blocks += from.global_hash_blocks;
  into.hash_probes += from.hash_probes;
  into.moved_entries += from.moved_entries;
  into.global_inserts += from.global_inserts;
  into.hot_path_allocs += from.hot_path_allocs;
  into.estimate_underflow_rows += from.estimate_underflow_rows;
}

/// Groups the plan's blocks by kernel configuration in one sweep (the passes
/// used to rescan plan.blocks once per configuration — O(configs x blocks)).
/// Plan order is preserved within each group, which is what keeps the
/// serial cost-commit order — and thus the simulated seconds — unchanged.
inline std::vector<std::vector<const BinPlan::Block*>> blocks_by_config(
    const BinPlan& plan, std::size_t configs) {
  std::vector<std::vector<const BinPlan::Block*>> grouped(configs);
  for (const BinPlan::Block& block : plan.blocks) {
    const auto c = static_cast<std::size_t>(block.config);
    SPECK_ASSERT(c < configs, "block config index out of range");
    grouped[c].push_back(&block);
  }
  return grouped;
}

/// Row statistics for the local load balancer, gathered from the analysis.
inline BlockRowStats block_stats(const KernelContext& ctx, std::span<const index_t> rows) {
  BlockRowStats s;
  for (const index_t r : rows) {
    s.nnz_a += ctx.a->row_length(r);
    s.products += ctx.analysis->products[static_cast<std::size_t>(r)];
    s.max_b_row_len =
        std::max(s.max_b_row_len, ctx.analysis->longest_b_row[static_cast<std::size_t>(r)]);
  }
  return s;
}

/// Charges the cost of sweeping the referenced B rows with groups of g
/// threads (shared by the symbolic, numeric, estimated and masked hash
/// paths). Scratch comes from the worker's workspace, so the sweep is
/// allocation-free after warm-up.
///
/// Compute is charged per *reference* (idle lanes included), but memory is
/// charged per *unique* referenced row of B: spECK's binning keeps
/// neighbouring rows of A in the same block, so their (overlapping, nearby)
/// B rows hit in L1/L2 after the first fetch. This locality is exactly what
/// the paper's ordered binning preserves (§4.2 "Binning").
inline void charge_row_sweep(sim::BlockCost& cost, const KernelContext& ctx,
                      std::span<const index_t> rows, int group_size, bool numeric,
                      KernelWorkspace& ws) {
  // Compute cost: the block's k groups take successive references in order
  // (Fig. 1); the block runs until its *slowest* group finishes, so idle
  // groups (too few references) and oversubscribed groups (g too small for
  // a long row) both show up as lockstep iterations — the effect Fig. 13
  // measures. Weight 10: address calculation, bounds check, compound-key
  // build, hash multiply/modulo and the probe-loop issue per visited
  // element and lane (collision-dependent probe *traffic* is charged
  // separately via smem_atomic).
  const int groups = std::max(1, cost.threads() / group_size);
  std::vector<std::size_t>& group_iterations = ws.group_iterations();
  group_iterations.assign(static_cast<std::size_t>(groups), 0);
  std::size_t next_group = 0;

  // Memory cost: every unique referenced row of B is fetched once per block
  // (spECK's ordered binning keeps neighbouring rows of A together, so their
  // overlapping B rows hit in L1/L2 after the first fetch, §4.2 "Binning").
  // The first reference of a row in this sweep stamps it; later ones see
  // the stamp and add nothing.
  const std::uint32_t stamp =
      ws.next_b_row_stamp(static_cast<std::size_t>(ctx.b->rows()));
  std::uint32_t* marks = ws.b_row_marks();
  std::size_t words = 0;
  std::size_t segments = 0;
  for (const index_t r : rows) {
    const auto a_cols = ctx.a->row_cols(r);
    for (const index_t k : a_cols) {
      const auto len = static_cast<std::size_t>(ctx.b->row_length(k));
      if (len == 0) continue;
      group_iterations[next_group] +=
          ceil_div<std::size_t>(len, static_cast<std::size_t>(group_size));
      next_group = next_group + 1 == static_cast<std::size_t>(groups) ? 0 : next_group + 1;
      std::uint32_t& mark = marks[static_cast<std::size_t>(k)];
      if (mark != stamp) {
        mark = stamp;
        words += len;
        ++segments;
      }
    }
    cost.global_coalesced(a_cols.size());                  // A columns
    if (numeric) cost.global_coalesced64(a_cols.size());   // A values
  }
  const std::size_t critical_iterations =
      *std::max_element(group_iterations.begin(), group_iterations.end());
  cost.lockstep(static_cast<double>(critical_iterations), 10.0);

  const double cache = sim::reuse_cache_factor(*ctx.device, ctx.b->byte_size());
  cost.global_segmented(words * (ctx.wide_keys ? 2 : 1), segments, cache);
  if (numeric) cost.global_segmented(words * 2, segments, cache);
}

/// Rows of at most this many entries are insertion-sorted by
/// sort_row_entries; longer ones are radix-sorted.
constexpr std::size_t kInsertionSortMax = 24;

/// Sorts one row's entries ascending by key, allocation-free once `scratch`
/// has grown to the row length (it only ever grows). The keys of one row
/// share their local-row bits, so key order is column order. Short rows use
/// insertion sort; longer rows an LSD radix sort on `key - min_key` with
/// digits of at most 11 bits, the width chosen per row to minimise
/// passes x (buckets + entries). Both sorts are stable, and the keys of a
/// row are unique anyway, so the bytes equal those of any correct sort.
inline void sort_row_entries(std::span<DeviceHashMap::Entry> row,
                             std::vector<DeviceHashMap::Entry>& scratch) {
  using Entry = DeviceHashMap::Entry;
  const std::size_t n = row.size();
  if (n <= kInsertionSortMax) {
    for (std::size_t i = 1; i < n; ++i) {
      const Entry e = row[i];
      std::size_t j = i;
      for (; j > 0 && row[j - 1].key > e.key; --j) row[j] = row[j - 1];
      row[j] = e;
    }
    return;
  }
  key64_t lo = row[0].key;
  key64_t hi = row[0].key;
  for (const Entry& e : row) {
    lo = std::min(lo, e.key);
    hi = std::max(hi, e.key);
  }
  const int bits = std::bit_width(hi - lo);
  if (bits == 0) return;  // all keys equal

  constexpr int kMaxDigitBits = 11;
  int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  int digit_bits = (bits + passes - 1) / passes;
  const auto work = [n](int p, int d) {
    return static_cast<std::size_t>(p) * ((std::size_t{1} << d) + 4 * n);
  };
  for (int p = passes + 1; p <= bits; ++p) {
    const int d = (bits + p - 1) / p;
    if (work(p, d) >= work(passes, digit_bits)) break;
    passes = p;
    digit_bits = d;
  }

  if (scratch.size() < n) scratch.resize(n);
  std::uint32_t counts[std::size_t{1} << kMaxDigitBits];
  Entry* src = row.data();
  Entry* dst = scratch.data();
  for (int shift = 0; shift < bits; shift += digit_bits) {
    const std::size_t buckets = std::size_t{1} << std::min(digit_bits, bits - shift);
    const key64_t mask = buckets - 1;
    std::fill(counts, counts + buckets, 0u);
    for (std::size_t i = 0; i < n; ++i) ++counts[((src[i].key - lo) >> shift) & mask];
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t c = counts[b];
      counts[b] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[counts[((src[i].key - lo) >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != row.data()) std::copy(src, src + n, row.data());
}

/// Charges hash accumulator activity common to both passes.
template <typename Accumulator>
void charge_hash_activity(sim::BlockCost& cost, const Accumulator& acc,
                          PassStats& stats) {
  cost.smem_atomic(static_cast<double>(acc.probes()));
  stats.hash_probes += acc.probes();
  if (acc.spilled()) {
    ++stats.global_hash_blocks;
    stats.moved_entries += acc.moved_entries();
    stats.global_inserts += acc.global_inserts();
    cost.global_atomic(static_cast<double>(acc.moved_entries()));
    cost.global_atomic(1.5 * static_cast<double>(acc.global_inserts()));
  }
}

/// Shared driver of both passes: runs every block of `plan`, grouped into
/// one simulated launch per kernel configuration. Blocks partition the rows,
/// so each block body writes disjoint output slots plus its own cost /
/// counter / payload slot; costs are committed to the launch (and counters
/// merged, and `commit` called) serially in plan order afterwards, which
/// keeps the simulated schedule — and thus `seconds` — identical to the
/// single-threaded run. Per-block heap allocations are accounted into the
/// block's PassStats (the zero-allocation hot-path metric).
///
/// `run_block(launch, config, config_index, rows, counters, payload, ws)`
/// returns the block's sim::BlockCost; `commit(payload)` runs serially per
/// block (pass Payload = std::monostate and a no-op when not needed).
template <typename Payload, typename RunBlock, typename Commit>
void execute_block_plan(const KernelContext& ctx, const BinPlan& plan,
                        const char* launch_prefix, PassStats& pass_stats,
                        RunBlock&& run_block, Commit&& commit) {
  ThreadPool& pool = pool_or_global(ctx.pool);
  WorkspacePool local_workspaces;
  WorkspacePool* workspaces =
      ctx.workspaces != nullptr ? ctx.workspaces : &local_workspaces;
  workspaces->ensure(pool.thread_count());

  const auto grouped = blocks_by_config(plan, ctx.configs->size());
  for (std::size_t c = 0; c < ctx.configs->size(); ++c) {
    const KernelConfig& config = (*ctx.configs)[c];
    const std::vector<const BinPlan::Block*>& blocks = grouped[c];
    if (blocks.empty()) continue;
    sim::Launch launch(std::string(launch_prefix) + std::to_string(config.threads),
                       *ctx.device, *ctx.model);

    std::vector<std::optional<sim::BlockCost>> costs(blocks.size());
    std::vector<PassStats> block_counters(blocks.size());
    std::vector<Payload> payloads(blocks.size());
    pool.parallel_for(
        blocks.size(), kBlockChunk,
        [&](std::size_t begin, std::size_t end, int worker) {
          KernelWorkspace& ws = workspaces->at(worker);
          for (std::size_t i = begin; i < end; ++i) {
            const std::span<const index_t> rows(
                plan.row_order.data() + blocks[i]->begin,
                blocks[i]->end - blocks[i]->begin);
            const std::size_t allocs_before = alloc_events_now();
            costs[i] = run_block(launch, config, static_cast<int>(c), rows,
                                 block_counters[i], payloads[i], ws);
            block_counters[i].hot_path_allocs +=
                alloc_events_now() - allocs_before;
          }
        });
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      launch.add(*costs[i]);
      merge_pass_counters(pass_stats, block_counters[i]);
      commit(payloads[i]);
    }

    if (launch.block_count() > 0) {
      sim::LaunchResult finished = launch.finish();
      pass_stats.seconds += finished.seconds;
      if (ctx.trace != nullptr) ctx.trace->record(std::move(finished));
    }
  }
}

/// Size of the pre-allocated global hash map pool for rows that may not fit
/// the largest scratchpad map (paper §4.3 "Sparse Rows of C").
inline std::size_t global_pool_bytes(const KernelContext& ctx, const BinPlan& plan,
                              bool symbolic) {
  const KernelConfig& largest = ctx.configs->back();
  const auto capacity = static_cast<offset_t>(
      symbolic ? largest.symbolic_hash_capacity() : largest.numeric_hash_capacity());
  offset_t candidates = 0;
  offset_t worst = 0;
  for (const BinPlan::Block& block : plan.blocks) {
    if (block.config != static_cast<int>(ctx.configs->size()) - 1) continue;
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const index_t row = plan.row_order[i];
      const offset_t products = ctx.analysis->products[static_cast<std::size_t>(row)];
      if (products > capacity) {
        ++candidates;
        worst = std::max(worst, products);
      }
    }
  }
  if (candidates == 0) return 0;
  const int concurrent = ctx.device->num_sms;  // one 96 KB block per SM
  const auto pool_maps = static_cast<std::size_t>(
      std::min<offset_t>(candidates, concurrent));
  const std::size_t entry_bytes =
      symbolic ? sizeof(key32_t) : sizeof(key32_t) + sizeof(value_t);
  return pool_maps * static_cast<std::size_t>(next_pow2(static_cast<std::uint64_t>(worst))) *
         entry_bytes;
}


}  // namespace speck::detail
