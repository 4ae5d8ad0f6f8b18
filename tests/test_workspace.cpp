// The zero-allocation hot path: FlatSpillMap semantics, epoch-tagged map
// reuse, accumulator begin_block() equivalence, steady-state allocation
// accounting, and the headline guarantee that per-worker workspace reuse
// keeps CSR output, simulated seconds and every PassStats counter
// bit-identical across thread counts — including under forced spill, on a
// skewed power-law input and under estimated planning.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/alloc_counter.h"
#include "common/fault_injection.h"
#include "common/prng.h"
#include "gen/corpus.h"
#include "gen/generators.h"
#include "speck/flat_map.h"
#include "speck/hash_acc.h"
#include "speck/hash_map.h"
#include "speck/kernels_detail.h"
#include "speck/speck.h"
#include "speck/workspace.h"

// The build links bench/counting_alloc.cpp into this test, which makes
// PassStats::hot_path_allocs count real heap allocations.

namespace speck {
namespace {

// ---------------------------------------------------------------------------
// FlatSpillMap

TEST(FlatSpillMap, InsertDeduplicates) {
  FlatSpillMap map;
  EXPECT_TRUE(map.insert(7));
  EXPECT_TRUE(map.insert(9));
  EXPECT_FALSE(map.insert(7));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatSpillMap, AccumulateSumsPerKey) {
  FlatSpillMap map;
  map.accumulate(3, 1.5);
  map.accumulate(5, 2.0);
  map.accumulate(3, 0.5);
  std::vector<std::pair<key64_t, value_t>> entries;
  map.for_each([&](key64_t k, value_t v) { entries.emplace_back(k, v); });
  std::sort(entries.begin(), entries.end());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (std::pair<key64_t, value_t>{3, 2.0}));
  EXPECT_EQ(entries[1], (std::pair<key64_t, value_t>{5, 2.0}));
}

TEST(FlatSpillMap, GrowthKeepsEveryEntry) {
  FlatSpillMap map;
  constexpr key64_t kKeys = 10000;
  for (key64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(map.insert(k * 2654435761ull));
  }
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  std::set<key64_t> seen;
  map.for_each([&](key64_t k, value_t) { seen.insert(k); });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kKeys));
  for (key64_t k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(seen.count(k * 2654435761ull)) << k;
  }
}

TEST(FlatSpillMap, ClearIsReusableAndKeepsStorage) {
  FlatSpillMap map;
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  const std::size_t slots = map.slot_count();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.slot_count(), slots);
  // Old keys are forgotten: inserting them again reports them as new.
  EXPECT_TRUE(map.insert(0));
  EXPECT_TRUE(map.insert(999));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatSpillMap, ClearedMapAllocatesNothing) {
  FlatSpillMap map;
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  map.clear();
  const std::size_t before = detail::alloc_events_now();
  for (key64_t k = 0; k < 1000; ++k) map.insert(k);
  map.clear();
  EXPECT_EQ(detail::alloc_events_now(), before);
}

// ---------------------------------------------------------------------------
// DeviceHashMap epoch reuse

TEST(DeviceHashMapReuse, ReconfigureBehavesLikeFreshMap) {
  // A map that shrank logically (capacity 64 -> 16) must probe exactly like
  // a fresh capacity-16 map even though its storage still holds 64 slots.
  DeviceHashMap reused(64);
  for (key64_t k = 0; k < 40; ++k) reused.insert_key(k * 7);
  reused.reconfigure(16);

  DeviceHashMap fresh(16);
  for (key64_t k = 0; k < 12; ++k) {
    EXPECT_EQ(reused.insert_key(k * 13), fresh.insert_key(k * 13)) << k;
  }
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.size(), fresh.size());
  const auto a = reused.extract();
  const auto b = fresh.extract();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(DeviceHashMapReuse, ResetForgetsContentsInO1) {
  DeviceHashMap map(32);
  for (key64_t k = 0; k < 20; ++k) map.insert_key(k);
  map.reset();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.overflowed());
  // Every old key inserts as new again.
  EXPECT_TRUE(map.insert_key(0));
  EXPECT_TRUE(map.insert_key(19));
}

TEST(DeviceHashMapReuse, ExtractIntoAppendsInSlotOrder) {
  DeviceHashMap map(16);
  map.accumulate(3, 1.0);
  map.accumulate(9, 2.0);
  std::vector<DeviceHashMap::Entry> out;
  map.extract_into(out);
  const auto reference = map.extract();
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, reference[i].key);
    EXPECT_EQ(out[i].value, reference[i].value);
  }
}

// ---------------------------------------------------------------------------
// Accumulator reuse via begin_block()

TEST(AccumulatorReuse, SymbolicReusedMatchesFresh) {
  SymbolicHashAccumulator reused;
  // Dirty the accumulator with a first block, including a spill.
  const FaultSpec spec = parse_fault_spec("hash-overflow-after=8");
  const FaultInjector injector(spec);
  reused.begin_block(64, &injector);
  for (key64_t k = 0; k < 32; ++k) reused.insert(k);
  ASSERT_TRUE(reused.spilled());

  // Second block without faults must match a freshly constructed one.
  reused.begin_block(32, nullptr);
  SymbolicHashAccumulator fresh(32, nullptr);
  std::vector<index_t> reused_new(3, 0);
  for (key64_t k = 0; k < 20; ++k) {
    const key64_t key =
        compound_key(static_cast<int>(k % 3), static_cast<index_t>(k), false);
    const bool is_new = reused.insert(key);
    EXPECT_EQ(is_new, fresh.insert(key)) << k;
    if (is_new) ++reused_new[k % 3];
  }
  EXPECT_EQ(reused_new, reused.row_counts(3, false));
  EXPECT_EQ(reused.spilled(), fresh.spilled());
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.moved_entries(), fresh.moved_entries());
  EXPECT_EQ(reused.global_inserts(), fresh.global_inserts());
  EXPECT_EQ(reused.row_counts(3, false), fresh.row_counts(3, false));
}

TEST(AccumulatorReuse, NumericReusedMatchesFreshUnderSpill) {
  const FaultSpec spec = parse_fault_spec("hash-overflow-after=8");
  const FaultInjector injector(spec);
  NumericHashAccumulator reused;
  reused.begin_block(64, &injector);
  for (key64_t k = 0; k < 32; ++k) reused.accumulate(k, 1.0);
  ASSERT_TRUE(reused.spilled());

  reused.begin_block(64, &injector);
  NumericHashAccumulator fresh(64, &injector);
  for (key64_t k = 0; k < 32; ++k) {
    reused.accumulate(k * 3, 0.5);
    fresh.accumulate(k * 3, 0.5);
  }
  EXPECT_EQ(reused.spilled(), fresh.spilled());
  EXPECT_EQ(reused.probes(), fresh.probes());
  EXPECT_EQ(reused.moved_entries(), fresh.moved_entries());
  EXPECT_EQ(reused.global_inserts(), fresh.global_inserts());
  auto sort_by_key = [](std::vector<DeviceHashMap::Entry> v) {
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return v;
  };
  const auto a = sort_by_key(reused.extract());
  const auto b = sort_by_key(fresh.extract());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(AccumulatorReuse, WarmAccumulatorBlockIsAllocationFree) {
  NumericHashAccumulator acc;
  std::vector<DeviceHashMap::Entry> entries;
  // Warm-up block grows the map storage and the entry buffer.
  acc.begin_block(256, nullptr);
  for (key64_t k = 0; k < 128; ++k) acc.accumulate(k, 1.0);
  acc.extract_into(entries);
  // A same-shape block on the warm accumulator must not allocate at all.
  const std::size_t before = detail::alloc_events_now();
  acc.begin_block(256, nullptr);
  for (key64_t k = 0; k < 128; ++k) acc.accumulate(k, 2.0);
  acc.extract_into(entries);
  EXPECT_EQ(detail::alloc_events_now(), before);
  EXPECT_EQ(entries.size(), 128u);
}

// ---------------------------------------------------------------------------
// Row sort of the numeric extraction (detail::sort_row_entries)

/// `n` entries of one local row with unique columns in
/// [base, base + range] (fewer when the range holds fewer than `n`
/// columns), in random order, each carrying a distinct value.
std::vector<DeviceHashMap::Entry> random_row(std::size_t n, std::uint64_t range,
                                             std::uint64_t base, bool wide,
                                             Xoshiro256& rng) {
  std::set<std::uint64_t> cols;
  const std::uint64_t available = range + 1;
  if (available <= 2 * n) {
    // Dense draw: shuffle the whole range and keep a prefix.
    std::vector<std::uint64_t> all(available);
    for (std::uint64_t c = 0; c < available; ++c) all[c] = base + c;
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.next_below(i)]);
    }
    all.resize(std::min<std::size_t>(n, all.size()));
    cols.insert(all.begin(), all.end());
  } else {
    while (cols.size() < n) cols.insert(base + rng.next_below(available));
  }
  std::vector<DeviceHashMap::Entry> row;
  for (const std::uint64_t c : cols) {
    const auto col = static_cast<index_t>(static_cast<std::uint32_t>(c));
    row.push_back({compound_key(wide ? 7 : 19, col, wide),
                   static_cast<value_t>(row.size()) + 0.25});
  }
  for (std::size_t i = row.size(); i > 1; --i) {
    std::swap(row[i - 1], row[rng.next_below(i)]);
  }
  return row;
}

TEST(RowSort, MatchesStdSortOnUniqueKeys) {
  struct Range {
    std::uint64_t span;
    bool wide;
  };
  KernelWorkspace ws;
  Xoshiro256 rng(2027);
  for (const std::size_t n : {0, 1, 2, 24, 25, 257, 8192}) {
    for (const Range range : {Range{1, false}, Range{1u << 11, false},
                              Range{(1u << 27) - 1, false},
                              Range{0xFFFFFFFFull, true}}) {
      SCOPED_TRACE("n " + std::to_string(n) + " range " +
                   std::to_string(range.span));
      // Keep the columns inside the key's column field: narrow ranges
      // start at a random offset, the full-width ones at 0.
      const std::uint64_t limit = range.wide ? 0xFFFFFFFFull : (1u << 27) - 1;
      const std::uint64_t base = rng.next_below(limit - range.span + 1);
      std::vector<DeviceHashMap::Entry> row =
          random_row(n, range.span, base, range.wide, rng);
      std::vector<DeviceHashMap::Entry> expected = row;
      std::sort(expected.begin(), expected.end(),
                [](const auto& x, const auto& y) { return x.key < y.key; });
      detail::sort_row_entries(row, ws.sort_scratch());
      ASSERT_EQ(row.size(), expected.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        ASSERT_EQ(row[i].key, expected[i].key) << i;
        ASSERT_EQ(row[i].value, expected[i].value) << i;
      }
    }
  }
}

TEST(RowSort, WarmWorkspaceSortsWithoutAllocating) {
  KernelWorkspace ws;
  Xoshiro256 rng(2029);
  const auto longest = random_row(8192, 1u << 20, 0, false, rng);
  const auto shorter = random_row(300, (1u << 27) - 1, 0, false, rng);
  std::vector<DeviceHashMap::Entry> row = longest;
  detail::sort_row_entries(row, ws.sort_scratch());  // warm-up grows scratch
  const std::size_t before = detail::alloc_events_now();
  std::copy(longest.begin(), longest.end(), row.begin());
  detail::sort_row_entries(row, ws.sort_scratch());
  detail::sort_row_entries(std::span(row.data(), shorter.size()),
                           ws.sort_scratch());
  EXPECT_EQ(detail::alloc_events_now(), before);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end(),
                             [](const auto& x, const auto& y) { return x.key < y.key; }));
}

// ---------------------------------------------------------------------------
// Pipeline: steady-state zero allocation and cross-thread bit-identity

struct PipelineRun {
  Csr c;
  double seconds = 0.0;
  SpeckDiagnostics diag;
};

PipelineRun run_pipeline(Speck& speck, const gen::CorpusEntry& entry) {
  SpGemmResult result = speck.multiply(entry.a, entry.b);
  EXPECT_TRUE(result.ok()) << entry.name << ": " << result.failure_reason;
  return PipelineRun{std::move(result.c), result.seconds,
                     speck.last_diagnostics()};
}

void expect_identical(const PipelineRun& serial, const PipelineRun& parallel,
                      const std::string& name, int threads) {
  SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
  ASSERT_EQ(parallel.c.nnz(), serial.c.nnz());
  const auto so = serial.c.row_offsets();
  const auto po = parallel.c.row_offsets();
  ASSERT_TRUE(std::equal(so.begin(), so.end(), po.begin()));
  const auto sc = serial.c.col_indices();
  const auto pc = parallel.c.col_indices();
  ASSERT_TRUE(std::equal(sc.begin(), sc.end(), pc.begin()));
  const auto sv = serial.c.values();
  const auto pv = parallel.c.values();
  for (std::size_t i = 0; i < sv.size(); ++i) {
    ASSERT_EQ(sv[i], pv[i]) << "value " << i;
  }
  EXPECT_EQ(parallel.seconds, serial.seconds);
  // Every container-independent counter must match exactly: the workspace
  // maps replaced node-based containers, and any probe-sequence or spill
  // divergence would show up here. (hot_path_allocs is warm-up dependent
  // and deliberately excluded.)
  for (const bool numeric : {false, true}) {
    const PassStats& s = numeric ? serial.diag.numeric : serial.diag.symbolic;
    const PassStats& p = numeric ? parallel.diag.numeric : parallel.diag.symbolic;
    SCOPED_TRACE(numeric ? "numeric" : "symbolic");
    EXPECT_EQ(p.seconds, s.seconds);
    EXPECT_EQ(p.direct_rows, s.direct_rows);
    EXPECT_EQ(p.dense_rows, s.dense_rows);
    EXPECT_EQ(p.hash_rows, s.hash_rows);
    EXPECT_EQ(p.global_hash_blocks, s.global_hash_blocks);
    EXPECT_EQ(p.global_pool_bytes, s.global_pool_bytes);
    EXPECT_EQ(p.hash_probes, s.hash_probes);
    EXPECT_EQ(p.moved_entries, s.moved_entries);
    EXPECT_EQ(p.global_inserts, s.global_inserts);
  }
  EXPECT_EQ(parallel.diag.radix_sorted_elements,
            serial.diag.radix_sorted_elements);
}

TEST(WorkspacePipeline, BitIdenticalAcrossThreadCountsWithWarmWorkspaces) {
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig serial_cfg;
    serial_cfg.host_threads = 1;
    Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, serial_cfg);
    // Two runs on the same instance: the second uses fully warm workspaces
    // and must be bit-identical to the first (cold) one.
    const PipelineRun cold = run_pipeline(serial_speck, entry);
    const PipelineRun warm = run_pipeline(serial_speck, entry);
    expect_identical(cold, warm, entry.name + " cold-vs-warm", 1);

    for (const int threads : {2, 8}) {
      SpeckConfig cfg;
      cfg.host_threads = threads;
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      expect_identical(cold, run_pipeline(speck, entry), entry.name, threads);
      expect_identical(cold, run_pipeline(speck, entry),
                       entry.name + " warm", threads);
    }
  }
}

TEST(WorkspacePipeline, BitIdenticalAcrossThreadCountsUnderForcedSpill) {
  // hash-overflow-after forces every hash block onto the global spill path,
  // exercising moved_entries/global_inserts; results and counters must still
  // match across thread counts.
  int spilled_blocks = 0;
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig serial_cfg;
    serial_cfg.host_threads = 1;
    // The spilled_blocks tally below counts exact-pipeline global hash
    // blocks; pin exact planning so SPECK_PLANNING=estimated can't zero it.
    serial_cfg.planning = PlanningMode::kExact;
    serial_cfg.faults = parse_fault_spec("hash-overflow-after=16");
    Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, serial_cfg);
    const PipelineRun serial = run_pipeline(serial_speck, entry);
    spilled_blocks += serial.diag.symbolic.global_hash_blocks +
                      serial.diag.numeric.global_hash_blocks;

    for (const int threads : {8}) {
      SpeckConfig cfg;
      cfg.host_threads = threads;
      cfg.planning = PlanningMode::kExact;
      cfg.faults = parse_fault_spec("hash-overflow-after=16");
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
      expect_identical(serial, run_pipeline(speck, entry), entry.name, threads);
      expect_identical(serial, run_pipeline(speck, entry),
                       entry.name + " warm", threads);
    }
  }
  // Trivial corpus entries (identity, empty) never reach 16 keys; the spec
  // must have fired on the real matrices or this test exercised nothing.
  EXPECT_GT(spilled_blocks, 0) << "fault spec did not force any spill";
}

TEST(WorkspacePipeline, SteadyStateBlocksAreAllocationFree) {
  // After one cold multiply the instance's workspaces are warm; from then on
  // every block body must run without any heap allocation, on every further
  // multiply of the same instance (single worker: assignment deterministic).
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    SpeckConfig cfg;
    cfg.host_threads = 1;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    (void)run_pipeline(speck, entry);  // warm-up
    for (int rep = 0; rep < 2; ++rep) {
      const PipelineRun run = run_pipeline(speck, entry);
      EXPECT_EQ(run.diag.symbolic.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
      EXPECT_EQ(run.diag.numeric.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
    }
  }
}

TEST(WorkspacePipeline, NullWorkspacePoolFallbackMatches) {
  // A KernelContext without a workspace pool (external callers of
  // run_symbolic/run_numeric) must produce the same result via the
  // pass-local fallback pool. The public pipeline always sets the pool, so
  // compare a fresh instance (cold pool) with a warm one.
  const auto corpus = gen::test_corpus();
  ASSERT_FALSE(corpus.empty());
  const gen::CorpusEntry& entry = corpus.front();
  SpeckConfig cfg;
  cfg.host_threads = 1;
  Speck warm(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  (void)run_pipeline(warm, entry);
  const PipelineRun warm_run = run_pipeline(warm, entry);
  Speck cold(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
  expect_identical(run_pipeline(cold, entry), warm_run, entry.name, 1);
}

// ---------------------------------------------------------------------------
// Executor schedule independence. The executor is one flat pool (a single
// partition): workers claim fixed chunks from a shared cursor, so which
// worker runs which block changes from run to run and with the thread
// count. The result must not care. The plan cache is off so every multiply
// runs the full pipeline rather than a values-only replay.

SpeckConfig full_pipeline_config(int threads) {
  SpeckConfig cfg;
  cfg.host_threads = threads;
  cfg.plan_cache = false;
  return cfg;
}

/// The worst case for chunk imbalance: one heavy head, a long light tail.
gen::CorpusEntry skewed_power_law() {
  const Csr a = gen::power_law(700, 700, 10, 2.2, 220, 9001);
  return {"power-law", a, a};
}

TEST(PartitionExecutor, BitIdenticalAcrossPartitionsThreadsAndStealing) {
  for (const gen::CorpusEntry& entry : gen::test_corpus()) {
    Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
                       full_pipeline_config(1));
    const PipelineRun serial = run_pipeline(serial_speck, entry);
    for (const int threads : {3, 8}) {
      Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
                  full_pipeline_config(threads));
      expect_identical(serial, run_pipeline(speck, entry), entry.name, threads);
    }
  }
}

TEST(PartitionExecutor, PowerLawSkewBitIdenticalWithStealing) {
  // The heavy head rows pin a few workers while the rest drain the light
  // tail; both the cold and the warm multiply must match the serial run.
  const gen::CorpusEntry entry = skewed_power_law();
  Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
                     full_pipeline_config(1));
  const PipelineRun serial = run_pipeline(serial_speck, entry);
  for (const int threads : {2, 8}) {
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
                full_pipeline_config(threads));
    expect_identical(serial, run_pipeline(speck, entry), "cold", threads);
    expect_identical(serial, run_pipeline(speck, entry), "warm", threads);
  }
}

TEST(PartitionExecutor, EstimatedPlanningBitIdenticalAcrossPartitions) {
  const gen::CorpusEntry entry = skewed_power_law();
  SpeckConfig serial_cfg = full_pipeline_config(1);
  serial_cfg.planning = PlanningMode::kEstimated;
  Speck serial_speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, serial_cfg);
  const PipelineRun serial = run_pipeline(serial_speck, entry);
  for (const int threads : {2, 8}) {
    SpeckConfig cfg = full_pipeline_config(threads);
    cfg.planning = PlanningMode::kEstimated;
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{}, cfg);
    expect_identical(serial, run_pipeline(speck, entry), "estimated", threads);
  }
}

TEST(PartitionExecutor, SteadyStateAllocationFreeWithPartitions) {
  // With the plan cache off every multiply reruns the full pipeline, so
  // this checks the symbolic and numeric blocks themselves (not a replay)
  // stay allocation-free once warm, including on the skewed input. Single
  // worker: the block-to-workspace assignment is deterministic.
  std::vector<gen::CorpusEntry> inputs = gen::test_corpus();
  inputs.push_back(skewed_power_law());
  for (const gen::CorpusEntry& entry : inputs) {
    Speck speck(sim::DeviceSpec::titan_v(), sim::CostModel{},
                full_pipeline_config(1));
    (void)run_pipeline(speck, entry);  // warm-up
    for (int rep = 0; rep < 2; ++rep) {
      const PipelineRun run = run_pipeline(speck, entry);
      EXPECT_EQ(run.diag.symbolic.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
      EXPECT_EQ(run.diag.numeric.hot_path_allocs, 0u)
          << entry.name << " rep " << rep;
    }
  }
}

TEST(WorkspacePool, EnsureGrowsAndKeepsAddressesStable) {
  WorkspacePool pool;
  pool.ensure(2);
  ASSERT_EQ(pool.size(), 2);
  KernelWorkspace* first = &pool.at(0);
  first->entries().resize(128);
  pool.ensure(8);
  EXPECT_EQ(pool.size(), 8);
  EXPECT_EQ(&pool.at(0), first);           // stable across growth
  EXPECT_EQ(pool.at(0).entries().size(), 128u);  // warm state survives
  pool.ensure(4);
  EXPECT_EQ(pool.size(), 8);  // never shrinks
}

}  // namespace
}  // namespace speck
