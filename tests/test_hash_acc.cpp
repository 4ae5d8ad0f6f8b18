// Unit tests for the spilling hash accumulators (paper §4.3 global-memory
// fallback), now directly testable.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/prng.h"
#include "speck/hash_acc.h"

namespace speck {
namespace {

/// Inserts `key` and adds insert()'s freshness return to its local row's
/// tally in `fresh` — how the symbolic pass counts a row's NNZ.
void insert_counted(SymbolicHashAccumulator& acc, key64_t key,
                    std::vector<index_t>& fresh) {
  if (acc.insert(key)) ++fresh[static_cast<std::size_t>(key_local_row(key, false))];
}

TEST(SymbolicAcc, CountsDistinctKeysWithoutSpill) {
  SymbolicHashAccumulator acc(64);
  std::vector<index_t> fresh(2, 0);
  for (key64_t k = 1; k <= 20; ++k) {
    const auto c = static_cast<index_t>(k);
    insert_counted(acc, compound_key(0, c, false), fresh);
    insert_counted(acc, compound_key(0, c, false), fresh);  // duplicate
    insert_counted(acc, compound_key(1, c, false), fresh);
  }
  EXPECT_FALSE(acc.spilled());
  const auto counts = acc.row_counts(2, false);
  EXPECT_EQ(counts[0], 20);
  EXPECT_EQ(counts[1], 20);
  EXPECT_EQ(fresh, counts);
  EXPECT_EQ(acc.unique_keys(), 40u);
}

TEST(SymbolicAcc, SpillsWhenFullAndStaysExact) {
  SymbolicHashAccumulator acc(16);
  std::vector<index_t> fresh(1, 0);
  for (index_t c = 1; c <= 100; ++c) {
    insert_counted(acc, compound_key(0, c, false), fresh);
  }
  EXPECT_TRUE(acc.spilled());
  EXPECT_GT(acc.moved_entries(), 0u);
  EXPECT_GT(acc.global_inserts(), 0u);
  const auto counts = acc.row_counts(1, false);
  EXPECT_EQ(counts[0], 100);
  EXPECT_EQ(fresh, counts);
}

TEST(SymbolicAcc, DuplicatesDedupAcrossSpillBoundary) {
  SymbolicHashAccumulator acc(8);
  std::vector<index_t> fresh(1, 0);
  // Insert 1..6 locally, spill on 7..8, then repeat everything.
  for (int round = 0; round < 2; ++round) {
    for (index_t c = 1; c <= 20; ++c) {
      insert_counted(acc, compound_key(0, c, false), fresh);
    }
  }
  EXPECT_EQ(acc.row_counts(1, false)[0], 20);
  EXPECT_EQ(fresh[0], 20);
}

TEST(SymbolicAcc, InsertReportsFreshKeys) {
  // Per local row, the sum of insert()'s returns must equal the map scan of
  // row_counts() and, in total, unique_keys() — with no spill, with a spill
  // the capacity forces, and with one the fault hook forces early. Rows
  // interleave and repeat columns, so duplicates straddle the spill.
  struct Case {
    std::size_t capacity;
    const char* faults;
    bool spills;
  };
  constexpr int kRows = 4;
  for (const Case& c : {Case{1024, "", false}, Case{8, "", true},
                        Case{16, "", true},
                        Case{1024, "hash-overflow-after=8", true}}) {
    SCOPED_TRACE("capacity " + std::to_string(c.capacity) + " faults '" +
                 c.faults + "'");
    const FaultInjector injector(parse_fault_spec(c.faults));
    SymbolicHashAccumulator acc;
    acc.begin_block(c.capacity, &injector);
    Xoshiro256 rng(4242);
    std::vector<index_t> fresh(kRows, 0);
    for (int i = 0; i < 200; ++i) {
      const auto row = static_cast<int>(rng.next_below(kRows));
      const auto col = static_cast<index_t>(rng.next_below(60));
      insert_counted(acc, compound_key(row, col, false), fresh);
    }
    EXPECT_EQ(acc.spilled(), c.spills);
    EXPECT_EQ(fresh, acc.row_counts(kRows, false));
    EXPECT_EQ(static_cast<std::size_t>(std::accumulate(fresh.begin(), fresh.end(), 0)),
              acc.unique_keys());
  }
}

TEST(SymbolicAcc, ProbesCounted) {
  SymbolicHashAccumulator acc(1024);
  for (index_t c = 1; c <= 100; ++c) acc.insert(compound_key(0, c, false));
  EXPECT_GE(acc.probes(), 100u);
}

TEST(NumericAcc, AccumulatesValues) {
  NumericHashAccumulator acc(32);
  acc.accumulate(compound_key(0, 5, false), 1.5);
  acc.accumulate(compound_key(0, 5, false), 2.5);
  acc.accumulate(compound_key(1, 5, false), 1.0);
  const auto entries = acc.extract();
  ASSERT_EQ(entries.size(), 2u);
  double total = 0.0;
  for (const auto& entry : entries) total += entry.value;
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(NumericAcc, SpillPreservesPartialSums) {
  NumericHashAccumulator acc(8);
  // Key 3 accumulates both before and after the spill.
  acc.accumulate(compound_key(0, 3, false), 1.0);
  for (index_t c = 10; c < 30; ++c) acc.accumulate(compound_key(0, c, false), 0.5);
  ASSERT_TRUE(acc.spilled());
  acc.accumulate(compound_key(0, 3, false), 2.0);
  double key3 = 0.0;
  for (const auto& entry : acc.extract()) {
    if (key_column(entry.key, false) == 3) key3 += entry.value;
  }
  EXPECT_DOUBLE_EQ(key3, 3.0);
}

TEST(NumericAcc, ExtractCoversLocalAndGlobal) {
  NumericHashAccumulator acc(8);
  for (index_t c = 0; c < 50; ++c) acc.accumulate(compound_key(0, c + 1, false), 1.0);
  const auto entries = acc.extract();
  EXPECT_EQ(entries.size(), 50u);
}

}  // namespace
}  // namespace speck
