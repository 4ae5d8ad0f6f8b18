// Sharded LRU plan cache: the multi-slot successor of the single-slot
// transparent cache, shared by many client threads.
//
// Plans are keyed by their *full* structural fingerprint (dims, nnz,
// planning-config hash and both pattern hashes), so two structures that
// collide on the O(1) quick fields — same shapes, same nnz, same config —
// still occupy distinct entries and can never serve each other's pattern.
// Entries are immutable `shared_ptr<const SpeckPlan>`: a hit hands the
// caller a reference that stays valid through its replay even if the entry
// is concurrently evicted, which is what makes the replay path lock-free
// (the only lock held is the shard mutex, for the duration of a map lookup
// and an O(1) intrusive-LRU splice — never across a multiply).
//
// Sharding follows the partition-local-memory lesson of thread-scalable
// SpGEMM (Deveci et al.): the key hash selects one of `shards` independent
// sub-caches, each with its own mutex, hash index and intrusive LRU list,
// so concurrent clients touching different patterns never contend. Byte
// accounting is global (one atomic) against `limit_bytes`; an insert that
// pushes the total over the limit evicts from its *own* shard's LRU tail
// first and, if the shard is drained and the total still exceeds the limit,
// the insert is rejected (counted, never fatal — the caller keeps its plan,
// it just is not retained).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "speck/plan.h"

namespace speck {

/// 64-bit key hash of a full fingerprint. Requires the pattern hashes to be
/// computed (plan_fingerprint with `with_pattern_hashes == true`); hashing a
/// quick-only fingerprint would alias every same-shape structure.
std::uint64_t plan_key_hash(const PlanFingerprint& fp);

/// Point-in-time counter snapshot (monotonic except bytes/entries).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts dropped because the plan could not fit the byte budget even
  /// after draining its shard (or was incomplete).
  std::uint64_t rejected_inserts = 0;
  std::size_t bytes = 0;
  std::size_t entries = 0;
};

class PlanCache {
 public:
  /// `shards` >= 1 independent sub-caches; `limit_bytes` is the global byte
  /// budget across all of them (SpeckPlan::byte_size accounting).
  PlanCache(int shards, std::size_t limit_bytes);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The cached plan whose fingerprint full-matches `fp` (moved to the head
  /// of its shard's LRU), or null. Thread-safe.
  std::shared_ptr<const SpeckPlan> find(const PlanFingerprint& fp);

  /// Caches `plan` under its own fingerprint, evicting least-recently-used
  /// entries of the same shard while the global byte total exceeds the
  /// limit. Returns the plan that ended up (or already was) cached for this
  /// fingerprint — on an insert race the first writer wins and every caller
  /// converges on one shared instance; on rejection (incomplete plan, or a
  /// plan that cannot fit the budget) the input plan is returned unscathed
  /// so the caller can still replay it. Thread-safe.
  std::shared_ptr<const SpeckPlan> insert(std::shared_ptr<const SpeckPlan> plan);

  /// Drops every entry (stats counters are retained).
  void clear();

  /// Evicts up to `max_entries` least-recently-used entries (walking the
  /// shards in order, draining each shard's LRU tail), counting them as
  /// evictions. Returns the number actually evicted. Thread-safe; the
  /// chaos eviction-storm fault uses it to force replan churn.
  std::size_t evict(std::size_t max_entries);

  PlanCacheStats stats() const;
  std::size_t bytes() const { return total_bytes_.load(std::memory_order_relaxed); }
  std::size_t entries() const;
  std::size_t limit_bytes() const { return limit_bytes_; }

 private:
  struct Entry {
    PlanFingerprint key;
    std::shared_ptr<const SpeckPlan> plan;
    std::size_t bytes = 0;
    /// Intrusive LRU links within the owning shard (head = most recent).
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Key-hash index; full-fingerprint equality disambiguates the (already
    /// astronomically unlikely) 64-bit hash collisions.
    std::unordered_multimap<std::uint64_t, std::unique_ptr<Entry>> index;
    Entry* lru_head = nullptr;
    Entry* lru_tail = nullptr;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected_inserts = 0;
  };

  Shard& shard_for(std::uint64_t key_hash) {
    return *shards_[static_cast<std::size_t>(key_hash % shards_.size())];
  }

  // LRU helpers; the caller holds the shard mutex.
  static void lru_unlink(Shard& shard, Entry* entry);
  static void lru_push_front(Shard& shard, Entry* entry);
  /// Erases the shard's LRU tail entry; the caller holds the shard mutex.
  void evict_tail(Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t limit_bytes_;
  std::atomic<std::size_t> total_bytes_{0};
};

}  // namespace speck
