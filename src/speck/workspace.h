// Per-worker-thread kernel workspaces: the zero-allocation hot path.
//
// Every simulated block needs transient state — a scratchpad hash map, a
// spill map, extraction/sort buffers, dense window arrays, load-balancer
// sweep scratch. Constructing those per block made heap traffic the
// dominant host cost and belied the paper's claim that the per-row kernels
// are lean. A KernelWorkspace owns all of it, one workspace per thread-pool
// worker (ThreadPool::parallel_for guarantees at most one chunk per worker
// id at a time, so no locking): every buffer is cleared in O(1) (epoch tags
// on the hash maps, clear() on vectors with retained capacity) and grows
// monotonically, so after a warm-up pass every block executes without a
// single heap allocation.
//
// The pool is owned by the Speck instance and survives across multiplies,
// which is what makes repeated plan-replay/iterative workloads (AMG, Markov
// chains) allocation-free in the steady state. Reuse across thread counts is
// safe: the pool only ever grows, and block-to-worker assignment never
// influences results (chunk boundaries are a pure function of the range).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fault_injection.h"
#include "speck/dense_acc.h"
#include "speck/hash_acc.h"

namespace speck {

/// All transient per-block state for one worker thread. Borrow the members
/// directly; every acquisition clears the buffer but keeps its capacity.
class KernelWorkspace {
 public:
  /// Symbolic accumulator reset for a new block of the given capacity.
  SymbolicHashAccumulator& symbolic_acc(std::size_t capacity,
                                        const FaultInjector* faults,
                                        SimdBackend simd = SimdBackend::kScalar) {
    symbolic_.begin_block(capacity, faults, simd);
    return symbolic_;
  }

  /// Numeric accumulator reset for a new block of the given capacity.
  NumericHashAccumulator& numeric_acc(std::size_t capacity,
                                      const FaultInjector* faults,
                                      SimdBackend simd = SimdBackend::kScalar) {
    numeric_.begin_block(capacity, faults, simd);
    return numeric_;
  }

  /// Masked accumulator reset for a new row/block of the given capacity
  /// (the masked numeric pass pre-seeds mask columns into it).
  MaskedNumericAccumulator& masked_acc(std::size_t capacity,
                                       const FaultInjector* faults,
                                       SimdBackend simd = SimdBackend::kScalar) {
    masked_.begin_block(capacity, faults, simd);
    return masked_;
  }

  /// Raw (key, value) entries extracted from a numeric accumulator.
  std::vector<DeviceHashMap::Entry>& entries() { return entries_; }

  /// Ping-pong buffer of the row sort (detail::sort_row_entries); only ever
  /// grows, so a warm workspace sorts without allocating.
  std::vector<DeviceHashMap::Entry>& sort_scratch() { return sort_scratch_; }

  /// Counting-sort scratch: per-row segment starts and the row-bucketed
  /// entry buffer (replaces the per-block vector-of-vectors bucketing).
  std::vector<std::size_t>& row_starts() { return row_starts_; }
  std::vector<std::size_t>& row_cursors() { return row_cursors_; }
  std::vector<DeviceHashMap::Entry>& bucketed_entries() { return bucketed_; }

  /// Striped counting-sort histogram scratch (numeric bucketing): the
  /// non-primary sub-histograms, merged into row_starts() with
  /// simd::add_u64 after the build.
  std::vector<std::uint64_t>& histogram_stripes() { return histogram_stripes_; }

  /// charge_row_sweep scratch: per-group lockstep iteration counts.
  std::vector<std::size_t>& group_iterations() { return group_iterations_; }

  /// charge_row_sweep's unique-B-row marker: row k of B was already counted
  /// by the current sweep iff b_row_marks()[k] equals the stamp the sweep
  /// got from next_b_row_stamp(). A new stamp invalidates every mark at
  /// once, so the array (sized to B's row count, grown only when a larger
  /// B arrives) is never cleared between sweeps.
  std::uint32_t next_b_row_stamp(std::size_t b_rows) {
    if (b_row_marks_.size() < b_rows) b_row_marks_.resize(b_rows, 0);
    if (++b_row_stamp_ == 0) {
      // Wrapped after 2^32 sweeps: clear the stale marks once.
      std::fill(b_row_marks_.begin(), b_row_marks_.end(), 0u);
      b_row_stamp_ = 1;
    }
    return b_row_stamp_;
  }
  std::uint32_t* b_row_marks() { return b_row_marks_.data(); }

  /// Dense-accumulator window/cursor/output buffers.
  DenseScratch& dense() { return dense_; }

  /// Per-row first-touch bitmap used while building a plan's values-only
  /// replay program (build_replay_program).
  std::vector<std::uint8_t>& replay_seen() { return replay_seen_; }

  /// Column -> local C-row slot scatter map for the same build (sized to
  /// B's column count, deliberately never cleared between rows).
  std::vector<std::uint32_t>& replay_colmap() { return replay_colmap_; }

  /// Output-value staging buffer for service clients replaying a plan into
  /// borrowed storage (SpeckService::multiply_into). Grows monotonically
  /// like every other member, so steady-state replays stay allocation-free.
  std::vector<value_t>& replay_values() { return replay_values_; }

  /// Estimated numeric merge pass: column -> local slot scatter map plus a
  /// one-bit-per-column "seen in this row" bitmap. Both are sized to B's
  /// column count by the caller and never cleared between rows: the bitmap
  /// is all zero between rows because each row clears the bits it set.
  std::vector<std::uint32_t>& estimate_colmap() { return estimate_colmap_; }
  std::vector<std::uint64_t>& estimate_seen() { return estimate_seen_; }

 private:
  SymbolicHashAccumulator symbolic_;
  NumericHashAccumulator numeric_;
  MaskedNumericAccumulator masked_;
  std::vector<DeviceHashMap::Entry> entries_;
  std::vector<DeviceHashMap::Entry> sort_scratch_;
  std::vector<std::size_t> row_starts_;
  std::vector<std::size_t> row_cursors_;
  std::vector<DeviceHashMap::Entry> bucketed_;
  std::vector<std::uint64_t> histogram_stripes_;
  std::vector<std::size_t> group_iterations_;
  std::vector<std::uint32_t> b_row_marks_;
  std::uint32_t b_row_stamp_ = 0;
  DenseScratch dense_;
  std::vector<std::uint8_t> replay_seen_;
  std::vector<std::uint32_t> replay_colmap_;
  std::vector<value_t> replay_values_;
  std::vector<std::uint32_t> estimate_colmap_;
  std::vector<std::uint64_t> estimate_seen_;
};

/// Lazily grown set of workspaces indexed by thread-pool worker id.
/// unique_ptr slots keep workspace addresses stable across growth.
///
/// Two access modes share the pool:
///  - indexed (`ensure` + `at`): one caller drives a parallel_for; worker
///    ids partition the slots, no locking needed — the original hot path.
///  - leased (`lease`): many concurrent service clients each check out a
///    whole workspace RAII-style; a mutex guards only the free-list
///    push/pop, never the workspace use itself. A pool must stick to one
///    mode at a time (the service keeps a dedicated client pool).
class WorkspacePool {
 public:
  /// Exclusive RAII checkout of one workspace; returns it on destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool, KernelWorkspace* ws) : pool_(pool), ws_(ws) {}
    ~Lease() {
      if (pool_ != nullptr) pool_->release(ws_);
    }
    Lease(Lease&& o) noexcept : pool_(o.pool_), ws_(o.ws_) {
      o.pool_ = nullptr;
      o.ws_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    KernelWorkspace& operator*() const { return *ws_; }
    KernelWorkspace* operator->() const { return ws_; }

   private:
    WorkspacePool* pool_;
    KernelWorkspace* ws_;
  };

  /// Guarantees workspaces for worker ids [0, workers). Never shrinks, so
  /// switching between thread counts keeps warm buffers.
  void ensure(int workers);

  /// Workspace of a worker id previously covered by ensure().
  KernelWorkspace& at(int worker) { return *slots_[static_cast<std::size_t>(worker)]; }

  int size() const { return static_cast<int>(slots_.size()); }

  /// Checks out an idle workspace (most-recently-returned first, for warm
  /// buffers), growing the pool when all are busy. Thread-safe.
  Lease lease();

 private:
  void release(KernelWorkspace* ws);

  std::vector<std::unique_ptr<KernelWorkspace>> slots_;
  std::mutex lease_mutex_;
  std::vector<KernelWorkspace*> idle_;  ///< LIFO free list; guarded above
};

}  // namespace speck
