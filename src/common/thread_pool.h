// Host thread pool for the spECK pipeline.
//
// All host-side parallelism in this repository goes through this pool. The
// design is deliberately work-stealing-free: a `parallel_for` splits the
// index range [0, n) into fixed-size chunks whose boundaries depend only on
// `n` and the chunk size — never on the thread count — and workers claim
// chunks from a single atomic cursor. Because every chunk computes into its
// own preallocated slot (no atomics on results, no reduction races), the
// output of a correctly-written loop body is bit-identical at 1, 2 or 64
// threads. `deterministic_reduce` builds on the same property: per-chunk
// partials are combined serially in chunk order, so floating-point sums are
// reproducible across thread counts.
//
// Thread count resolution order: explicit constructor argument, then the
// `SPECK_THREADS` environment variable, then hardware concurrency. The
// process-wide pool (`global_pool`) can be resized with
// `set_global_thread_count` (used by the `--threads` flag of the tools and
// benchmarks); `SpeckConfig::host_threads` overrides it per algorithm
// instance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace speck {

class ThreadPool {
 public:
  /// Loop body: invoked once per chunk with the half-open index range
  /// [begin, end) and the id of the executing worker in
  /// [0, thread_count()). At most one chunk runs on a given worker id at a
  /// time, so per-worker scratch indexed by `worker` needs no locking.
  using RangeFn = std::function<void(std::size_t begin, std::size_t end, int worker)>;

  /// `threads` == 0 resolves via SPECK_THREADS / hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return thread_count_; }

  /// Runs `fn` over [0, n) in chunks of `chunk` indices. Chunk boundaries
  /// are `[i*chunk, min(n, (i+1)*chunk))` — a pure function of `n` and
  /// `chunk`, so results written per-index or per-chunk are independent of
  /// the thread count. The calling thread participates as worker 0. The
  /// first exception thrown by a chunk is rethrown here after all chunks
  /// finish. Nested calls from inside a worker run the loop inline (the
  /// pipeline never needs nested parallelism; this keeps it safe anyway).
  void parallel_for(std::size_t n, std::size_t chunk, const RangeFn& fn);

 private:
  struct Job {
    const RangeFn* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t total_chunks = 0;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> chunks_done{0};
    std::exception_ptr error;  // first failure; guarded by the pool mutex
  };

  void worker_loop(int worker);
  void run_chunks(Job& job, int worker);
  void run_serial(std::size_t n, std::size_t chunk, const RangeFn& fn);

  int thread_count_;
  std::vector<std::thread> workers_;  // thread_count_ - 1 helper threads

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals a new job / shutdown
  std::condition_variable done_cv_;  // signals job completion
  std::shared_ptr<Job> job_;         // guarded by mutex_
  std::uint64_t generation_ = 0;     // guarded by mutex_
  bool shutdown_ = false;            // guarded by mutex_
};

/// SPECK_THREADS if set to a positive integer, else hardware concurrency
/// (at least 1).
int default_thread_count();

/// The process-wide pool, lazily created with default_thread_count().
ThreadPool& global_pool();

/// Replaces the process-wide pool with one of `threads` threads (0 resets
/// to the default). Not safe while a parallel_for on the old pool runs;
/// call at startup or between runs (the --threads flag does).
void set_global_thread_count(int threads);

/// Resolves a pool pointer: the argument if non-null, else the global pool.
inline ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_pool();
}

/// A process-wide single-threaded pool that is safe to share between
/// concurrently-running callers: with one thread, parallel_for always takes
/// the serial path on the calling thread — no mutex, no job slot, no shared
/// state — so N service threads can all pass this pool to replay kernels at
/// once. (The multi-threaded global_pool() has a single job slot and must
/// not be driven from more than one external thread at a time.)
ThreadPool& serial_pool();

/// Deterministic map-reduce: `per_chunk(begin, end)` computes one partial
/// per fixed chunk (in parallel), then the partials are combined with
/// `combine(acc, partial)` serially in ascending chunk order. The result is
/// identical for every thread count, including floating-point reductions.
template <typename T, typename ChunkFn, typename CombineFn>
T deterministic_reduce(ThreadPool& pool, std::size_t n, std::size_t chunk,
                       T identity, const ChunkFn& per_chunk,
                       const CombineFn& combine) {
  if (chunk == 0) chunk = 1;
  const std::size_t chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;
  std::vector<T> partials(chunks, identity);
  pool.parallel_for(n, chunk, [&](std::size_t begin, std::size_t end, int) {
    partials[begin / chunk] = per_chunk(begin, end);
  });
  T out = identity;
  for (const T& partial : partials) out = combine(out, partial);
  return out;
}

}  // namespace speck
