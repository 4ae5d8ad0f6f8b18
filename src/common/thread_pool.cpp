#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace speck {
namespace {

/// True while the current thread executes chunks of some pool's job; nested
/// parallel_for calls detect this and run inline.
thread_local bool t_inside_worker = false;

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("SPECK_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1 && value <= 1024) {
      return static_cast<int>(value);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int threads)
    : thread_count_(threads == 0 ? default_thread_count() : threads) {
  SPECK_REQUIRE(thread_count_ >= 1, "thread count must be >= 1 (or 0 for default)");
  workers_.reserve(static_cast<std::size_t>(thread_count_) - 1);
  for (int w = 1; w < thread_count_; ++w) {
    workers_.emplace_back(&ThreadPool::worker_loop, this, w);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_serial(std::size_t n, std::size_t chunk, const RangeFn& fn) {
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    fn(begin, std::min(n, begin + chunk), 0);
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk, const RangeFn& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::size_t total_chunks = (n + chunk - 1) / chunk;
  // The serial path runs the exact same chunk sequence in ascending order;
  // since chunk boundaries never depend on the thread count, both paths
  // produce identical per-slot results.
  if (thread_count_ == 1 || total_chunks == 1 || t_inside_worker) {
    run_serial(n, chunk, fn);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->chunk = chunk;
  job->total_chunks = total_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++generation_;
  }
  work_cv_.notify_all();

  run_chunks(*job, /*worker=*/0);

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return job->chunks_done.load(std::memory_order_acquire) == job->total_chunks;
  });
  job_.reset();
  const std::exception_ptr error = job->error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_chunks(Job& job, int worker) {
  t_inside_worker = true;
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.total_chunks) break;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    try {
      (*job.fn)(begin, end, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.total_chunks) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
  t_inside_worker = false;
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    // A fresh Job object per generation means a straggler holding an old
    // job only ever sees its exhausted cursor and exits immediately — no
    // counter reuse, no ABA.
    if (job) run_chunks(*job, worker);
  }
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>();
  return *g_pool;
}

void set_global_thread_count(int threads) {
  SPECK_REQUIRE(threads >= 0, "thread count must be >= 0 (0 = default)");
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(threads);
}

ThreadPool& serial_pool() {
  // With thread_count() == 1 every parallel_for short-circuits to the
  // lock-free serial path, so concurrent use from many threads is safe.
  static ThreadPool pool(1);
  return pool;
}

}  // namespace speck
