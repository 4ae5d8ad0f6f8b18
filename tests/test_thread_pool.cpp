// Unit tests for the host thread pool: chunk coverage, fixed boundaries,
// worker ids, deterministic reduction, exception propagation, thread-count
// resolution, nested calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace speck {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(n, 13, [&](std::size_t begin, std::size_t end, int) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
      }
    }
  }
}

TEST(ThreadPool, ChunkBoundariesDependOnlyOnNAndChunk) {
  // Collect the set of (begin, end) pairs at several thread counts; the
  // determinism guarantee requires them to be identical.
  const std::size_t n = 103;
  const std::size_t chunk = 10;
  auto boundaries = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> out(
        (n + chunk - 1) / chunk);
    pool.parallel_for(n, chunk, [&](std::size_t begin, std::size_t end, int) {
      out[begin / chunk] = {begin, end};
    });
    return out;
  };
  const auto serial = boundaries(1);
  ASSERT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.front(), (std::pair<std::size_t, std::size_t>{0, 10}));
  EXPECT_EQ(serial.back(), (std::pair<std::size_t, std::size_t>{100, 103}));
  EXPECT_EQ(boundaries(2), serial);
  EXPECT_EQ(boundaries(8), serial);
}

TEST(ThreadPool, WorkerIdsAreInRange) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<bool> bad{false};
  pool.parallel_for(256, 1, [&](std::size_t, std::size_t, int worker) {
    if (worker < 0 || worker >= 4) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, CallingThreadParticipatesWhenSerial) {
  ThreadPool pool(1);
  int worker_seen = -1;
  pool.parallel_for(5, 100, [&](std::size_t begin, std::size_t end, int worker) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    worker_seen = worker;
  });
  EXPECT_EQ(worker_seen, 0);
}

TEST(ThreadPool, DeterministicReduceMatchesSerialSum) {
  // A sum whose float rounding depends on association order: identical
  // partial order must give a bit-identical result at any thread count.
  const std::size_t n = 10'000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto reduce_at = [&](int threads) {
    ThreadPool pool(threads);
    return deterministic_reduce<double>(
        pool, n, 97, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += data[i];
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  const double serial = reduce_at(1);
  EXPECT_EQ(reduce_at(2), serial);  // bit-identical, not just NEAR
  EXPECT_EQ(reduce_at(8), serial);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t begin, std::size_t, int) {
                          if (begin == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(10, 1,
                    [&](std::size_t, std::size_t, int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t, int) {
    // Nested call from a worker: must not deadlock, must cover its range.
    pool.parallel_for(8, 2, [&](std::size_t ib, std::size_t ie, int) {
      for (std::size_t i = ib; i < ie; ++i) {
        hits[begin * 8 + i].fetch_add(1);
      }
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroChunkIsTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(7, 0,
                    [&](std::size_t begin, std::size_t end, int) {
                      count.fetch_add(static_cast<int>(end - begin));
                    });
  EXPECT_EQ(count.load(), 7);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvironment) {
  ::setenv("SPECK_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  ::setenv("SPECK_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1);  // falls back to hardware
  ::setenv("SPECK_THREADS", "0", 1);
  EXPECT_GE(default_thread_count(), 1);
  ::unsetenv("SPECK_THREADS");
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ThreadPool, GlobalPoolResizes) {
  set_global_thread_count(3);
  EXPECT_EQ(global_pool().thread_count(), 3);
  EXPECT_EQ(pool_or_global(nullptr).thread_count(), 3);
  ThreadPool local(2);
  EXPECT_EQ(pool_or_global(&local).thread_count(), 2);
  set_global_thread_count(0);  // back to the default
  EXPECT_EQ(global_pool().thread_count(), default_thread_count());
}

TEST(ThreadPool, ManySmallJobsBackToBack) {
  // Regression guard for generation handling: rapid successive jobs must
  // not lose chunks to stale workers.
  ThreadPool pool(4);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::atomic<int> count{0};
    pool.parallel_for(16, 1, [&](std::size_t, std::size_t, int) {
      count.fetch_add(1);
    });
    ASSERT_EQ(count.load(), 16) << "iteration " << iteration;
  }
}

}  // namespace
}  // namespace speck
