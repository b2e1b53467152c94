// ThreadPool contract tests: chunk-aligned task ordering, exception
// propagation, deterministic ordered reduction, and the nested-submit
// deadlock guard.
#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace {

using dgs::util::ParallelConfig;
using dgs::util::ThreadPool;
using dgs::util::in_parallel_region;
using dgs::util::parallel_for;

TEST(ThreadPool, SerialDefaultSpawnsNoWorkers) {
  ThreadPool pool(ParallelConfig{});
  EXPECT_EQ(pool.concurrency(), 1);
}

TEST(ThreadPool, HardwareConcurrencyResolution) {
  ThreadPool pool(ParallelConfig{.num_threads = 0, .chunk_size = 4});
  EXPECT_GE(pool.concurrency(), 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(ParallelConfig{.num_threads = threads, .chunk_size = 7});
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, ChunksAreAlignedAndTileTheRange) {
  // A 4-lane pool, and no pool at all: util::parallel_for then runs the
  // serial loop in ParallelConfig's default chunk, which is 16 too.
  ThreadPool pool(ParallelConfig{.num_threads = 4, .chunk_size = 16});
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    const std::int64_t n = 205;  // deliberately not a multiple of 16
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    dgs::util::parallel_for(p, n, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lk(mu);
      ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), 13u);  // ceil(205 / 16)
    std::int64_t expect_begin = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, expect_begin);
      EXPECT_EQ(b % 16, 0);
      EXPECT_EQ(e, std::min<std::int64_t>(n, b + 16));
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(ParallelConfig{.num_threads = 4, .chunk_size = 8});
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::int64_t b, std::int64_t) {
                          if (b == 504) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool stays usable after a failed region.
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(100, [&](std::int64_t b, std::int64_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ExceptionOnSerialPathPropagates) {
  ThreadPool pool(ParallelConfig{});  // no workers
  EXPECT_THROW(pool.parallel_for(
                   10, [](std::int64_t, std::int64_t) {
                     throw std::invalid_argument("serial boom");
                   }),
               std::invalid_argument);
}

TEST(ThreadPool, ReduceOrderedIsBitIdenticalAcrossThreadCounts) {
  // A sum whose result depends on association order: catches any
  // implementation that reduces in completion order.
  const std::int64_t n = 10000;
  const auto term = [](std::int64_t i) {
    return std::sin(static_cast<double>(i)) * 1e-3 +
           1.0 / (1.0 + static_cast<double>(i));
  };
  const auto run = [&](int threads) {
    ThreadPool pool(
        ParallelConfig{.num_threads = threads, .chunk_size = 32});
    return pool.reduce_ordered<double>(
        n, 0.0,
        [&](std::int64_t b, std::int64_t e) {
          double s = 0.0;
          for (std::int64_t i = b; i < e; ++i) s += term(i);
          return s;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  const double serial = run(1);
  for (int threads : {2, 4, 8}) {
    const double parallel = run(threads);
    EXPECT_EQ(serial, parallel) << threads << " threads";  // bitwise
  }
}

TEST(ThreadPool, ReduceOrderedPreservesChunkOrder) {
  ThreadPool pool(ParallelConfig{.num_threads = 4, .chunk_size = 10});
  const auto indices = pool.reduce_ordered<std::vector<std::int64_t>>(
      95, {},
      [](std::int64_t b, std::int64_t e) {
        std::vector<std::int64_t> v(static_cast<std::size_t>(e - b));
        std::iota(v.begin(), v.end(), b);
        return v;
      },
      [](std::vector<std::int64_t> acc, std::vector<std::int64_t> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  ASSERT_EQ(indices.size(), 95u);
  for (std::int64_t i = 0; i < 95; ++i) EXPECT_EQ(indices[i], i);
}

TEST(ThreadPool, MapFillsPerIndexOutputs) {
  ThreadPool pool(ParallelConfig{.num_threads = 3, .chunk_size = 5});
  const std::vector<int> out =
      pool.map<int>(100, [](std::int64_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, NestedSubmitRunsInlineWithoutDeadlock) {
  ThreadPool pool(ParallelConfig{.num_threads = 4, .chunk_size = 1});
  std::atomic<std::int64_t> inner_total{0};
  // Each outer chunk issues another parallel_for on the same pool.  Workers
  // must execute the nested region inline; blocking would deadlock (all
  // workers waiting on a job only they could run).
  pool.parallel_for(8, [&](std::int64_t, std::int64_t) {
    pool.parallel_for(50, [&](std::int64_t b, std::int64_t e) {
      inner_total.fetch_add(e - b);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
}

TEST(ThreadPool, InlineRunsMarkTheRegionAndRestoreTheCallersFlag) {
  ThreadPool pool(ParallelConfig{});  // no workers: every run is inline
  EXPECT_FALSE(in_parallel_region());
  bool inside = false;
  bool after_nested = false;
  pool.parallel_for(4, [&](std::int64_t, std::int64_t) {
    inside = in_parallel_region();
    // An inline nested call must not clear the enclosing region's flag.
    parallel_for(nullptr, 1, [](std::int64_t, std::int64_t) {});
    after_nested = in_parallel_region();
  });
  EXPECT_TRUE(inside);
  EXPECT_TRUE(after_nested);
  EXPECT_FALSE(in_parallel_region());
  // A throwing body leaves the driver outside any region.
  EXPECT_THROW(pool.parallel_for(1,
                                 [](std::int64_t, std::int64_t) {
                                   throw std::invalid_argument("boom");
                                 }),
               std::invalid_argument);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ThreadPool, ZeroAndNegativeSizesAreNoOps) {
  ThreadPool pool(ParallelConfig{.num_threads = 2, .chunk_size = 4});
  int calls = 0;
  pool.parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.parallel_for(-5, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
