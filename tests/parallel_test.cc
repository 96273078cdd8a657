// Tests for src/parallel: ThreadPool task execution and the determinism
// guarantees of ParallelFor / ParallelReduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "common/math_util.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace kmeansll {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitMoreWorkBeforeWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    count.fetch_add(1);
    pool.Submit([&] { count.fetch_add(1); });
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, NumThreadsReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(MakeChunksTest, CoverageIsExactAndOrdered) {
  auto chunks = MakeChunks(10, 3);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0);
  EXPECT_EQ(chunks.back().end, 10);
  int64_t covered = 0;
  for (size_t c = 0; c < chunks.size(); ++c) {
    covered += chunks[c].size();
    if (c > 0) {
      EXPECT_EQ(chunks[c].begin, chunks[c - 1].end);
    }
  }
  EXPECT_EQ(covered, 10);
}

TEST(MakeChunksTest, NeverMoreChunksThanItems) {
  EXPECT_EQ(MakeChunks(2, 8).size(), 2u);
  EXPECT_EQ(MakeChunks(0, 8).size(), 0u);
  EXPECT_EQ(MakeChunks(8, 1).size(), 1u);
}

TEST(ParallelForTest, TouchesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t n = 10000;
  std::vector<std::atomic<int>> touched(n);
  for (auto& t : touched) t.store(0);
  ParallelFor(&pool, n, [&](IndexRange r) {
    for (int64_t i = r.begin; i < r.end; ++i) touched[i].fetch_add(1);
  });
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  int64_t sum = 0;
  ParallelFor(nullptr, 100, [&](IndexRange r) {
    for (int64_t i = r.begin; i < r.end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ParallelForTest, SameChunkGridWithOrWithoutPool) {
  for (int64_t n : {1, 63, 64, 10000}) {
    const std::vector<IndexRange> grid = MakeChunks(n, kDeterministicChunks);
    for (int threads : {0, 1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "n " << n << ", " << threads << " threads");
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      std::mutex mu;
      std::vector<IndexRange> seen;
      ParallelFor(pool.get(), n, [&](IndexRange r) {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(r);
      });
      std::sort(seen.begin(), seen.end(), [](IndexRange a, IndexRange b) {
        return a.begin < b.begin;
      });
      ASSERT_EQ(seen.size(), grid.size());
      for (size_t c = 0; c < grid.size(); ++c) {
        EXPECT_EQ(seen[c].begin, grid[c].begin) << "chunk " << c;
        EXPECT_EQ(seen[c].end, grid[c].end) << "chunk " << c;
      }
    }
  }
}

TEST(ParallelForTest, ZeroTotalIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 0, [&](IndexRange) { called = true; });
  EXPECT_FALSE(called);
}

double SumWithPool(ThreadPool* pool, const std::vector<double>& values) {
  return ParallelReduce<KahanSum>(
             pool, static_cast<int64_t>(values.size()), KahanSum(),
             [&](IndexRange r) {
               KahanSum partial;
               for (int64_t i = r.begin; i < r.end; ++i) {
                 partial.Add(values[static_cast<size_t>(i)]);
               }
               return partial;
             },
             [](KahanSum a, KahanSum b) {
               a.Merge(b);
               return a;
             })
      .Total();
}

// Fills with values spanning magnitudes to stress summation order.
void FillWithMixedMagnitudes(std::vector<double>& values) {
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < values.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    values[i] = static_cast<double>(state >> 11) * 1e-6 *
                ((i % 13 == 0) ? 1e8 : 1.0);
  }
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCounts) {
  std::vector<double> values(100000);
  FillWithMixedMagnitudes(values);
  double inline_sum = SumWithPool(nullptr, values);
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(SumWithPool(&pool, values), inline_sum)
        << threads << " threads";
  }
}

TEST(ParallelReduceTest, CombineRunsInChunkOrder) {
  // Reduce to a vector of chunk begins; order must match chunk order.
  ThreadPool pool(4);
  auto begins = ParallelReduce<std::vector<int64_t>>(
      &pool, 1000, {},
      [](IndexRange r) { return std::vector<int64_t>{r.begin}; },
      [](std::vector<int64_t> a, std::vector<int64_t> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
      });
  ASSERT_FALSE(begins.empty());
  EXPECT_TRUE(std::is_sorted(begins.begin(), begins.end()));
  EXPECT_EQ(begins.front(), 0);
}

}  // namespace
}  // namespace kmeansll
