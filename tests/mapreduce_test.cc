// Tests for the in-memory MapReduce engine: Hadoop-like semantics,
// combiner correctness, counters, and determinism across pools and
// partitionings.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/counters.h"
#include "mapreduce/job.h"
#include "mapreduce/partition.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace kmeansll::mapreduce {
namespace {

// The canonical example: word count over string partitions.
struct WordCount {
  std::string word;
  int64_t count;
};

std::vector<WordCount> RunWordCount(ThreadPool* pool,
                                    const std::vector<std::string>& docs,
                                    bool with_combiner,
                                    Counters* counters = nullptr) {
  Job<std::string, std::string, int64_t, WordCount> job;
  job.WithMap([](int64_t, const std::string& doc,
                 Emitter<std::string, int64_t>* out) {
    std::string word;
    for (char c : doc + " ") {
      if (c == ' ') {
        if (!word.empty()) out->Emit(word, 1);
        word.clear();
      } else {
        word.push_back(c);
      }
    }
  });
  if (with_combiner) {
    job.WithCombine([](const int64_t& a, const int64_t& b) { return a + b; });
  }
  job.WithReduce([](const std::string& word, std::vector<int64_t>& counts) {
    int64_t total = 0;
    for (int64_t c : counts) total += c;
    return WordCount{word, total};
  });
  job.WithCounters(counters);
  return job.Run(pool, docs);
}

const std::vector<std::string> kDocs = {
    "the quick brown fox", "the lazy dog", "the fox jumps over the dog"};

void ExpectWordCounts(const std::vector<WordCount>& results) {
  std::map<std::string, int64_t> counts;
  for (const auto& wc : results) counts[wc.word] = wc.count;
  EXPECT_EQ(counts["the"], 4);
  EXPECT_EQ(counts["fox"], 2);
  EXPECT_EQ(counts["dog"], 2);
  EXPECT_EQ(counts["quick"], 1);
  EXPECT_EQ(counts.size(), 8u);
}

TEST(MapReduceTest, WordCountInline) {
  ExpectWordCounts(RunWordCount(nullptr, kDocs, false));
}

TEST(MapReduceTest, WordCountOnPool) {
  ThreadPool pool(4);
  ExpectWordCounts(RunWordCount(&pool, kDocs, false));
}

TEST(MapReduceTest, CombinerDoesNotChangeResults) {
  ThreadPool pool(2);
  auto without = RunWordCount(&pool, kDocs, false);
  auto with = RunWordCount(&pool, kDocs, true);
  ASSERT_EQ(without.size(), with.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(without[i].word, with[i].word);  // key-order output
    EXPECT_EQ(without[i].count, with[i].count);
  }
}

TEST(MapReduceTest, OutputIsInKeyOrder) {
  auto results = RunWordCount(nullptr, kDocs, true);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i - 1].word, results[i].word);
  }
}

TEST(MapReduceTest, CountersTrackPhases) {
  Counters counters;
  RunWordCount(nullptr, kDocs, true, &counters);
  EXPECT_EQ(counters.Get(kCounterJobs), 1);
  EXPECT_EQ(counters.Get(kCounterMapTasks), 3);
  EXPECT_EQ(counters.Get(kCounterMapOutputPairs), 13);  // 13 words total
  EXPECT_EQ(counters.Get(kCounterReduceGroups), 8);
  // Combiner collapses duplicate words within each doc.
  EXPECT_LE(counters.Get(kCounterCombineOutputPairs),
            counters.Get(kCounterMapOutputPairs));
}

TEST(MapReduceTest, EmptyPartitionListYieldsNoOutput) {
  auto results = RunWordCount(nullptr, {}, true);
  EXPECT_TRUE(results.empty());
}

TEST(MapReduceTest, MapTaskSeesPartitionId) {
  Job<int, int64_t, int64_t, int64_t> job;
  job.WithMap([](int64_t id, const int& value,
                 Emitter<int64_t, int64_t>* out) {
       out->Emit(id, value);
     })
      .WithReduce([](const int64_t& key, std::vector<int64_t>& values) {
        EXPECT_EQ(values.size(), 1u);
        return key * 100 + values[0];
      });
  auto results = job.Run(nullptr, {7, 8, 9});
  EXPECT_EQ(results, (std::vector<int64_t>{7, 108, 209}));
}

TEST(MapReduceTest, DeterministicAcrossThreadCountsAndRuns) {
  // Numeric aggregation where nondeterministic ordering would show up in
  // floating-point results: identical output required for 1..4 threads.
  auto run = [](ThreadPool* pool) {
    std::vector<std::vector<double>> partitions;
    uint64_t state = 12345;
    for (int p = 0; p < 16; ++p) {
      std::vector<double> part;
      for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        part.push_back(static_cast<double>(state >> 40) * 1e-3);
      }
      partitions.push_back(std::move(part));
    }
    Job<std::vector<double>, int, double, double> job;
    job.WithMap([](int64_t, const std::vector<double>& part,
                   Emitter<int, double>* out) {
         double sum = 0;
         for (double v : part) sum += v;
         out->Emit(0, sum);
       })
        .WithReduce([](const int&, std::vector<double>& values) {
          double total = 0;
          for (double v : values) total += v;
          return total;
        });
    return job.Run(pool, partitions)[0];
  };
  double expected = run(nullptr);
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), expected) << threads << " threads";
  }
}

TEST(CountersTest, AddGetMergeSnapshotClear) {
  Counters a;
  a.Add("x", 5);
  a.Add("x", 2);
  a.Add("y", 1);
  EXPECT_EQ(a.Get("x"), 7);
  EXPECT_EQ(a.Get("missing"), 0);

  Counters b;
  b.Add("x", 3);
  b.Add("z", 4);
  a.Merge(b);
  EXPECT_EQ(a.Get("x"), 10);
  EXPECT_EQ(a.Get("z"), 4);

  auto snap = a.Snapshot();
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.at("y"), 1);

  a.Clear();
  EXPECT_EQ(a.Get("x"), 0);
}

TEST(CountersTest, CopySemantics) {
  Counters a;
  a.Add("n", 2);
  Counters copy(a);
  copy.Add("n", 1);
  EXPECT_EQ(a.Get("n"), 2);
  EXPECT_EQ(copy.Get("n"), 3);
  Counters assigned;
  assigned = copy;
  EXPECT_EQ(assigned.Get("n"), 3);
}

TEST(PartitionTest, MakePartitionsCoversDataset) {
  Dataset data(Matrix(103, 2));
  InMemorySource source = data.AsSource();
  auto parts = MakePartitions(source, 8);
  ASSERT_EQ(parts.size(), 8u);
  int64_t covered = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].source, &source);
    covered += parts[p].size();
    if (p > 0) {
      EXPECT_EQ(parts[p].begin, parts[p - 1].end);
    }
  }
  EXPECT_EQ(covered, 103);
}

}  // namespace
}  // namespace kmeansll::mapreduce
