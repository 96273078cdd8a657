// Serving-layer tests: CenterIndex queries are bitwise the training-side
// evaluators' answers (AssignBatch ≡ ComputeAssignment at pool null/1/4,
// AssignOne ≡ the scalar reference, AssignTopM ≡ sorted engine
// distances), RequestBatcher answers bitwise like AssignOne and admits,
// sheds and drains exactly, and ModelServer hot swaps are safe and
// consistent under concurrent readers (run under TSan in CI — the reader
// threads deliberately race Acquire against Publish).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clustering/cost.h"
#include "common/fault_injection.h"
#include "common/math_util.h"
#include "core/kmeans.h"
#include "data/model_io.h"
#include "matrix/dataset.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/model_server.h"
#include "serving/server_registry.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using serving::CenterIndex;
using serving::ModelServer;
using serving::RequestBatcher;
using serving::RequestBatcherOptions;
using serving::ServerRegistry;
using serving::TenantOptions;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      m.At(i, j) = scale * rng.NextGaussian();
    }
  }
  return m;
}

// Both kernel regimes: d = 8 keeps the plain kernel, d = 48 crosses the
// kAuto expanded threshold (kExpandedKernelMinDim = 32).
struct Shape {
  int64_t n, k, d;
};
const Shape kShapes[] = {{300, 9, 8}, {257, 21, 48}};

// How long a held query sleeps in its slowed scan. The checks that run
// while it is held take microseconds; the margin absorbs a loaded or
// sanitized run.
constexpr int64_t kHoldUs = 250'000;

// Arms the "batcher.scan" fault site so that the first query to reach
// it sleeps `hold_us` inside its scan (kSlowIo, once) and disarms it
// again on scope exit. While held, that query keeps its pending slot.
class ScanHold {
 public:
  explicit ScanHold(int64_t hold_us = kHoldUs) {
    fault::FaultInjector::Global().Reset();
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kSlowIo;
    rule.nth_call = 1;
    rule.max_triggers = 1;
    rule.slow_io_us = hold_us;
    fault::FaultInjector::Global().Arm("batcher.scan", rule);
  }
  ~ScanHold() { fault::FaultInjector::Global().Reset(); }
  ScanHold(const ScanHold&) = delete;
  ScanHold& operator=(const ScanHold&) = delete;

  // Returns once the held query is inside its slowed scan.
  static void WaitUntilHeld() {
    while (fault::FaultInjector::Global().triggered_count() < 1) {
      std::this_thread::yield();
    }
  }
};

TEST(CenterIndexTest, AssignBatchBitwiseMatchesComputeAssignment) {
  for (const Shape& s : kShapes) {
    Dataset data(RandomMatrix(s.n, s.d, 11 + s.d, 4.0));
    Matrix centers = RandomMatrix(s.k, s.d, 22 + s.d, 4.0);
    auto index = CenterIndex::Build(centers);

    for (int threads : {0, 1, 4}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      Assignment expected = ComputeAssignment(data, centers, pool.get());
      Assignment got = index->AssignBatch(data, pool.get());
      EXPECT_EQ(got.cluster, expected.cluster) << "d=" << s.d
                                               << " pool=" << threads;
      EXPECT_EQ(got.cost, expected.cost);  // bitwise
      // The Predict fast path is the same call.
      Assignment via_predict = Predict(*index, data);
      EXPECT_EQ(via_predict.cluster, expected.cluster);
      EXPECT_EQ(via_predict.cost, expected.cost);
    }
  }
}

TEST(CenterIndexTest, AssignOneMatchesScalarReferenceAndBatch) {
  for (const Shape& s : kShapes) {
    Dataset data(RandomMatrix(s.n, s.d, 33 + s.d, 2.0));
    Matrix centers = RandomMatrix(s.k, s.d, 44 + s.d, 2.0);
    auto index = CenterIndex::Build(centers);
    NearestCenterSearch reference(centers);
    Assignment batch = index->AssignBatch(data);
    for (int64_t i = 0; i < s.n; ++i) {
      NearestResult one = index->AssignOne(data.points().Row(i));
      NearestResult expected = reference.Find(data.points().Row(i));
      EXPECT_EQ(one.index, expected.index);
      EXPECT_EQ(one.distance2, expected.distance2);  // bitwise
      EXPECT_EQ(one.index,
                static_cast<int64_t>(batch.cluster[static_cast<size_t>(i)]));
    }
  }
}

TEST(CenterIndexTest, AssignTopMMatchesSortedReference) {
  const Shape s = kShapes[1];
  Dataset data(RandomMatrix(40, s.d, 55, 3.0));
  Matrix centers = RandomMatrix(s.k, s.d, 66, 3.0);
  auto index = CenterIndex::Build(centers);
  NearestCenterSearch search(centers);
  search.Freeze();

  for (int64_t i = 0; i < data.n(); ++i) {
    std::vector<double> dense(static_cast<size_t>(s.k));
    search.DistancesRange(data.points(), IndexRange{i, i + 1}, nullptr,
                          dense.data());
    std::vector<int32_t> order(static_cast<size_t>(s.k));
    for (int64_t c = 0; c < s.k; ++c) {
      order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
    }
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return dense[static_cast<size_t>(a)] < dense[static_cast<size_t>(b)];
    });

    std::vector<int32_t> idx;
    std::vector<double> d2;
    const int64_t filled =
        index->AssignTopM(data.points().Row(i), 5, &idx, &d2);
    ASSERT_EQ(filled, 5);
    for (int64_t slot = 0; slot < filled; ++slot) {
      EXPECT_EQ(idx[static_cast<size_t>(slot)],
                order[static_cast<size_t>(slot)]);
      EXPECT_EQ(d2[static_cast<size_t>(slot)],
                dense[static_cast<size_t>(order[static_cast<size_t>(slot)])]);
    }
    // Slot 0 is the AssignOne answer, bitwise.
    NearestResult one = index->AssignOne(data.points().Row(i));
    EXPECT_EQ(static_cast<int64_t>(idx[0]), one.index);
    EXPECT_EQ(d2[0], one.distance2);
  }

  // m beyond k truncates to k.
  std::vector<int32_t> idx;
  std::vector<double> d2;
  EXPECT_EQ(index->AssignTopM(data.points().Row(0), s.k + 7, &idx, &d2),
            s.k);
  EXPECT_EQ(static_cast<int64_t>(idx.size()), s.k);
}

TEST(CenterIndexTest, FromModelServesLikeBuild) {
  Matrix centers = RandomMatrix(7, 40, 77, 2.0);
  Dataset data(RandomMatrix(120, 40, 88, 2.0));
  const std::string path = ScratchPath("serving_model.kmm");

  data::ModelMetadata md;
  md.init_method = "k-means||";
  ASSERT_TRUE(
      data::SaveModel(data::MakeModelArtifact(centers, md), path).ok());
  auto artifact = data::LoadModel(path);
  ASSERT_TRUE(artifact.ok()) << artifact.status();
  auto from_model = CenterIndex::FromModel(*artifact, /*version=*/3);
  ASSERT_TRUE(from_model.ok());

  auto built = CenterIndex::Build(centers);
  Assignment expected = built->AssignBatch(data);
  Assignment got = (*from_model)->AssignBatch(data);
  EXPECT_EQ(got.cluster, expected.cluster);
  EXPECT_EQ(got.cost, expected.cost);  // bitwise
  EXPECT_EQ((*from_model)->version(), 3u);
  EXPECT_EQ((*from_model)->metadata().init_method, "k-means||");
  std::remove(path.c_str());
}

// Pins a source's blocks at multiples of `block` rows, as a sharded
// store pins at shard boundaries, so a tile can span several pins.
class BlockedSource final : public DatasetSource {
 public:
  BlockedSource(const Dataset& data, int64_t block)
      : view_(data.View()), total_weight_(data.TotalWeight()),
        block_(block) {}
  int64_t n() const override { return view_.rows(); }
  int64_t dim() const override { return view_.dim(); }
  bool has_weights() const override { return view_.has_weights(); }
  bool has_labels() const override { return view_.has_labels(); }
  double TotalWeight() const override { return total_weight_; }
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    return PinnedBlock(
        view_.Slice(begin, std::min(end, (begin / block_ + 1) * block_)));
  }

 private:
  DatasetView view_;
  double total_weight_;
  int64_t block_;
};

// Short inputs are evaluated in engine tiles, not chunk by chunk; the
// result must still be bitwise the per-row answers folded on the fixed
// chunk grid. Sizes straddle the AVX-512 block (8 rows), the engine tile
// (64 rows) and the 64 × 64-row threshold where every chunk holds a
// full tile.
TEST(CenterIndexTest, ShortInputsFoldBitwiseOnTheChunkGrid) {
  const int64_t k = 40;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (const int64_t d : {int64_t{8}, int64_t{48}}) {
    const Matrix centers = RandomMatrix(k, d, 500 + d, 3.0);
    const auto flat = CenterIndex::Build(Matrix(centers));
    serving::CenterIndexOptions pruned_options;
    pruned_options.enable_pruning = true;
    pruned_options.min_prune_k = 1;
    const auto pruned = CenterIndex::Build(Matrix(centers), pruned_options);
    ASSERT_TRUE(pruned->pruned());
    for (const int64_t n : {1, 7, 8, 9, 63, 64, 65, 511, 4095, 4096, 4097}) {
      const Matrix points = RandomMatrix(n, d, 600 + n, 3.0);
      // Reference: one-row AssignRange calls, folded with a Kahan loop
      // on MakeChunks(n, 64) and merged in chunk order.
      std::vector<int32_t> ref_index(static_cast<size_t>(n));
      std::vector<double> ref_d2(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        flat->AssignRange(points.view(), IndexRange{i, i + 1},
                          &ref_index[static_cast<size_t>(i)],
                          &ref_d2[static_cast<size_t>(i)]);
      }
      std::vector<double> weights(static_cast<size_t>(n));
      rng::Rng weight_rng(700 + n);
      for (double& w : weights) w = 0.25 + weight_rng.NextDouble() * 4.0;

      for (const bool weighted : {false, true}) {
        const Dataset data =
            weighted ? Dataset::WithWeights(Matrix(points), weights)
                           .ValueOrDie()
                     : Dataset(Matrix(points));
        KahanSum ref_total;
        for (const IndexRange& c : MakeChunks(n, kDeterministicChunks)) {
          KahanSum partial;
          for (int64_t i = c.begin; i < c.end; ++i) {
            partial.Add(data.Weight(i) * ref_d2[static_cast<size_t>(i)]);
          }
          ref_total.Merge(partial);
        }
        const double ref_cost = ref_total.Total();
        const BlockedSource blocked(data, 37);
        for (ThreadPool* pool :
             {static_cast<ThreadPool*>(nullptr), &pool1, &pool4}) {
          SCOPED_TRACE(::testing::Message()
                       << "d=" << d << " n=" << n << " weighted="
                       << weighted << " pool="
                       << (pool == nullptr ? 0 : pool->num_threads()));
          const Assignment via_compute =
              ComputeAssignment(data, centers, pool);
          EXPECT_EQ(via_compute.cluster, ref_index);
          EXPECT_EQ(via_compute.cost, ref_cost);  // bitwise
          EXPECT_EQ(ComputeCost(data, centers, pool), ref_cost);
          for (const CenterIndex* index : {flat.get(), pruned.get()}) {
            const Assignment got = index->AssignBatch(data, pool);
            EXPECT_EQ(got.cluster, ref_index) << "pruned="
                                              << index->pruned();
            EXPECT_EQ(got.cost, ref_cost) << "pruned=" << index->pruned();
            const Assignment split = index->AssignBatch(blocked, pool);
            EXPECT_EQ(split.cluster, ref_index);
            EXPECT_EQ(split.cost, ref_cost);
          }
        }
      }
    }
  }
}

TEST(RequestBatcherTest, BatchedResultsBitwiseMatchUnbatched) {
  const Shape s = kShapes[1];
  Dataset data(RandomMatrix(s.n, s.d, 99, 3.0));
  Matrix centers = RandomMatrix(s.k, s.d, 111, 3.0);
  ModelServer server(CenterIndex::Build(centers));
  auto index = server.Acquire();

  RequestBatcher batcher(&server, RequestBatcherOptions{});

  constexpr int kThreads = 4;
  std::vector<std::vector<NearestResult>> results(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int64_t i = t; i < data.n(); i += kThreads) {
        results[static_cast<size_t>(t)].push_back(
            batcher.Assign(data.points().Row(i)).ValueOrDie());
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    size_t slot = 0;
    for (int64_t i = t; i < data.n(); i += kThreads, ++slot) {
      NearestResult expected = index->AssignOne(data.points().Row(i));
      const NearestResult& got = results[static_cast<size_t>(t)][slot];
      EXPECT_EQ(got.index, expected.index);
      EXPECT_EQ(got.distance2, expected.distance2);  // bitwise
    }
  }

  RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, s.n);
  EXPECT_EQ(stats.batched_points, s.n);
  EXPECT_EQ(stats.batches, s.n);  // one scan per query
  // Defaults disable admission control: everything is admitted/served.
  EXPECT_EQ(stats.served, s.n);
  EXPECT_EQ(stats.shed, 0);
}

TEST(RequestBatcherTest, ShedsAtMaxPendingWithUnavailable) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site to hold a query";
#endif
  const int64_t d = 8;
  Matrix centers = RandomMatrix(4, d, 1212, 2.0);
  ModelServer server(CenterIndex::Build(centers));

  RequestBatcherOptions options;
  options.max_pending = 1;
  RequestBatcher batcher(&server, options);

  Matrix probes = RandomMatrix(2, d, 1313, 2.0);
  // The held query occupies the single pending slot until its slowed
  // scan ends.
  ScanHold hold;
  std::thread held([&] {
    Result<NearestResult> r = batcher.Assign(probes.Row(0));
    ASSERT_TRUE(r.ok());
    NearestResult expected = server.Acquire()->AssignOne(probes.Row(0));
    EXPECT_EQ(r.ValueOrDie().index, expected.index);
    EXPECT_EQ(r.ValueOrDie().distance2, expected.distance2);
  });
  ScanHold::WaitUntilHeld();

  Result<NearestResult> shed = batcher.Assign(probes.Row(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_NE(shed.status().message().find("retry in ~"),
            std::string::npos);
  held.join();

  RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.shed, 1);
}

TEST(RequestBatcherTest, DeadlineAdmissionShedsUnmeetableTarget) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site to slow a scan";
#endif
  Matrix centers = RandomMatrix(4, 8, 1414, 2.0);
  ModelServer server(CenterIndex::Build(centers));

  RequestBatcherOptions options;
  options.max_latency_us = 1000;
  RequestBatcher batcher(&server, options);

  // With no scan seen yet the estimate is free, so the first query is
  // admitted. Its scan is slowed to 20x the target: it is answered late
  // (a deadline miss) and seeds the scan EWMA with that time, so
  // admission can prove the next query's deadline unmeetable.
  Matrix probes = RandomMatrix(2, 8, 1515, 2.0);
  {
    ScanHold hold(20 * options.max_latency_us);
    ASSERT_TRUE(batcher.Assign(probes.Row(0)).ok());
  }
  EXPECT_EQ(batcher.stats().deadline_misses, 1);

  Result<NearestResult> shed = batcher.Assign(probes.Row(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_NE(shed.status().message().find("latency target"),
            std::string::npos);
  EXPECT_EQ(batcher.stats().shed, 1);
  EXPECT_EQ(batcher.stats().served, 1);
}

TEST(RequestBatcherTest, OverloadShedsCleanlyUnderConcurrency) {
  const int64_t d = 16;
  Matrix centers = RandomMatrix(6, d, 1616, 2.0);
  ModelServer server(CenterIndex::Build(centers));
  auto index = server.Acquire();

  RequestBatcherOptions options;
  options.max_pending = 4;
  RequestBatcher batcher(&server, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  Dataset probes(RandomMatrix(64, d, 1717, 2.0));
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> shed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t row = (t * kPerThread + i) % probes.n();
        Result<NearestResult> r = batcher.Assign(probes.points().Row(row));
        if (!r.ok()) {
          // Shed queries fail soft: kUnavailable, never a wrong answer.
          EXPECT_TRUE(r.status().IsUnavailable());
          shed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        NearestResult expected = index->AssignOne(probes.points().Row(row));
        EXPECT_EQ(r.ValueOrDie().index, expected.index);
        EXPECT_EQ(r.ValueOrDie().distance2, expected.distance2);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();

  RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, kThreads * kPerThread);
  EXPECT_EQ(stats.served, served.load());
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.served + stats.shed, stats.queries);
  EXPECT_EQ(stats.batched_points, stats.served);
}

TEST(ModelServerTest, HotSwapIsConsistentUnderConcurrentReaders) {
  const int64_t d = 16;
  Matrix centers_a = RandomMatrix(8, d, 222, 2.0);
  Matrix centers_b = RandomMatrix(12, d, 333, 2.0);
  Dataset probes(RandomMatrix(64, d, 444, 2.0));

  // Expected answers per center set, precomputed single-threaded.
  Assignment expect_a =
      CenterIndex::Build(centers_a)->AssignBatch(probes);
  Assignment expect_b =
      CenterIndex::Build(centers_b)->AssignBatch(probes);

  ModelServer server(CenterIndex::Build(centers_a, /*version=*/0));
  std::atomic<bool> stop{false};

  // Writer: alternate publishing B and A snapshots with increasing
  // versions while readers query.
  std::thread writer([&] {
    uint64_t version = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const Matrix& next = (version % 2 == 1) ? centers_b : centers_a;
      EXPECT_TRUE(server.Publish(CenterIndex::Build(next, version)).ok());
      ++version;
    }
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  std::atomic<int64_t> checks{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      rng::Rng rng(static_cast<uint64_t>(r) + 1);
      for (int iter = 0; iter < 800; ++iter) {
        auto snapshot = server.Acquire();
        // Versions can only move forward for any single reader.
        EXPECT_GE(snapshot->version(), last_version);
        last_version = snapshot->version();
        const auto i = static_cast<int64_t>(rng.NextUInt64() %
                                            static_cast<uint64_t>(
                                                probes.n()));
        NearestResult got = snapshot->AssignOne(probes.points().Row(i));
        const Assignment& expected =
            snapshot->version() % 2 == 1 ? expect_b : expect_a;
        EXPECT_EQ(got.index, static_cast<int64_t>(
                                 expected.cluster[static_cast<size_t>(i)]));
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& rt : readers) rt.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(checks.load(), kReaders * 800);
}

TEST(ModelServerTest, PublishValidates) {
  ModelServer server(CenterIndex::Build(RandomMatrix(4, 8, 555)));
  EXPECT_TRUE(server.Publish(nullptr).IsInvalidArgument());
  // Different k is fine; different dim is not.
  EXPECT_TRUE(server.Publish(CenterIndex::Build(RandomMatrix(9, 8, 556)))
                  .ok());
  EXPECT_TRUE(server.Publish(CenterIndex::Build(RandomMatrix(4, 9, 557)))
                  .IsInvalidArgument());
  EXPECT_EQ(server.Acquire()->k(), 9);

  ModelServer::Stats stats = server.stats();
  EXPECT_EQ(stats.publishes, 1);
  EXPECT_EQ(stats.publish_failed, 2);
}

TEST(ModelServerTest, PublishFromFileSwapsValidArtifact) {
  const int64_t d = 10;
  Matrix centers_a = RandomMatrix(5, d, 1818, 2.0);
  Matrix centers_b = RandomMatrix(7, d, 1919, 2.0);
  ModelServer server(CenterIndex::Build(centers_a, /*version=*/4));

  const std::string path = ScratchPath("publish_ok.kmm");
  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers_b, data::ModelMetadata{}),
                  path)
                  .ok());
  ASSERT_TRUE(server.PublishFromFile(path).ok());
  EXPECT_EQ(server.Acquire()->k(), 7);
  EXPECT_EQ(server.Acquire()->version(), 5u);
  EXPECT_EQ(server.stats().publishes, 1);
  std::remove(path.c_str());
}

TEST(ModelServerTest, CorruptArtifactNeverTearsTheServedSnapshot) {
  const int64_t d = 10;
  Matrix centers_a = RandomMatrix(5, d, 2020, 2.0);
  Matrix centers_b = RandomMatrix(7, d, 2121, 2.0);
  Dataset probes(RandomMatrix(32, d, 2222, 2.0));
  ModelServer server(CenterIndex::Build(centers_a, /*version=*/4));
  Assignment expected = server.Acquire()->AssignBatch(probes);

  const std::string path = ScratchPath("publish_torn.kmm");
  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers_b, data::ModelMetadata{}),
                  path)
                  .ok());
  // Flip one byte mid-file: the artifact still opens but fails its CRC —
  // exactly what an interrupted or bit-rotted write looks like.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 64, SEEK_SET), 0);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
  }

  Status publish = server.PublishFromFile(path);
  EXPECT_FALSE(publish.ok());
  EXPECT_EQ(server.stats().publish_failed, 1);
  EXPECT_EQ(server.stats().publishes, 0);

  // Missing file degrades the same way.
  EXPECT_FALSE(
      server.PublishFromFile(path + ".does_not_exist").ok());
  EXPECT_EQ(server.stats().publish_failed, 2);

  // A dimension-mismatched (but internally valid) artifact is refused
  // by Publish itself.
  const std::string mismatched = ScratchPath("publish_dim.kmm");
  ASSERT_TRUE(data::SaveModel(data::MakeModelArtifact(
                                  RandomMatrix(3, d + 2, 2323, 2.0),
                                  data::ModelMetadata{}),
                              mismatched)
                  .ok());
  EXPECT_TRUE(server.PublishFromFile(mismatched).IsInvalidArgument());
  EXPECT_EQ(server.stats().publish_failed, 3);

  // Through every failed swap the served snapshot stayed whole: same
  // version, same k, bitwise the same answers.
  auto snapshot = server.Acquire();
  EXPECT_EQ(snapshot->version(), 4u);
  EXPECT_EQ(snapshot->k(), 5);
  Assignment got = snapshot->AssignBatch(probes);
  EXPECT_EQ(got.cluster, expected.cluster);
  EXPECT_EQ(got.cost, expected.cost);

  std::remove(path.c_str());
  std::remove(mismatched.c_str());
}

TEST(ModelServerTest, RefineWithMiniBatchPublishesNextVersion) {
  const int64_t d = 12;
  Dataset data(RandomMatrix(500, d, 666, 3.0));
  Matrix seed_centers = RandomMatrix(6, d, 777, 3.0);
  ModelServer server(CenterIndex::Build(seed_centers, /*version=*/7));

  MiniBatchOptions options;
  options.batch_size = 64;
  options.iterations = 20;
  InMemorySource source = data.AsSource();
  ASSERT_TRUE(server.RefineWithMiniBatch(source, options, 42).ok());

  auto refined = server.Acquire();
  EXPECT_EQ(refined->version(), 8u);
  EXPECT_EQ(refined->k(), 6);
  EXPECT_EQ(refined->dim(), d);
  // The refined snapshot serves exactly like a fresh evaluator over its
  // centers.
  Assignment expected = ComputeAssignment(data, refined->centers());
  Assignment got = refined->AssignBatch(data);
  EXPECT_EQ(got.cluster, expected.cluster);
  EXPECT_EQ(got.cost, expected.cost);

  // A refiner that changes the dimension is rejected and publishes
  // nothing.
  EXPECT_TRUE(server
                  .Refine([&](const CenterIndex&) -> Result<Matrix> {
                    return RandomMatrix(6, d + 1, 888);
                  })
                  .IsInvalidArgument());
  EXPECT_EQ(server.Acquire()->version(), 8u);
}

// Shutdown() while a query is held in its scan: the admitted query is
// still answered bitwise (admitted queries are always answered), and
// every later Assign sheds kUnavailable.
TEST(RequestBatcherTest, ShutdownAnswersAdmittedQueryAndShedsLater) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site to hold a query";
#endif
  const int64_t d = 8;
  ModelServer server(CenterIndex::Build(RandomMatrix(4, d, 2020, 2.0)));
  RequestBatcher batcher(&server, RequestBatcherOptions{});

  Matrix probes = RandomMatrix(2, d, 2121, 2.0);
  ScanHold hold;
  std::thread held([&] {
    Result<NearestResult> r = batcher.Assign(probes.Row(0));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const NearestResult expected =
        server.Acquire()->AssignOne(probes.Row(0));
    EXPECT_EQ(r.ValueOrDie().index, expected.index);
    EXPECT_EQ(r.ValueOrDie().distance2, expected.distance2);
  });
  ScanHold::WaitUntilHeld();

  batcher.Shutdown();
  Result<NearestResult> late = batcher.Assign(probes.Row(1));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable());
  held.join();

  const RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.shed, 1);
}

// No query waits for another: while one query sits in a slowed scan, a
// second query to the same batcher is admitted, scanned on its own
// thread and answered before the first returns.
TEST(RequestBatcherTest, NoQueryWaitsForAnother) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site to hold a query";
#endif
  const int64_t d = 8;
  ModelServer server(CenterIndex::Build(RandomMatrix(4, d, 2424, 2.0)));
  RequestBatcher batcher(&server, RequestBatcherOptions{});
  const auto index = server.Acquire();

  Matrix probes = RandomMatrix(2, d, 2525, 2.0);
  ScanHold hold;
  std::atomic<bool> first_returned{false};
  std::thread held([&] {
    ASSERT_TRUE(batcher.Assign(probes.Row(0)).ok());
    first_returned.store(true, std::memory_order_release);
  });
  ScanHold::WaitUntilHeld();

  Result<NearestResult> second = batcher.Assign(probes.Row(1));
  EXPECT_FALSE(first_returned.load(std::memory_order_acquire));
  EXPECT_EQ(batcher.stats().served, 1);  // only the second, so far
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const NearestResult expected = index->AssignOne(probes.Row(1));
  EXPECT_EQ(second.ValueOrDie().index, expected.index);
  EXPECT_EQ(second.ValueOrDie().distance2, expected.distance2);
  held.join();

  const RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.shed, 0);
}

// An injected scan failure reaches its caller only after the query's
// pending slot is retired: with max_pending = 1 the next query is
// admitted and served.
TEST(RequestBatcherTest, InjectedScanFaultReturnsAfterRetiringItsSlot) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site";
#endif
  const int64_t d = 8;
  ModelServer server(CenterIndex::Build(RandomMatrix(4, d, 2626, 2.0)));
  RequestBatcherOptions options;
  options.max_pending = 1;
  RequestBatcher batcher(&server, options);

  fault::FaultInjector::Global().Reset();
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kMapFail;
  rule.nth_call = 1;
  rule.max_triggers = 1;
  fault::FaultInjector::Global().Arm("batcher.scan", rule);
  Matrix probes = RandomMatrix(2, d, 2727, 2.0);
  Result<NearestResult> failed = batcher.Assign(probes.Row(0));
  fault::FaultInjector::Global().Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();

  Result<NearestResult> served = batcher.Assign(probes.Row(1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const NearestResult expected = server.Acquire()->AssignOne(probes.Row(1));
  EXPECT_EQ(served.ValueOrDie().index, expected.index);
  EXPECT_EQ(served.ValueOrDie().distance2, expected.distance2);

  const RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.shed, 0);
}

// The shutdown / drain race stress (run under TSan in CI). It drives
// many short-lived batchers with concurrent callers, a mid-flight
// Shutdown, and immediate destruction — every admitted query must be
// answered bitwise, every post-shutdown query shed, and accounting must
// add up on every iteration.
TEST(RequestBatcherTest, IdleFlushShutdownStressAnswersEveryAdmission) {
  const int64_t d = 8;
  constexpr int kIterations = 25;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  const auto index = CenterIndex::Build(RandomMatrix(5, d, 2222, 2.0));
  const Matrix probes = RandomMatrix(kThreads * kPerThread, d, 2323, 2.0);

  for (int iter = 0; iter < kIterations; ++iter) {
    ModelServer server(index);
    RequestBatcher batcher(&server, RequestBatcherOptions{});

    std::atomic<int64_t> served{0};
    std::atomic<int64_t> shed{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const double* point = probes.Row(t * kPerThread + i);
          Result<NearestResult> r = batcher.Assign(point);
          if (r.ok()) {
            const NearestResult expected = index->AssignOne(point);
            ASSERT_EQ(r.ValueOrDie().index, expected.index);
            ASSERT_EQ(r.ValueOrDie().distance2, expected.distance2);
            served.fetch_add(1, std::memory_order_relaxed);
          } else {
            ASSERT_TRUE(r.status().IsUnavailable());
            shed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // Shut down mid-flight on odd iterations: in-flight admissions must
    // still be answered, later ones shed. Even iterations exercise the
    // destructor draining a batcher that was never shut down.
    threads.emplace_back([&] {
      if (iter % 2 == 1) {
        while (batcher.stats().queries < kThreads * kPerThread / 2) {
          std::this_thread::yield();
        }
        batcher.Shutdown();
      }
    });
    for (auto& th : threads) th.join();

    const RequestBatcher::Stats stats = batcher.stats();
    ASSERT_EQ(stats.queries, int64_t{kThreads} * kPerThread);
    ASSERT_EQ(stats.served, served.load());
    ASSERT_EQ(stats.shed, shed.load());
    ASSERT_EQ(stats.served + stats.shed, stats.queries);
    if (iter % 2 == 0) {
      ASSERT_EQ(stats.shed, 0);
    }
  }
}

// --- Multi-tenant isolation regressions ---------------------------------
//
// The registry's isolation claim, asserted bitwise: driving one tenant
// into admission-control shedding, or publishing to it, must be
// invisible to every other tenant.

// Tenant "hot" is overloaded (single pending slot occupied by a query
// held in its scan, everything else shed). Tenant "cold" must answer
// every query bitwise-correct with zero sheds while that overload is in
// progress.
TEST(MultiTenantIsolationTest, OverloadOnOneTenantLeavesOthersServing) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the batcher.scan fault site to hold a query";
#endif
  const int64_t k = 8, d = 8, kQueries = 50;
  ServerRegistry registry;
  TenantOptions hot;
  hot.batcher.max_pending = 1;
  ASSERT_TRUE(
      registry.Register("hot", CenterIndex::Build(RandomMatrix(k, d, 1)), hot)
          .ok());
  ASSERT_TRUE(
      registry.Register("cold", CenterIndex::Build(RandomMatrix(k, d, 2)))
          .ok());
  const Matrix probes = RandomMatrix(kQueries, d, 3);
  const auto cold_snapshot = registry.AcquireSnapshot("cold").ValueOrDie();

  ScanHold hold;
  std::thread held([&] {
    ASSERT_TRUE(registry.Assign("hot", probes.Row(0)).ok());
  });
  ScanHold::WaitUntilHeld();

  // Interleave: every hot query sheds, every cold query serves bitwise.
  for (int64_t i = 0; i < kQueries; ++i) {
    Result<NearestResult> h = registry.Assign("hot", probes.Row(i));
    ASSERT_FALSE(h.ok());
    EXPECT_TRUE(h.status().IsUnavailable());
    Result<NearestResult> c = registry.Assign("cold", probes.Row(i));
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    const NearestResult expected = cold_snapshot->AssignOne(probes.Row(i));
    ASSERT_EQ(c.ValueOrDie().index, expected.index);
    ASSERT_EQ(c.ValueOrDie().distance2, expected.distance2);
  }
  held.join();

  const auto hot_stats = registry.stats("hot").ValueOrDie();
  const auto cold_stats = registry.stats("cold").ValueOrDie();
  EXPECT_EQ(hot_stats.batcher.shed, kQueries);
  EXPECT_EQ(hot_stats.batcher.served, 1);  // the held query
  EXPECT_EQ(cold_stats.batcher.served, kQueries);
  EXPECT_EQ(cold_stats.batcher.shed, 0);
  EXPECT_EQ(cold_stats.latency.count, kQueries);
}

// Publishing to tenant A under continuous query load on tenant B must
// leave B's snapshot POINTER (not just its contents) and version
// untouched — the publish path of one tenant shares no state with
// another tenant's read path.
TEST(MultiTenantIsolationTest, PublishToOneTenantNeverMovesAnother) {
  const int64_t k = 8, d = 8;
  constexpr int kPublishes = 50;
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("a", CenterIndex::Build(RandomMatrix(k, d, 1), 1))
          .ok());
  ASSERT_TRUE(
      registry.Register("b", CenterIndex::Build(RandomMatrix(k, d, 2), 1))
          .ok());
  const Matrix probes = RandomMatrix(64, d, 3);
  const auto b_before = registry.AcquireSnapshot("b").ValueOrDie();

  std::atomic<bool> stop{false};
  std::thread load([&] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto r = registry.Assign("b", probes.Row(i++ % 64));
      ASSERT_TRUE(r.ok());
    }
  });
  for (int p = 0; p < kPublishes; ++p) {
    ASSERT_TRUE(
        registry
            .Publish("a", CenterIndex::Build(
                              RandomMatrix(k, d, 100 + (uint64_t)p),
                              static_cast<uint64_t>(p) + 2))
            .ok());
    // B's snapshot must be the same object at every point in the churn.
    ASSERT_EQ(registry.AcquireSnapshot("b").ValueOrDie().get(),
              b_before.get());
  }
  stop.store(true, std::memory_order_relaxed);
  load.join();

  EXPECT_EQ(registry.AcquireSnapshot("a").ValueOrDie()->version(),
            static_cast<uint64_t>(kPublishes) + 1);
  EXPECT_EQ(registry.AcquireSnapshot("b").ValueOrDie()->version(), 1u);
  EXPECT_EQ(registry.stats("a").ValueOrDie().server.publishes, kPublishes);
  EXPECT_EQ(registry.stats("b").ValueOrDie().server.publishes, 0);
}

}  // namespace
}  // namespace kmeansll
