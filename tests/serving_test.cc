// Serving-layer tests: CenterIndex queries are bitwise the training-side
// evaluators' answers (AssignBatch ≡ ComputeAssignment at pool null/1/4,
// AssignOne ≡ the scalar reference, AssignTopM ≡ sorted engine
// distances), RequestBatcher coalescing never changes results, and
// ModelServer hot swaps are safe and consistent under concurrent readers
// (run under TSan in CI — the reader threads deliberately race Acquire
// against Publish).

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

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KMLL_SERVING_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KMLL_SERVING_SANITIZED 1
#endif

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
  const std::string path = ::testing::TempDir() + "/serving_model.kmm";

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

  RequestBatcherOptions options;
  options.max_batch = 8;
  options.max_delay_us = 2000;
  RequestBatcher batcher(&server, options);

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
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.largest_batch, options.max_batch);
  // Defaults disable admission control: everything is admitted/served.
  EXPECT_EQ(stats.served, s.n);
  EXPECT_EQ(stats.shed, 0);
}

TEST(RequestBatcherTest, ShedsAtMaxPendingWithUnavailable) {
  const int64_t d = 8;
  Matrix centers = RandomMatrix(4, d, 1212, 2.0);
  ModelServer server(CenterIndex::Build(centers));

  RequestBatcherOptions options;
  options.max_batch = 2;
  options.max_delay_us = 200000;  // leader parks long enough to observe
  options.idle_close_us = 0;      // no quiescence flush: deterministic
  options.max_pending = 1;
  RequestBatcher batcher(&server, options);

  Matrix probes = RandomMatrix(2, d, 1313, 2.0);
  // The leader occupies the single pending slot and waits for a
  // follower that is never admitted.
  std::thread leader([&] {
    Result<NearestResult> r = batcher.Assign(probes.Row(0));
    ASSERT_TRUE(r.ok());
    NearestResult expected = server.Acquire()->AssignOne(probes.Row(0));
    EXPECT_EQ(r.ValueOrDie().index, expected.index);
    EXPECT_EQ(r.ValueOrDie().distance2, expected.distance2);
  });
  while (batcher.stats().queries < 1) std::this_thread::yield();

  Result<NearestResult> shed = batcher.Assign(probes.Row(1));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_NE(shed.status().message().find("retry in ~"),
            std::string::npos);
  leader.join();

  RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.shed, 1);
}

TEST(RequestBatcherTest, DeadlineAdmissionShedsUnmeetableTarget) {
  Matrix centers = RandomMatrix(4, 8, 1414, 2.0);
  ModelServer server(CenterIndex::Build(centers));

  // The coalescing delay alone exceeds the latency target, so admission
  // can prove up front that the deadline is unmeetable.
  RequestBatcherOptions options;
  options.max_delay_us = 500;
  options.max_latency_us = 100;
  RequestBatcher batcher(&server, options);

  Matrix probe = RandomMatrix(1, 8, 1515, 2.0);
  Result<NearestResult> shed = batcher.Assign(probe.Row(0));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_EQ(batcher.stats().shed, 1);
  EXPECT_EQ(batcher.stats().served, 0);
}

TEST(RequestBatcherTest, OverloadShedsCleanlyUnderConcurrency) {
  const int64_t d = 16;
  Matrix centers = RandomMatrix(6, d, 1616, 2.0);
  ModelServer server(CenterIndex::Build(centers));
  auto index = server.Acquire();

  RequestBatcherOptions options;
  options.max_batch = 4;
  options.max_delay_us = 100;
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

  const std::string path = ::testing::TempDir() + "/publish_ok.kmm";
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

  const std::string path = ::testing::TempDir() + "/publish_torn.kmm";
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
  const std::string mismatched = ::testing::TempDir() + "/publish_dim.kmm";
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

// Sequential arrivals spaced wider than the idle window cannot
// coalesce — each caller is alone in flight, and a leader would close
// before the next query came — so the adaptive limit opens batches at
// min_batch. (A limit from the mean arrival rate, max_delay_us / gap +
// 1, reads about 90 here, clamped to max_batch = 64.)
TEST(RequestBatcherTest, SparseArrivalsOpenBatchesAtMinBatch) {
  const int64_t d = 8;
  ModelServer server(CenterIndex::Build(RandomMatrix(4, d, 1313, 2.0)));
  RequestBatcherOptions options;
  options.max_batch = 64;
  options.min_batch = 2;
  options.max_delay_us = 100000;
  options.idle_close_us = 20;
  options.adaptive_batch = true;
  RequestBatcher batcher(&server, options);
  const Matrix points = RandomMatrix(16, d, 1414, 2.0);
  for (int64_t i = 0; i < points.rows(); ++i) {
    ASSERT_TRUE(batcher.Assign(points.Row(i)).ok());
    // Gaps between idle_close_us and max_delay_us.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(batcher.stats().adaptive_batch_limit, options.min_batch);
}

// Concurrent callers arrive well inside the idle window, so the limit
// still grows with the joins they make. The index is large enough that
// a flush outlasts the next caller's arrival: a caller alone in flight
// cannot be joined, so a scan that ends before anyone else arrives
// shows no concurrency to the batcher.
TEST(RequestBatcherTest, ConcurrentArrivalsStillGrowTheLimit) {
  const int64_t d = 64;
  ModelServer server(CenterIndex::Build(RandomMatrix(2048, d, 1515, 2.0)));
  RequestBatcherOptions options;
  options.max_batch = 4;
  options.min_batch = 1;
  options.max_delay_us = 100000;
  options.idle_close_us = 2000;
  options.adaptive_batch = true;
  RequestBatcher batcher(&server, options);
  const Matrix points = RandomMatrix(64, d, 1616, 2.0);
  constexpr int kThreads = 4;
  std::vector<int64_t> largest(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Start together, so the callers really overlap.
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < kThreads) {
      }
      for (int64_t i = 0; i < 200; ++i) {
        EXPECT_TRUE(batcher.Assign(points.Row((i + t) % 64)).ok());
        largest[static_cast<size_t>(t)] =
            std::max(largest[static_cast<size_t>(t)],
                     batcher.stats().adaptive_batch_limit);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(*std::max_element(largest.begin(), largest.end()),
            options.min_batch);
  EXPECT_GT(batcher.stats().largest_batch, 1);
}

// Callers can reach a batcher in bursts: microseconds apart, with the
// batcher quiet in between. Under the default idle window such bursts
// must still coalesce; the mean gap between arrivals says nothing about
// that, since it is dominated by the quiet stretches (it reads over
// 100 µs here, several idle windows).
TEST(RequestBatcherTest, BurstsCoalesceUnderTheDefaultIdleWindow) {
  const int64_t d = 64;
  // Large enough that a one-row flush outlasts a burst's arrivals.
  ModelServer server(CenterIndex::Build(RandomMatrix(2048, d, 1717, 2.0)));
  RequestBatcherOptions options;
  options.adaptive_batch = true;
  ASSERT_EQ(options.idle_close_us, 20);
  const Matrix points = RandomMatrix(64, d, 1818, 2.0);
  constexpr int kThreads = 3;
  constexpr int kRounds = 200;
  // One run of kRounds bursts on a fresh batcher.
  auto run = [&] {
    RequestBatcher batcher(&server, options);
    std::atomic<int> round{-1};
    std::atomic<int> answered{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          while (round.load(std::memory_order_acquire) < r) {
          }
          EXPECT_TRUE(batcher.Assign(points.Row((r + t) % 64)).ok());
          answered.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (int r = 0; r < kRounds; ++r) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      round.store(r, std::memory_order_release);
      while (answered.load(std::memory_order_acquire) < (r + 1) * kThreads) {
      }
    }
    for (auto& w : workers) w.join();
    const RequestBatcher::Stats stats = batcher.stats();
    EXPECT_EQ(stats.served, kThreads * kRounds);
    return stats;
  };
  // A burst of three that lands in one batch saves two flushes. Leaders
  // sized by the mean gap save almost none here (they open every burst
  // at min_batch, saving 0–2 flushes per run); require one saved per
  // four rounds (a quiet machine saves 300 or more). Other processes can
  // break bursts up for a whole run, so a run may be repeated: a rule
  // that never coalesces fails every attempt. Not asserted under a
  // sanitizer, which stretches each admission past the 20 µs window, so
  // its bursts are not bursts.
#ifdef KMLL_SERVING_SANITIZED
  constexpr int kAttempts = 1;
#else
  constexpr int kAttempts = 5;
#endif
  RequestBatcher::Stats best;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const RequestBatcher::Stats stats = run();
    if (stats.served - stats.batches > best.served - best.batches) {
      best = stats;
    }
    if (best.served - best.batches >= kRounds / 4) break;
  }
#ifndef KMLL_SERVING_SANITIZED
  EXPECT_GE(best.served - best.batches, kRounds / 4) << best.batches;
#endif
}

// Shutdown() must wake a leader parked waiting for followers: the
// leader flushes its batch immediately (admitted queries are always
// answered), and every later Assign sheds kUnavailable. Before the
// shutdown path existed, a parked leader could only be released by its
// full max_delay_us expiring — with a multi-second delay the destructor
// would sit on a batch nobody could close.
TEST(RequestBatcherTest, ShutdownWakesParkedLeaderAndShedsLater) {
  const int64_t d = 8;
  ModelServer server(CenterIndex::Build(RandomMatrix(4, d, 2020, 2.0)));
  RequestBatcherOptions options;
  options.max_batch = 8;
  options.max_delay_us = 5'000'000;  // parked ~forever without the wake
  options.idle_close_us = 0;
  RequestBatcher batcher(&server, options);

  Matrix probes = RandomMatrix(2, d, 2121, 2.0);
  std::thread leader([&] {
    Result<NearestResult> r = batcher.Assign(probes.Row(0));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const NearestResult expected =
        server.Acquire()->AssignOne(probes.Row(0));
    EXPECT_EQ(r.ValueOrDie().index, expected.index);
    EXPECT_EQ(r.ValueOrDie().distance2, expected.distance2);
  });
  while (batcher.stats().queries < 1) std::this_thread::yield();

  batcher.Shutdown();
  leader.join();  // must return promptly, NOT after max_delay_us

  Result<NearestResult> late = batcher.Assign(probes.Row(1));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsUnavailable());

  const RequestBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(stats.shed, 1);
}

// The idle-flush / shutdown race regression (run under TSan in CI).
// The old leader wait compared row counts across a single wait: any
// spurious or early wakeup closed the batch as "quiescent" even though
// the idle window never elapsed, and destruction had no way to wake a
// parked leader at all. This stress drives many short-lived batchers
// with tiny idle windows, concurrent joiners, a mid-flight Shutdown,
// and immediate destruction — every admitted query must be answered
// bitwise, every post-shutdown query shed, and accounting must add up
// on every iteration.
TEST(RequestBatcherTest, IdleFlushShutdownStressAnswersEveryAdmission) {
  const int64_t d = 8;
  constexpr int kIterations = 25;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  const auto index = CenterIndex::Build(RandomMatrix(5, d, 2222, 2.0));
  const Matrix probes = RandomMatrix(kThreads * kPerThread, d, 2323, 2.0);

  for (int iter = 0; iter < kIterations; ++iter) {
    ModelServer server(index);
    RequestBatcherOptions options;
    options.max_batch = 8;
    options.max_delay_us = 2000;
    options.idle_close_us = 1;  // aggressive quiescence: maximal racing
    RequestBatcher batcher(&server, options);

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

// Tenant "hot" is overloaded (single pending slot occupied by a parked
// leader, everything else shed). Tenant "cold" must answer every query
// bitwise-correct with zero sheds while that overload is in progress.
TEST(MultiTenantIsolationTest, OverloadOnOneTenantLeavesOthersServing) {
  const int64_t k = 8, d = 8, kQueries = 50;
  ServerRegistry registry;
  TenantOptions hot;
  hot.batcher.max_batch = 2;
  hot.batcher.max_delay_us = 200000;
  hot.batcher.idle_close_us = 0;
  hot.batcher.max_pending = 1;
  ASSERT_TRUE(
      registry.Register("hot", CenterIndex::Build(RandomMatrix(k, d, 1)), hot)
          .ok());
  ASSERT_TRUE(
      registry.Register("cold", CenterIndex::Build(RandomMatrix(k, d, 2)))
          .ok());
  const Matrix probes = RandomMatrix(kQueries, d, 3);
  const auto cold_snapshot = registry.AcquireSnapshot("cold").ValueOrDie();

  std::thread parked([&] {
    ASSERT_TRUE(registry.Assign("hot", probes.Row(0)).ok());
  });
  while (registry.stats("hot").ValueOrDie().batcher.queries < 1) {
    std::this_thread::yield();
  }

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
  parked.join();

  const auto hot_stats = registry.stats("hot").ValueOrDie();
  const auto cold_stats = registry.stats("cold").ValueOrDie();
  EXPECT_EQ(hot_stats.batcher.shed, kQueries);
  EXPECT_EQ(hot_stats.batcher.served, 1);  // the parked leader
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
