// Tests for the core KMeans facade: configuration validation, Fit
// behaviour per init method, model persistence, prediction.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "clustering/cost.h"
#include "core/kmeans.h"
#include "core/version.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

data::LabeledData MakeGauss(int64_t n, int64_t k, uint64_t seed) {
  auto generated = data::GenerateGaussMixture(
      {.n = n, .k = k, .dim = 6, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(seed));
  KMEANSLL_CHECK(generated.ok());
  return std::move(generated).ValueOrDie();
}

TEST(KMeansConfigTest, ValidationErrors) {
  auto gauss = MakeGauss(100, 4, 160);
  {
    KMeansConfig config;
    config.k = 0;
    EXPECT_FALSE(KMeans(config).Fit(gauss.data).ok());
  }
  {
    KMeansConfig config;
    config.k = 101;  // > n
    EXPECT_FALSE(KMeans(config).Fit(gauss.data).ok());
  }
  {
    KMeansConfig config;
    config.k = 4;
    config.use_mapreduce = true;
    config.init = InitMethod::kKMeansPP;  // unsupported combination
    EXPECT_FALSE(KMeans(config).Fit(gauss.data).ok());
  }
  {
    KMeansConfig config;
    config.k = 4;
    config.use_mapreduce = true;
    config.num_partitions = 0;
    config.init = InitMethod::kKMeansParallel;
    EXPECT_FALSE(KMeans(config).Fit(gauss.data).ok());
  }
  {
    Dataset empty{Matrix(3)};
    KMeansConfig config;
    config.k = 1;
    EXPECT_FALSE(KMeans(config).Fit(empty).ok());
  }
}

TEST(KMeansTest, InitMethodNames) {
  EXPECT_STREQ(InitMethodName(InitMethod::kRandom), "Random");
  EXPECT_STREQ(InitMethodName(InitMethod::kKMeansPP), "k-means++");
  EXPECT_STREQ(InitMethodName(InitMethod::kKMeansParallel), "k-means||");
  EXPECT_STREQ(InitMethodName(InitMethod::kPartition), "Partition");
}

class KMeansFitTest : public ::testing::TestWithParam<InitMethod> {};

TEST_P(KMeansFitTest, FitProducesConsistentReport) {
  auto gauss = MakeGauss(1200, 8, 161);
  KMeansConfig config;
  config.k = 8;
  config.init = GetParam();
  config.seed = 7;
  config.lloyd.max_iterations = 30;
  KMeans model(config);
  auto report = model.Fit(gauss.data);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->centers.rows(), 8);
  EXPECT_EQ(report->centers.cols(), 6);
  EXPECT_EQ(static_cast<int64_t>(report->assignment.cluster.size()), 1200);
  // Lloyd can only improve the seed.
  EXPECT_LE(report->final_cost, report->seed_cost * (1 + 1e-12));
  EXPECT_GT(report->lloyd_iterations, 0);
  EXPECT_GE(report->total_seconds, 0.0);
  // Cost reported must match a fresh evaluation of the centers.
  EXPECT_NEAR(report->final_cost,
              ComputeCost(gauss.data, report->centers),
              1e-9 * (1 + report->final_cost));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, KMeansFitTest,
                         ::testing::Values(InitMethod::kRandom,
                                           InitMethod::kKMeansPP,
                                           InitMethod::kKMeansParallel,
                                           InitMethod::kPartition));

TEST(KMeansTest, SeedOnlyRunWhenLloydDisabled) {
  auto gauss = MakeGauss(600, 6, 162);
  KMeansConfig config;
  config.k = 6;
  config.init = InitMethod::kKMeansParallel;
  config.lloyd.max_iterations = 0;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->lloyd_iterations, 0);
  EXPECT_DOUBLE_EQ(report->seed_cost, report->final_cost);
}

TEST(KMeansTest, DeterministicAcrossRuns) {
  auto gauss = MakeGauss(800, 5, 163);
  KMeansConfig config;
  config.k = 5;
  config.seed = 99;
  config.lloyd.max_iterations = 20;
  auto a = KMeans(config).Fit(gauss.data);
  auto b = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->centers == b->centers);
  EXPECT_EQ(a->final_cost, b->final_cost);
}

TEST(KMeansTest, ThreadedFitMatchesSequential) {
  auto gauss = MakeGauss(1000, 6, 164);
  KMeansConfig config;
  config.k = 6;
  config.seed = 3;
  config.lloyd.max_iterations = 15;
  auto sequential = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(sequential.ok());
  config.num_threads = 4;
  auto threaded = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(threaded->final_cost, sequential->final_cost);
  EXPECT_TRUE(threaded->centers == sequential->centers);
}

TEST(KMeansTest, MapReducePathProducesEquivalentQuality) {
  auto gauss = MakeGauss(1500, 8, 165);
  KMeansConfig config;
  config.k = 8;
  config.seed = 5;
  config.init = InitMethod::kKMeansParallel;
  config.lloyd.max_iterations = 20;
  auto plain = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(plain.ok());

  config.use_mapreduce = true;
  config.num_partitions = 6;
  auto mr = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(mr.ok());
  EXPECT_NEAR(mr->seed_cost, plain->seed_cost,
              1e-6 * (1 + plain->seed_cost));
  EXPECT_GT(mr->counters.Get(mapreduce::kCounterJobs), 0);
}

TEST(KMeansTest, InitializeReturnsSeedOnly) {
  auto gauss = MakeGauss(500, 7, 166);
  KMeansConfig config;
  config.k = 7;
  config.init = InitMethod::kKMeansParallel;
  auto init = KMeans(config).Initialize(gauss.data);
  ASSERT_TRUE(init.ok());
  EXPECT_EQ(init->centers.rows(), 7);
  EXPECT_GT(init->telemetry.intermediate_centers, 7);
}

TEST(PredictTest, AssignsNewPoints) {
  Matrix centers = Matrix::FromValues(2, 1, {0.0, 100.0});
  Dataset queries(Matrix::FromValues(3, 1, {1.0, 99.0, 51.0}));
  Assignment a = Predict(centers, queries);
  EXPECT_EQ(a.cluster, (std::vector<int32_t>{0, 1, 1}));
}

TEST(ModelIoTest, SaveLoadRoundTrip) {
  auto gauss = MakeGauss(300, 4, 167);
  KMeansConfig config;
  config.k = 4;
  config.lloyd.max_iterations = 10;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok());

  std::string path = ScratchPath("kmeansll_model.bin");
  ASSERT_TRUE(SaveCenters(report->centers, path).ok());
  auto loaded = LoadCenters(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(*loaded == report->centers);
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadRejectsGarbage) {
  EXPECT_TRUE(LoadCenters("/nonexistent/model.bin").status().IsIOError());
  std::string path = ScratchPath("kmeansll_garbage.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    fputs("this is not a model", f);
    fclose(f);
  }
  EXPECT_FALSE(LoadCenters(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, LoadRejectsTruncated) {
  auto gauss = MakeGauss(100, 3, 168);
  KMeansConfig config;
  config.k = 3;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok());
  std::string path = ScratchPath("kmeansll_trunc.bin");
  ASSERT_TRUE(SaveCenters(report->centers, path).ok());
  // Truncate the file to cut into the payload.
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_EQ(ftruncate(fileno(f), 40), 0);
    fclose(f);
  }
  EXPECT_FALSE(LoadCenters(path).ok());
  std::remove(path.c_str());
}

TEST(KMeansTest, MultiRunSeedingNeverWorseThanSingle) {
  auto gauss = MakeGauss(1000, 10, 169);
  KMeansConfig config;
  config.k = 10;
  config.seed = 31;
  config.init = InitMethod::kKMeansPP;
  config.lloyd.max_iterations = 0;  // compare pure seed costs
  auto single = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(single.ok());
  config.num_runs = 5;
  auto multi = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(multi.ok());
  // Run 0 of the multi-run uses the same seed as the single run, so the
  // best-of-5 can only match or improve it.
  EXPECT_LE(multi->seed_cost, single->seed_cost * (1 + 1e-12));
}

TEST(KMeansTest, MultiRunValidation) {
  auto gauss = MakeGauss(100, 4, 170);
  KMeansConfig config;
  config.k = 4;
  config.num_runs = 0;
  EXPECT_FALSE(KMeans(config).Fit(gauss.data).ok());
}

TEST(KMeansTest, MapReducePartitionAndRandomPaths) {
  auto gauss = MakeGauss(900, 6, 172);
  for (InitMethod init : {InitMethod::kRandom, InitMethod::kPartition}) {
    KMeansConfig config;
    config.k = 6;
    config.init = init;
    config.use_mapreduce = true;
    config.num_partitions = 5;
    config.lloyd.max_iterations = 10;
    auto report = KMeans(config).Fit(gauss.data);
    ASSERT_TRUE(report.ok()) << InitMethodName(init) << ": "
                             << report.status();
    EXPECT_EQ(report->centers.rows(), 6);
    EXPECT_GT(report->counters.Get(mapreduce::kCounterJobs), 0);
  }
}

TEST(VersionTest, Consistent) {
  EXPECT_EQ(kVersionMajor, 1);
  EXPECT_STREQ(kVersionString, "1.0.0");
}

}  // namespace
}  // namespace kmeansll
