// Cross-cutting property sweeps: invariants that must hold for every
// initialization method, k, and execution mode — plus degenerate-input
// and failure-injection coverage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "clustering/cost.h"
#include "core/kmeans.h"
#include "data/synthetic.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

data::LabeledData MakeGauss(int64_t n, int64_t k, uint64_t seed) {
  auto generated = data::GenerateGaussMixture(
      {.n = n, .k = k, .dim = 5, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(seed));
  KMEANSLL_CHECK(generated.ok());
  return std::move(generated).ValueOrDie();
}

// ------------------------------------------- per-method × k invariants

class MethodKPropertyTest
    : public ::testing::TestWithParam<std::tuple<InitMethod, int64_t>> {};

TEST_P(MethodKPropertyTest, PipelineInvariantsHold) {
  auto [method, k] = GetParam();
  auto gauss = MakeGauss(1500, 12, 500 + static_cast<uint64_t>(k));

  KMeansConfig config;
  config.k = k;
  config.init = method;
  config.seed = 77;
  config.lloyd.max_iterations = 50;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok()) << report.status();

  // Exactly k centers of the right dimension (all methods oversample
  // internally but must reduce to k).
  EXPECT_EQ(report->centers.rows(), k);
  EXPECT_EQ(report->centers.cols(), 5);
  // Costs are finite, positive, and Lloyd never hurts.
  EXPECT_TRUE(std::isfinite(report->seed_cost));
  EXPECT_GT(report->seed_cost, 0.0);
  EXPECT_LE(report->final_cost, report->seed_cost * (1 + 1e-12));
  // Every point is assigned to an existing center.
  for (int32_t c : report->assignment.cluster) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, k);
  }
  // The reported cost matches an independent evaluation.
  EXPECT_NEAR(report->final_cost,
              ComputeCost(gauss.data, report->centers),
              1e-9 * (1 + report->final_cost));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MethodKPropertyTest,
    ::testing::Combine(::testing::Values(InitMethod::kRandom,
                                         InitMethod::kKMeansPP,
                                         InitMethod::kKMeansParallel,
                                         InitMethod::kPartition),
                       ::testing::Values<int64_t>(2, 12, 40)));

// Cost is non-increasing in k for the same method and data.
TEST(CostMonotonicityTest, MoreCentersNeverCostMore) {
  auto gauss = MakeGauss(2000, 10, 510);
  double previous = std::numeric_limits<double>::infinity();
  for (int64_t k : {2, 5, 10, 20, 40}) {
    KMeansConfig config;
    config.k = k;
    config.seed = 9;
    config.num_runs = 3;  // damp seeding noise
    config.lloyd.max_iterations = 60;
    auto report = KMeans(config).Fit(gauss.data);
    ASSERT_TRUE(report.ok());
    EXPECT_LE(report->final_cost, previous * 1.05) << "k=" << k;
    previous = report->final_cost;
  }
}

// ------------------------------------------------- MapReduce invariance

class MRInvarianceTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(MRInvarianceTest, SeedCostIndependentOfPartitioning) {
  const int64_t partitions = GetParam();
  auto gauss = MakeGauss(1000, 8, 511);
  KMeansConfig config;
  config.k = 8;
  config.seed = 13;
  config.use_mapreduce = true;
  config.num_partitions = partitions;
  config.lloyd.max_iterations = 0;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok());

  KMeansConfig reference = config;
  reference.num_partitions = 1;
  auto expected = KMeans(reference).Fit(gauss.data);
  ASSERT_TRUE(expected.ok());
  EXPECT_NEAR(report->seed_cost, expected->seed_cost,
              1e-9 * (1 + expected->seed_cost));
}

INSTANTIATE_TEST_SUITE_P(Partitions, MRInvarianceTest,
                         ::testing::Values<int64_t>(2, 7, 32));

// -------------------------------------------------- degenerate datasets

TEST(DegenerateInputTest, KEqualsOne) {
  auto gauss = MakeGauss(300, 4, 512);
  for (InitMethod method :
       {InitMethod::kRandom, InitMethod::kKMeansPP,
        InitMethod::kKMeansParallel, InitMethod::kPartition}) {
    KMeansConfig config;
    config.k = 1;
    config.init = method;
    config.lloyd.max_iterations = 10;
    auto report = KMeans(config).Fit(gauss.data);
    ASSERT_TRUE(report.ok()) << InitMethodName(method);
    EXPECT_EQ(report->centers.rows(), 1);
    // The 1-means optimum is the centroid; Lloyd must land there.
    EXPECT_TRUE(report->lloyd_converged);
  }
}

TEST(DegenerateInputTest, KEqualsN) {
  auto gauss = MakeGauss(40, 4, 513);
  KMeansConfig config;
  config.k = 40;
  config.init = InitMethod::kKMeansPP;
  config.lloyd.max_iterations = 20;
  auto report = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(report.ok());
  // Every point its own center: zero cost.
  EXPECT_NEAR(report->final_cost, 0.0, 1e-9);
}

TEST(DegenerateInputTest, AllPointsIdentical) {
  Matrix points(50, 3);
  for (int64_t i = 0; i < 50; ++i) {
    points.At(i, 0) = 4.0;
    points.At(i, 1) = -2.0;
    points.At(i, 2) = 0.5;
  }
  Dataset data(std::move(points));
  KMeansConfig config;
  config.k = 5;
  config.init = InitMethod::kKMeansParallel;
  config.lloyd.max_iterations = 10;
  auto report = KMeans(config).Fit(data);
  ASSERT_TRUE(report.ok());
  // Potential collapses to zero after the first candidate; the run must
  // terminate cleanly with zero cost (the candidate set may be < k).
  EXPECT_NEAR(report->final_cost, 0.0, 1e-12);
}

TEST(DegenerateInputTest, OneDimensionalData) {
  auto uniform = data::GenerateUniform(500, 1, 0.0, 100.0, rng::Rng(514));
  ASSERT_TRUE(uniform.ok());
  KMeansConfig config;
  config.k = 4;
  config.lloyd.max_iterations = 100;
  auto report = KMeans(config).Fit(*uniform);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->centers.rows(), 4);
  EXPECT_LT(report->final_cost, ComputeCost(*uniform, Matrix(1, 1)));
}

// ------------------------------------------------- failure injection

TEST(FailureInjectionTest, NaNCoordinateRejected) {
  Matrix points = Matrix::FromValues(3, 2, {1, 2, 3, 4, 5, 6});
  points.At(1, 1) = std::nan("");
  Dataset data(std::move(points));
  KMeansConfig config;
  config.k = 2;
  auto report = KMeans(config).Fit(data);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
  EXPECT_NE(report.status().message().find("point 1"), std::string::npos);
}

TEST(FailureInjectionTest, InfinityCoordinateRejected) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  points.At(0, 0) = std::numeric_limits<double>::infinity();
  Dataset data(std::move(points));
  KMeansConfig config;
  config.k = 1;
  EXPECT_FALSE(KMeans(config).Fit(data).ok());
}

TEST(FailureInjectionTest, ValidateFiniteReportsLocation) {
  Matrix points = Matrix::FromValues(2, 3, {1, 2, 3, 4, -5, 6});
  points.At(1, 2) = -std::numeric_limits<double>::infinity();
  Dataset data(std::move(points));
  Status status = data.ValidateFinite();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("point 1"), std::string::npos);
  EXPECT_NE(status.message().find("dimension 2"), std::string::npos);
}

// ---------------------------------------------- determinism end to end

class DeterminismTest : public ::testing::TestWithParam<InitMethod> {};

TEST_P(DeterminismTest, RepeatFitsAreBitIdentical) {
  auto gauss = MakeGauss(800, 6, 515);
  KMeansConfig config;
  config.k = 6;
  config.init = GetParam();
  config.seed = 1234;
  config.lloyd.max_iterations = 25;
  auto a = KMeans(config).Fit(gauss.data);
  auto b = KMeans(config).Fit(gauss.data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->centers == b->centers);
  EXPECT_EQ(a->final_cost, b->final_cost);
  EXPECT_EQ(a->assignment.cluster, b->assignment.cluster);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, DeterminismTest,
                         ::testing::Values(InitMethod::kRandom,
                                           InitMethod::kKMeansPP,
                                           InitMethod::kKMeansParallel,
                                           InitMethod::kPartition));

}  // namespace
}  // namespace kmeansll
