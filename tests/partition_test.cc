// Tests for clustering/init_partition — the Ailon et al. streaming
// baseline (k-means# per group + weighted k-means++ reclustering).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "clustering/cost.h"
#include "clustering/init_partition.h"
#include "clustering/init_random.h"
#include "data/synthetic.h"
#include "eval/trials.h"
#include "rng/rng.h"

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

TEST(KMeansSharpTest, SelectsFromGroupOnly) {
  auto gauss = MakeGauss(600, 6, 90);
  auto selected = internal::KMeansSharp(gauss.data.AsSource(), 100, 300, 5,
                                        4, rng::Rng(91));
  EXPECT_FALSE(selected.empty());
  for (int64_t idx : selected) {
    EXPECT_GE(idx, 100);
    EXPECT_LT(idx, 300);
  }
}

TEST(KMeansSharpTest, SelectionCountBounded) {
  auto gauss = MakeGauss(600, 6, 92);
  const int64_t batch = 7, iterations = 5;
  auto selected = internal::KMeansSharp(gauss.data.AsSource(), 0, 600,
                                        batch, iterations, rng::Rng(93));
  EXPECT_LE(static_cast<int64_t>(selected.size()), batch * iterations);
  // Distinct (duplicates dropped by construction).
  std::set<int64_t> distinct(selected.begin(), selected.end());
  EXPECT_EQ(distinct.size(), selected.size());
}

TEST(KMeansSharpTest, SmallGroupSaturates) {
  auto gauss = MakeGauss(100, 4, 94);
  // Ask for far more selections than the group holds.
  auto selected = internal::KMeansSharp(gauss.data.AsSource(), 10, 20, 50,
                                        50, rng::Rng(95));
  EXPECT_LE(static_cast<int64_t>(selected.size()), 10);
}

TEST(PartitionInitTest, ValidatesArguments) {
  Dataset data(Matrix::FromValues(3, 1, {1, 2, 3}));
  EXPECT_FALSE(PartitionInit(data, 0, rng::Rng(1)).ok());
  EXPECT_FALSE(PartitionInit(data, 5, rng::Rng(1)).ok());
}

TEST(PartitionInitTest, ProducesKCenters) {
  auto gauss = MakeGauss(2000, 10, 96);
  auto result = PartitionInit(gauss.data, 10, rng::Rng(97));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 10);
  EXPECT_EQ(result->centers.cols(), 6);
}

TEST(PartitionInitTest, IntermediateSetTracksFormula) {
  // Expected |intermediate| ≈ m · min(iterations·batch, group) with
  // m = sqrt(n/k); just check it is "large" — specifically much larger
  // than the r·ℓ ≈ 2–40 k of k-means|| — and bounded by n.
  auto gauss = MakeGauss(4000, 8, 98);
  auto result = PartitionInit(gauss.data, 8, rng::Rng(99));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->telemetry.intermediate_centers, 8 * 10);
  EXPECT_LE(result->telemetry.intermediate_centers, 4000);
  EXPECT_EQ(result->telemetry.rounds, 2);
}

TEST(PartitionInitTest, RespectsExplicitGroupCount) {
  auto gauss = MakeGauss(1000, 5, 100);
  PartitionOptions options;
  options.num_groups = 4;
  options.batch_size = 3;
  options.iterations = 3;
  auto result = PartitionInit(gauss.data, 5, rng::Rng(101), options);
  ASSERT_TRUE(result.ok());
  // Each group selects at most batch*iterations = 9; 4 groups -> <= 36.
  EXPECT_LE(result->telemetry.intermediate_centers, 36);
}

TEST(PartitionInitTest, DeterministicForSeed) {
  auto gauss = MakeGauss(800, 6, 102);
  auto a = PartitionInit(gauss.data, 6, rng::Rng(103));
  auto b = PartitionInit(gauss.data, 6, rng::Rng(103));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->centers == b->centers);
}

TEST(PartitionInitTest, BeatsRandomSeedingByFar) {
  // Table 3's shape: Partition lands orders of magnitude below Random on
  // skewed data; verify a solid factor on GaussMixture.
  auto gauss = MakeGauss(3000, 20, 104);
  auto partition_cost = eval::RunTrials(5, [&](int64_t t) {
    auto result = PartitionInit(gauss.data, 20, rng::Rng(200 + t));
    KMEANSLL_CHECK(result.ok());
    return ComputeCost(gauss.data, result->centers);
  });
  auto random_cost = eval::RunTrials(5, [&](int64_t t) {
    auto result = RandomInit(gauss.data, 20, rng::Rng(300 + t));
    KMEANSLL_CHECK(result.ok());
    return ComputeCost(gauss.data, result->centers);
  });
  EXPECT_LT(partition_cost.median, random_cost.median * 0.7);
}

TEST(PartitionInitTest, HugeIntermediateDegeneratesGracefully) {
  // When 3·m·k·ln k >= n the intermediate set covers the whole input (the
  // situation the paper notes for Spam with k >= 50); the run must still
  // return exactly k centers.
  auto gauss = MakeGauss(300, 40, 105);
  auto result = PartitionInit(gauss.data, 40, rng::Rng(106));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 40);
}

}  // namespace
}  // namespace kmeansll
