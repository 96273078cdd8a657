// Pool-size equivalence: RunLloyd at pool = null / 1 / 4 must produce
// bitwise-identical centers, assignments, costs, iteration counts and
// cost histories. Every distance goes through the batch engine's
// accumulation chains and every reduction folds over the fixed chunk
// grid, so the tests assert exact equality on random data in both
// kernel regimes (plain d < kExpandedKernelMinDim, expanded d >= it),
// on weighted data, on the empty-cluster repair path, and on
// adversarial integer-grid inputs with duplicated points and duplicated
// initial centers, where every kernel's arithmetic is exact and ties
// are real.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "clustering/init_random.h"
#include "clustering/lloyd.h"
#include "data/synthetic.h"
#include "distance/batch.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

// Runs RunLloyd at pool sizes 1 and 4 and asserts every trajectory is
// bitwise identical to the sequential run.
void ExpectPoolSizesBitwiseEqual(const Dataset& data,
                                 const Matrix& initial_centers,
                                 const LloydOptions& options) {
  auto standard = RunLloyd(data, initial_centers, options, nullptr);
  ASSERT_TRUE(standard.ok());

  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    auto pooled = RunLloyd(data, initial_centers, options, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_TRUE(pooled->centers == standard->centers)
        << "pool=" << threads;
    EXPECT_EQ(pooled->assignment.cluster, standard->assignment.cluster)
        << "pool=" << threads;
    EXPECT_EQ(pooled->assignment.cost, standard->assignment.cost)
        << "pool=" << threads;  // bitwise
    EXPECT_EQ(pooled->iterations, standard->iterations)
        << "pool=" << threads;
    EXPECT_EQ(pooled->converged, standard->converged)
        << "pool=" << threads;
    EXPECT_EQ(pooled->empty_cluster_repairs,
              standard->empty_cluster_repairs)
        << "pool=" << threads;
    EXPECT_EQ(pooled->cost_history, standard->cost_history)
        << "pool=" << threads;  // bitwise
  }
}

// Random Gaussian mixtures in both kernel regimes. d = 8 exercises the
// plain chain, d = 40 the expanded (clamped) chain.
class EquivalenceRegimeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(EquivalenceRegimeTest, RandomDataBitwiseEqual) {
  auto [dim, k] = GetParam();
  auto generated = data::GenerateGaussMixture(
      {.n = 1200, .k = k, .dim = dim, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(31 + static_cast<uint64_t>(dim)));
  ASSERT_TRUE(generated.ok());
  auto seed = RandomInit(generated->data, k, rng::Rng(32));
  ASSERT_TRUE(seed.ok());

  LloydOptions options;
  options.max_iterations = 40;
  options.track_history = true;
  ExpectPoolSizesBitwiseEqual(generated->data, seed->centers, options);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EquivalenceRegimeTest,
    ::testing::Combine(
        // Straddle the kAuto crossover (kExpandedKernelMinDim = 32).
        ::testing::Values<int64_t>(8, 40),
        ::testing::Values<int64_t>(5, 17)));

TEST(LloydEquivalenceTest, WeightedDataBitwiseEqual) {
  auto generated = data::GenerateGaussMixture(
      {.n = 700, .k = 9, .dim = 40, .center_stddev = 4.0,
       .cluster_stddev = 1.0},
      rng::Rng(41));
  ASSERT_TRUE(generated.ok());
  std::vector<double> weights(static_cast<size_t>(generated->data.n()));
  rng::Rng wrng(42);
  for (auto& w : weights) w = 0.25 + wrng.NextExponential(1.0);
  auto weighted = Dataset::WithWeights(generated->data.points(), weights);
  ASSERT_TRUE(weighted.ok());
  auto seed = RandomInit(*weighted, 9, rng::Rng(43));
  ASSERT_TRUE(seed.ok());

  LloydOptions options;
  options.max_iterations = 30;
  ExpectPoolSizesBitwiseEqual(*weighted, seed->centers, options);
}

// Adversarial: integer-coordinate points (all kernel arithmetic exact)
// with heavy duplication — every point appears several times, and the
// initial center set contains bitwise-duplicate rows, so nearest-center
// ties are real and must break identically (lowest index) at every pool
// size.
void RunAdversarialGrid(int64_t d) {
  const int64_t base_points = 60;
  const int64_t copies = 4;
  Matrix pts(base_points * copies, d);
  rng::Rng rng(77 + static_cast<uint64_t>(d));
  for (int64_t b = 0; b < base_points; ++b) {
    std::vector<double> row(static_cast<size_t>(d));
    for (int64_t j = 0; j < d; ++j) {
      row[static_cast<size_t>(j)] =
          static_cast<double>(rng.NextBounded(7)) - 3.0;
    }
    for (int64_t c = 0; c < copies; ++c) {
      std::memcpy(pts.Row(b * copies + c), row.data(),
                  static_cast<size_t>(d) * sizeof(double));
    }
  }
  Dataset data(std::move(pts));

  // k = 6 centers: three distinct grid points, each duplicated once.
  Matrix centers(6, d);
  for (int64_t c = 0; c < 6; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      centers.At(c, j) = static_cast<double>((c / 2) * 2 + (j % 3)) - 2.0;
    }
  }

  LloydOptions options;
  options.max_iterations = 25;
  options.track_history = true;
  ExpectPoolSizesBitwiseEqual(data, centers, options);
}

TEST(LloydEquivalenceTest, AdversarialIntegerGridPlainKernel) {
  RunAdversarialGrid(8);
}

TEST(LloydEquivalenceTest, AdversarialIntegerGridExpandedKernel) {
  RunAdversarialGrid(40);
}

// Empty-cluster repair must fire identically at every pool size (an
// outlier center no point chooses).
TEST(LloydEquivalenceTest, RepairPathBitwiseEqual) {
  auto generated = data::GenerateGaussMixture(
      {.n = 500, .k = 4, .dim = 40, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(51));
  ASSERT_TRUE(generated.ok());
  Matrix start(40);
  for (int64_t c = 0; c < 3; ++c) {
    start.AppendRow(generated->data.Point(c));
  }
  std::vector<double> outlier(40, 1e6);
  start.AppendRow(outlier.data());

  LloydOptions options;
  options.max_iterations = 20;
  auto standard = RunLloyd(generated->data, start, options, nullptr);
  ASSERT_TRUE(standard.ok());
  EXPECT_GT(standard->empty_cluster_repairs, 0);
  ExpectPoolSizesBitwiseEqual(generated->data, start, options);
}

}  // namespace
}  // namespace kmeansll
