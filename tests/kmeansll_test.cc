// Tests for clustering/init_kmeansll — Algorithm 2, the paper's
// contribution: sampling behaviour per round, potential decay, exact-ℓ
// mode, undershoot handling, reclustering, determinism, and quality
// relative to k-means++.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeanspp.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "common/logging.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "distance/l2.h"
#include "eval/trials.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

data::LabeledData MakeGauss(int64_t n, int64_t k, uint64_t seed,
                            double spread = 5.0) {
  auto generated = data::GenerateGaussMixture(
      {.n = n, .k = k, .dim = 8, .center_stddev = spread,
       .cluster_stddev = 1.0},
      rng::Rng(seed));
  KMEANSLL_CHECK(generated.ok());
  return std::move(generated).ValueOrDie();
}

TEST(KMeansLLTest, ValidatesArguments) {
  Dataset data(Matrix::FromValues(3, 1, {1, 2, 3}));
  EXPECT_FALSE(KMeansLLInit(data, 0, rng::Rng(1)).ok());
  EXPECT_FALSE(KMeansLLInit(data, 5, rng::Rng(1)).ok());
  KMeansLLOptions bad;
  bad.rounds = -3;
  EXPECT_FALSE(KMeansLLInit(data, 2, rng::Rng(1), bad).ok());
  KMeansLLOptions inf_ell;
  inf_ell.oversampling = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(KMeansLLInit(data, 2, rng::Rng(1), inf_ell).ok());
}

TEST(KMeansLLTest, ResolveOversamplingDefaultsToTwoK) {
  auto resolved = internal::ResolveOversampling(-1.0, 25);
  ASSERT_TRUE(resolved.ok());
  EXPECT_DOUBLE_EQ(*resolved, 50.0);
  resolved = internal::ResolveOversampling(7.5, 25);
  ASSERT_TRUE(resolved.ok());
  EXPECT_DOUBLE_EQ(*resolved, 7.5);
}

TEST(KMeansLLTest, ResolveRoundsAutoUsesLogPsi) {
  EXPECT_EQ(internal::ResolveRounds(5, 1e10), 5);
  EXPECT_EQ(internal::ResolveRounds(KMeansLLOptions::kAutoRounds, 1e10),
            static_cast<int64_t>(std::ceil(std::log(1e10))));
  EXPECT_EQ(internal::ResolveRounds(KMeansLLOptions::kAutoRounds, 0.5), 1);
  EXPECT_EQ(internal::ResolveRounds(KMeansLLOptions::kAutoRounds, 1e300),
            40);  // capped
}

TEST(KMeansLLTest, ProducesExactlyKCenters) {
  auto gauss = MakeGauss(1000, 10, 61);
  KMeansLLOptions options;
  options.oversampling = 20.0;  // 2k
  options.rounds = 5;
  auto result = KMeansLLInit(gauss.data, 10, rng::Rng(62), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 10);
  EXPECT_EQ(result->centers.cols(), 8);
}

TEST(KMeansLLTest, IntermediateCentersApproximatelyREll) {
  // E[#selected per round] = ℓ; over r rounds plus the initial center the
  // telemetry count should be near 1 + r·ℓ (within 4σ ≈ 4√(rℓ)).
  auto gauss = MakeGauss(4000, 20, 63);
  KMeansLLOptions options;
  options.oversampling = 40.0;
  options.rounds = 5;
  auto result = KMeansLLInit(gauss.data, 20, rng::Rng(64), options);
  ASSERT_TRUE(result.ok());
  double expected = 1 + 5.0 * 40.0;
  EXPECT_NEAR(static_cast<double>(result->telemetry.intermediate_centers),
              expected, 4.0 * std::sqrt(5.0 * 40.0));
  EXPECT_EQ(result->telemetry.rounds, 5);
}

TEST(KMeansLLTest, RoundPotentialsDecay) {
  auto gauss = MakeGauss(2000, 15, 65);
  KMeansLLOptions options;
  options.oversampling = 30.0;
  options.rounds = 6;
  auto result = KMeansLLInit(gauss.data, 15, rng::Rng(66), options);
  ASSERT_TRUE(result.ok());
  const auto& potentials = result->telemetry.round_potentials;
  ASSERT_EQ(potentials.size(), 7u);  // ψ plus one per round
  for (size_t i = 1; i < potentials.size(); ++i) {
    EXPECT_LE(potentials[i], potentials[i - 1] * (1 + 1e-12));
  }
  // The paper's Theorem 2: expected constant-factor drop per round. With
  // ℓ = 2k the drop over 6 rounds must be large on clusterable data.
  EXPECT_LT(potentials.back(), potentials.front() * 0.05);
}

TEST(KMeansLLTest, ExactEllSelectsExactlyEllPerRound) {
  auto gauss = MakeGauss(3000, 10, 67);
  KMeansLLOptions options;
  options.oversampling = 25.0;
  options.rounds = 4;
  options.exact_ell = true;
  auto result = KMeansLLInit(gauss.data, 10, rng::Rng(68), options);
  ASSERT_TRUE(result.ok());
  // 1 initial + 4 rounds × exactly 25.
  EXPECT_EQ(result->telemetry.intermediate_centers, 1 + 4 * 25);
}

TEST(KMeansLLTest, UndershootReturnsCandidatesWithoutRecluster) {
  // r·ℓ < k: the candidate set stays below k and is returned as-is
  // (Figures 5.2/5.3's degraded regime).
  auto gauss = MakeGauss(2000, 50, 69);
  KMeansLLOptions options;
  options.oversampling = 5.0;  // 0.1k
  options.rounds = 2;          // expect ~11 candidates << k = 50
  options.exact_ell = true;    // deterministic count
  SetLogLevel(LogLevel::kError);  // silence the expected warning
  auto result = KMeansLLInit(gauss.data, 50, rng::Rng(70), options);
  SetLogLevel(LogLevel::kInfo);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 1 + 2 * 5);
  EXPECT_LT(result->centers.rows(), 50);
}

TEST(KMeansLLTest, ZeroRoundsYieldsSingleCenter) {
  auto gauss = MakeGauss(100, 3, 71);
  KMeansLLOptions options;
  options.rounds = 0;
  auto result = KMeansLLInit(gauss.data, 3, rng::Rng(72), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 1);  // only the uniform seed point
  EXPECT_EQ(result->telemetry.intermediate_centers, 1);
}

TEST(KMeansLLTest, DeterministicForSeed) {
  auto gauss = MakeGauss(1000, 8, 73);
  KMeansLLOptions options;
  options.oversampling = 16.0;
  options.rounds = 5;
  auto a = KMeansLLInit(gauss.data, 8, rng::Rng(74), options);
  auto b = KMeansLLInit(gauss.data, 8, rng::Rng(74), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->centers == b->centers);
  EXPECT_EQ(a->telemetry.intermediate_centers,
            b->telemetry.intermediate_centers);
  auto c = KMeansLLInit(gauss.data, 8, rng::Rng(75), options);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->centers == c->centers);
}

TEST(KMeansLLTest, CandidatesAreDataPoints) {
  auto gauss = MakeGauss(500, 5, 76);
  KMeansLLOptions options;
  options.recluster = ReclusterMethod::kWeightedKMeansPP;
  auto result = KMeansLLInit(gauss.data, 5, rng::Rng(77), options);
  ASSERT_TRUE(result.ok());
  // Pure k-means++ reclustering returns actual candidate points, which
  // are themselves data points.
  for (int64_t c = 0; c < result->centers.rows(); ++c) {
    bool found = false;
    for (int64_t i = 0; i < gauss.data.n() && !found; ++i) {
      found = SquaredL2(result->centers.Row(c), gauss.data.Point(i), 8) ==
              0.0;
    }
    EXPECT_TRUE(found) << "center " << c;
  }
}

TEST(KMeansLLTest, ReclusterWithLloydRefinementImprovesSeed) {
  auto gauss = MakeGauss(2000, 20, 78);
  auto run = [&](ReclusterMethod method) {
    KMeansLLOptions options;
    options.recluster = method;
    options.rounds = 5;
    return eval::RunTrials(5, [&](int64_t t) {
      auto result =
          KMeansLLInit(gauss.data, 20, rng::Rng(900 + t), options);
      KMEANSLL_CHECK(result.ok());
      return ComputeCost(gauss.data, result->centers);
    });
  };
  auto pure = run(ReclusterMethod::kWeightedKMeansPP);
  auto refined = run(ReclusterMethod::kWeightedKMeansPPPlusLloyd);
  EXPECT_LE(refined.median, pure.median * 1.02);
}

TEST(KMeansLLTest, SeedCostOnParWithKMeansPP) {
  // The paper's headline experimental claim (§5.1): after r=5 rounds with
  // ℓ = 2k, k-means|| seeds are as good as (typically better than)
  // k-means++ seeds. Compare medians over 7 trials.
  auto gauss = MakeGauss(3000, 20, 79);
  auto ll = eval::RunTrials(7, [&](int64_t t) {
    KMeansLLOptions options;
    options.oversampling = 40.0;
    options.rounds = 5;
    auto result = KMeansLLInit(gauss.data, 20, rng::Rng(300 + t), options);
    KMEANSLL_CHECK(result.ok());
    return ComputeCost(gauss.data, result->centers);
  });
  auto pp = eval::RunTrials(7, [&](int64_t t) {
    auto result = KMeansPPInit(gauss.data, 20, rng::Rng(400 + t));
    KMEANSLL_CHECK(result.ok());
    return ComputeCost(gauss.data, result->centers);
  });
  EXPECT_LE(ll.median, pp.median * 1.25);
}

TEST(KMeansLLTest, MoreRoundsNeverHurtMuch) {
  // Figure 5.1's monotonicity: with ℓ = k, increasing r decreases the
  // seed cost (compare r = 1 vs r = 8 medians).
  auto gauss = MakeGauss(2000, 16, 80);
  auto seed_cost = [&](int64_t rounds) {
    KMeansLLOptions options;
    options.oversampling = 16.0;
    options.rounds = rounds;
    options.exact_ell = true;
    return eval::RunTrials(5, [&](int64_t t) {
      auto result =
          KMeansLLInit(gauss.data, 16, rng::Rng(500 + t), options);
      KMEANSLL_CHECK(result.ok());
      return ComputeCost(gauss.data, result->centers);
    });
  };
  EXPECT_LT(seed_cost(8).median, seed_cost(1).median);
}

TEST(KMeansLLTest, WeightsAccumulateToTotalPointCount) {
  // Step 7 hands every point's weight to its closest candidate, so the
  // weights partition the data's total weight, and every candidate is a
  // data row. The weights below are multiples of 1/4, so every partial
  // sum is exact and the totals compare with ==.
  auto gauss = MakeGauss(800, 6, 81);
  const int64_t n = gauss.data.n(), d = gauss.data.dim();
  KMeansLLOptions options;
  options.rounds = 3;
  const auto sum = [](const std::vector<double>& w) {
    double total = 0.0;
    for (double x : w) total += x;
    return total;
  };
  const auto expect_data_rows = [&](const Matrix& candidates) {
    for (int64_t c = 0; c < candidates.rows(); ++c) {
      bool found = false;
      for (int64_t i = 0; i < n && !found; ++i) {
        found = std::equal(candidates.Row(c), candidates.Row(c) + d,
                           gauss.data.Point(i));
      }
      EXPECT_TRUE(found) << "candidate " << c;
    }
  };

  auto unit = internal::OversampleCandidates(gauss.data.AsSource(), 6,
                                             rng::Rng(82), options);
  ASSERT_TRUE(unit.ok());
  ASSERT_EQ(static_cast<int64_t>(unit->weights.size()),
            unit->candidates.rows());
  EXPECT_GT(unit->candidates.rows(), 6);
  EXPECT_EQ(sum(unit->weights), static_cast<double>(n));
  expect_data_rows(unit->candidates);

  std::vector<double> point_weights(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    point_weights[static_cast<size_t>(i)] = 0.25 * static_cast<double>(
                                                       1 + i % 7);
  }
  auto weighted_or = Dataset::WithWeights(gauss.data.points(), point_weights);
  ASSERT_TRUE(weighted_or.ok());
  const Dataset weighted = std::move(weighted_or).ValueOrDie();
  auto expected = internal::OversampleCandidates(weighted.AsSource(), 6,
                                                 rng::Rng(82), options);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(sum(expected->weights), weighted.TotalWeight());
  expect_data_rows(expected->candidates);

  // Bitwise the same output at pools null and 4, in memory and over a
  // sharded copy of the same rows.
  const std::string manifest = ScratchPath(
      "kmll_step7_" + std::to_string(::getpid()) + ".kml");
  auto written = data::WriteShards(weighted, manifest,
                                   data::ShardWriteOptions{.num_shards = 5});
  ASSERT_TRUE(written.ok());
  {
    auto sharded = data::ShardedDataset::Open(manifest);
    ASSERT_TRUE(sharded.ok());
    const InMemorySource in_memory = weighted.AsSource();
    ThreadPool pool(4);
    for (const DatasetSource* source :
         {static_cast<const DatasetSource*>(&in_memory),
          static_cast<const DatasetSource*>(&*sharded)}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(std::string(source == &in_memory ? "in memory"
                                                      : "sharded") +
                     (p == nullptr ? ", no pool" : ", pool of 4"));
        auto actual = internal::OversampleCandidates(*source, 6, rng::Rng(82),
                                                     options, p);
        ASSERT_TRUE(actual.ok());
        EXPECT_TRUE(actual->candidates == expected->candidates);
        EXPECT_EQ(actual->weights, expected->weights);
        EXPECT_EQ(actual->telemetry.round_potentials,
                  expected->telemetry.round_potentials);
        EXPECT_EQ(actual->telemetry.data_passes,
                  expected->telemetry.data_passes);
      }
    }
  }
  for (const data::ShardInfo& shard : written->shards) {
    std::remove(ShardFilePath(manifest, shard.file).c_str());
  }
  std::remove(manifest.c_str());
}

TEST(KMeansLLTest, WeightedCandidatesApproximateClusteringData) {
  // Theorem 1's premise: Steps 1–7's weighted candidates stand in for the
  // data. Seed and refine on them, evaluate on the full data: the result
  // must be within a small factor of clustering the full data directly.
  const int64_t k = 10;
  auto gauss = MakeGauss(6000, k, 407, /*spread=*/6.0);
  KMeansLLOptions sampling;
  sampling.oversampling = 60.0;
  sampling.rounds = 5;
  sampling.exact_ell = true;
  auto sampled = internal::OversampleCandidates(gauss.data.AsSource(), k,
                                                rng::Rng(408), sampling);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled->candidates.rows(), 301);
  auto candidates =
      Dataset::WithWeights(sampled->candidates, sampled->weights);
  ASSERT_TRUE(candidates.ok());

  auto candidate_seed = KMeansPPInit(*candidates, k, rng::Rng(409));
  ASSERT_TRUE(candidate_seed.ok());
  LloydOptions options;
  options.max_iterations = 50;
  auto candidate_model =
      RunLloyd(*candidates, candidate_seed->centers, options);
  ASSERT_TRUE(candidate_model.ok());
  double via_candidates = ComputeCost(gauss.data, candidate_model->centers);

  auto direct_seed = KMeansPPInit(gauss.data, k, rng::Rng(410));
  ASSERT_TRUE(direct_seed.ok());
  auto direct_model = RunLloyd(gauss.data, direct_seed->centers, options);
  ASSERT_TRUE(direct_model.ok());

  EXPECT_LT(via_candidates, 3.0 * direct_model->assignment.cost);
}

// Parameter sweep over (ℓ/k, exact) combinations: the algorithm always
// returns exactly k centers when r·ℓ comfortably exceeds k.
class KMeansLLSweepTest
    : public ::testing::TestWithParam<std::tuple<double, bool>> {};

TEST_P(KMeansLLSweepTest, AlwaysKCentersWhenOversampled) {
  auto [ell_factor, exact] = GetParam();
  const int64_t k = 12;
  auto gauss = MakeGauss(1500, k, 83);
  KMeansLLOptions options;
  options.oversampling = ell_factor * static_cast<double>(k);
  options.rounds = 5;
  options.exact_ell = exact;
  auto result = KMeansLLInit(gauss.data, k, rng::Rng(84), options);
  ASSERT_TRUE(result.ok());
  if (result->telemetry.intermediate_centers > k) {
    EXPECT_EQ(result->centers.rows(), k);
  }
  EXPECT_GT(result->telemetry.round_potentials.front(),
            result->telemetry.round_potentials.back());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KMeansLLSweepTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 10.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace kmeansll
