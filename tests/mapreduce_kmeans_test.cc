// Tests for clustering/mapreduce_kmeans — the §3.5 MapReduce drivers must
// agree with the sequential reference implementations.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "clustering/mapreduce_kmeans.h"
#include "data/synthetic.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

data::LabeledData MakeGauss(int64_t n, int64_t k, uint64_t seed) {
  auto generated = data::GenerateGaussMixture(
      {.n = n, .k = k, .dim = 7, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(seed));
  KMEANSLL_CHECK(generated.ok());
  return std::move(generated).ValueOrDie();
}

TEST(MRComputeCostTest, MatchesSequentialCost) {
  auto gauss = MakeGauss(1500, 8, 120);
  MRContext ctx;
  ctx.num_partitions = 6;
  double mr = MRComputeCost(gauss.data, gauss.true_centers, ctx)
                  .ValueOrDie();
  double seq = ComputeCost(gauss.data, gauss.true_centers);
  EXPECT_NEAR(mr, seq, 1e-9 * (1 + seq));
}

TEST(MRComputeCostTest, PartitionCountInvariant) {
  auto gauss = MakeGauss(1000, 5, 121);
  double reference = 0;
  for (int64_t parts : {1, 3, 8, 17}) {
    MRContext ctx;
    ctx.num_partitions = parts;
    double cost = MRComputeCost(gauss.data, gauss.true_centers, ctx)
                      .ValueOrDie();
    if (parts == 1) {
      reference = cost;
    } else {
      EXPECT_NEAR(cost, reference, 1e-9 * (1 + reference))
          << parts << " partitions";
    }
  }
}

TEST(MRComputeCostTest, CountsJobAndPass) {
  auto gauss = MakeGauss(500, 4, 122);
  mapreduce::Counters counters;
  MRContext ctx;
  ctx.num_partitions = 4;
  ctx.counters = &counters;
  ASSERT_TRUE(MRComputeCost(gauss.data, gauss.true_centers, ctx).ok());
  EXPECT_EQ(counters.Get(mapreduce::kCounterJobs), 1);
  EXPECT_EQ(counters.Get(mapreduce::kCounterDataPasses), 1);
  EXPECT_EQ(counters.Get(mapreduce::kCounterMapTasks), 4);
}

TEST(MRKMeansLLTest, MatchesSequentialCandidateSelection) {
  // The per-point hashed randomness makes the MR and sequential drivers
  // select identical candidate sets for the same seed; the final centers
  // then agree to floating-point noise.
  auto gauss = MakeGauss(2000, 10, 123);
  KMeansLLOptions options;
  options.oversampling = 20.0;
  options.rounds = 5;

  auto sequential = KMeansLLInit(gauss.data, 10, rng::Rng(124), options);
  ASSERT_TRUE(sequential.ok());

  MRContext ctx;
  ctx.num_partitions = 7;
  auto mr = MRKMeansLLInit(gauss.data, 10, rng::Rng(124), options, ctx);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->telemetry.intermediate_centers,
            sequential->telemetry.intermediate_centers);
  ASSERT_EQ(mr->centers.rows(), sequential->centers.rows());
  for (int64_t c = 0; c < mr->centers.rows(); ++c) {
    for (int64_t j = 0; j < mr->centers.cols(); ++j) {
      EXPECT_NEAR(mr->centers.At(c, j), sequential->centers.At(c, j),
                  1e-9 * (1 + std::fabs(sequential->centers.At(c, j))))
          << "center " << c << " dim " << j;
    }
  }
  // Round potentials agree as well.
  ASSERT_EQ(mr->telemetry.round_potentials.size(),
            sequential->telemetry.round_potentials.size());
  for (size_t r = 0; r < mr->telemetry.round_potentials.size(); ++r) {
    EXPECT_NEAR(mr->telemetry.round_potentials[r],
                sequential->telemetry.round_potentials[r],
                1e-9 * (1 + sequential->telemetry.round_potentials[r]));
  }
}

TEST(MRKMeansLLTest, PartitionCountDoesNotChangeSelection) {
  auto gauss = MakeGauss(1200, 6, 125);
  KMeansLLOptions options;
  options.oversampling = 12.0;
  options.rounds = 4;
  InitResult reference;
  bool have_reference = false;
  for (int64_t parts : {1, 4, 13}) {
    MRContext ctx;
    ctx.num_partitions = parts;
    auto result = MRKMeansLLInit(gauss.data, 6, rng::Rng(126), options, ctx);
    ASSERT_TRUE(result.ok());
    if (!have_reference) {
      reference = std::move(result).ValueOrDie();
      have_reference = true;
      continue;
    }
    EXPECT_EQ(result->telemetry.intermediate_centers,
              reference.telemetry.intermediate_centers)
        << parts << " partitions";
  }
}

TEST(MRKMeansLLTest, ExactEllModeWorks) {
  auto gauss = MakeGauss(1500, 8, 127);
  KMeansLLOptions options;
  options.oversampling = 16.0;
  options.rounds = 4;
  options.exact_ell = true;
  MRContext ctx;
  ctx.num_partitions = 5;
  auto result = MRKMeansLLInit(gauss.data, 8, rng::Rng(128), options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->telemetry.intermediate_centers, 1 + 4 * 16);
  EXPECT_EQ(result->centers.rows(), 8);

  // Exact-ℓ selection matches the sequential exact-ℓ driver.
  auto sequential = KMeansLLInit(gauss.data, 8, rng::Rng(128), options);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(sequential->telemetry.intermediate_centers,
            result->telemetry.intermediate_centers);
}

TEST(MRKMeansLLTest, ValidatesArguments) {
  auto gauss = MakeGauss(100, 3, 129);
  MRContext ctx;
  EXPECT_FALSE(MRKMeansLLInit(gauss.data, 0, rng::Rng(1), {}, ctx).ok());
  EXPECT_FALSE(MRKMeansLLInit(gauss.data, 101, rng::Rng(1), {}, ctx).ok());
}

TEST(MRKMeansLLTest, RunsOnThreadPool) {
  auto gauss = MakeGauss(1000, 6, 130);
  ThreadPool pool(4);
  KMeansLLOptions options;
  options.rounds = 3;
  MRContext with_pool;
  with_pool.num_partitions = 8;
  with_pool.pool = &pool;
  auto pooled =
      MRKMeansLLInit(gauss.data, 6, rng::Rng(131), options, with_pool);
  ASSERT_TRUE(pooled.ok());
  MRContext inline_ctx;
  inline_ctx.num_partitions = 8;
  auto inlined =
      MRKMeansLLInit(gauss.data, 6, rng::Rng(131), options, inline_ctx);
  ASSERT_TRUE(inlined.ok());
  EXPECT_EQ(pooled->telemetry.intermediate_centers,
            inlined->telemetry.intermediate_centers);
  EXPECT_TRUE(pooled->centers == inlined->centers);
}

TEST(MRRunLloydTest, MatchesSequentialLloydCost) {
  auto gauss = MakeGauss(1500, 8, 132);
  std::vector<int64_t> seeds;
  for (int64_t i = 0; i < 8; ++i) seeds.push_back(i * 150);
  Matrix start = gauss.data.points().GatherRows(seeds);

  LloydOptions options;
  options.max_iterations = 25;
  auto sequential = RunLloyd(gauss.data, start, options);
  ASSERT_TRUE(sequential.ok());

  MRContext ctx;
  ctx.num_partitions = 6;
  auto mr = MRRunLloyd(gauss.data, start, options, ctx);
  ASSERT_TRUE(mr.ok());

  // Summation order differs; costs agree to relative 1e-9 and the final
  // potentials describe equally good local optima.
  EXPECT_NEAR(mr->assignment.cost, sequential->assignment.cost,
              1e-6 * (1 + sequential->assignment.cost));
  EXPECT_EQ(mr->iterations, sequential->iterations);
  EXPECT_EQ(mr->converged, sequential->converged);
}

// An outlier initial center that no point chooses leaves its cluster
// empty after one iteration; MR must reseed it with the same point
// RunLloyd's shared repair picks, in both kernel regimes and on a pool.
TEST(MRRunLloydTest, EmptyClusterRepairMatchesRunLloyd) {
  for (int64_t dim : {7, 40}) {  // plain and expanded kAuto kernels
    SCOPED_TRACE("dim=" + std::to_string(dim));
    auto generated = data::GenerateGaussMixture(
        {.n = 600, .k = 4, .dim = dim, .center_stddev = 5.0,
         .cluster_stddev = 1.0},
        rng::Rng(135 + static_cast<uint64_t>(dim)));
    ASSERT_TRUE(generated.ok());
    const Dataset& data = generated->data;
    Matrix start = data.points().GatherRows({0, 150, 300});
    std::vector<double> outlier(static_cast<size_t>(dim), 1e6);
    start.AppendRow(outlier.data());
    const int64_t repaired_row = 3;

    LloydOptions options;
    options.max_iterations = 1;
    auto sequential = RunLloyd(data, start, options);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(sequential->empty_cluster_repairs, 1);

    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      MRContext ctx;
      ctx.num_partitions = 5;
      ctx.pool = p;
      auto mr = MRRunLloyd(data, start, options, ctx);
      ASSERT_TRUE(mr.ok());
      EXPECT_EQ(mr->empty_cluster_repairs,
                sequential->empty_cluster_repairs);
      for (int64_t j = 0; j < dim; ++j) {
        EXPECT_EQ(mr->centers.At(repaired_row, j),
                  sequential->centers.At(repaired_row, j))
            << "j=" << j;  // bitwise: the same data point
      }
    }
  }
}

TEST(MRRunLloydTest, ValidatesInputs) {
  auto gauss = MakeGauss(100, 3, 133);
  MRContext ctx;
  EXPECT_FALSE(MRRunLloyd(gauss.data, Matrix(7), {}, ctx).ok());
  Matrix wrong = Matrix::FromValues(1, 2, {0, 0});
  EXPECT_FALSE(MRRunLloyd(gauss.data, wrong, {}, ctx).ok());
}

TEST(MRRandomInitTest, SelectsKDistinctDataPoints) {
  auto gauss = MakeGauss(800, 5, 140);
  MRContext ctx;
  ctx.num_partitions = 6;
  auto result = MRRandomInit(gauss.data, 12, rng::Rng(141), ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 12);
  // Distinct rows (hashed-key selection is without replacement).
  for (int64_t a = 0; a < 12; ++a) {
    for (int64_t b = a + 1; b < 12; ++b) {
      bool identical = true;
      for (int64_t j = 0; j < 7 && identical; ++j) {
        identical = result->centers.At(a, j) == result->centers.At(b, j);
      }
      EXPECT_FALSE(identical) << a << " vs " << b;
    }
  }
}

TEST(MRRandomInitTest, PartitionCountInvariant) {
  auto gauss = MakeGauss(500, 4, 142);
  Matrix reference;
  for (int64_t parts : {1, 5, 11}) {
    MRContext ctx;
    ctx.num_partitions = parts;
    auto result = MRRandomInit(gauss.data, 8, rng::Rng(143), ctx);
    ASSERT_TRUE(result.ok());
    if (parts == 1) {
      reference = std::move(result->centers);
    } else {
      EXPECT_TRUE(result->centers == reference) << parts << " partitions";
    }
  }
}

TEST(MRRandomInitTest, ValidatesArguments) {
  auto gauss = MakeGauss(50, 3, 144);
  MRContext ctx;
  EXPECT_FALSE(MRRandomInit(gauss.data, 0, rng::Rng(1), ctx).ok());
  EXPECT_FALSE(MRRandomInit(gauss.data, 51, rng::Rng(1), ctx).ok());
}

TEST(MRPartitionInitTest, ProducesKCentersWithGroupStructure) {
  auto gauss = MakeGauss(1200, 8, 145);
  MRContext ctx;
  ctx.num_partitions = 8;  // the algorithm's m
  PartitionOptions options;
  auto result = MRPartitionInit(gauss.data, 8, rng::Rng(146), options, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centers.rows(), 8);
  EXPECT_EQ(result->telemetry.rounds, 2);
  EXPECT_GT(result->telemetry.intermediate_centers, 8);
}

TEST(MRPartitionInitTest, MatchesSequentialWhenGroupsAlign) {
  // With num_groups == num_partitions and aligned split boundaries, the
  // MR driver and the sequential PartitionInit perform identical
  // per-group work and must produce identical centers.
  auto gauss = MakeGauss(900, 6, 147);
  PartitionOptions options;
  options.num_groups = 6;
  auto sequential = PartitionInit(gauss.data, 6, rng::Rng(148), options);
  ASSERT_TRUE(sequential.ok());

  MRContext ctx;
  ctx.num_partitions = 6;
  PartitionOptions mr_options;  // num_groups <= 0 accepts ctx's split
  auto mr = MRPartitionInit(gauss.data, 6, rng::Rng(148), mr_options, ctx);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->telemetry.intermediate_centers,
            sequential->telemetry.intermediate_centers);
  EXPECT_TRUE(mr->centers == sequential->centers);
}

TEST(MRPartitionInitTest, RejectsMismatchedGroupCount) {
  auto gauss = MakeGauss(300, 4, 149);
  MRContext ctx;
  ctx.num_partitions = 5;
  PartitionOptions options;
  options.num_groups = 7;
  EXPECT_TRUE(MRPartitionInit(gauss.data, 4, rng::Rng(1), options, ctx)
                  .status()
                  .IsInvalidArgument());
}

TEST(MRRunLloydTest, CountsOneJobPerIteration) {
  auto gauss = MakeGauss(500, 4, 134);
  std::vector<int64_t> seeds = {0, 100, 200, 300};
  Matrix start = gauss.data.points().GatherRows(seeds);
  mapreduce::Counters counters;
  MRContext ctx;
  ctx.num_partitions = 4;
  ctx.counters = &counters;
  LloydOptions options;
  options.max_iterations = 5;
  auto result = MRRunLloyd(gauss.data, start, options, ctx);
  ASSERT_TRUE(result.ok());
  // iterations jobs + 1 final cost job.
  EXPECT_EQ(counters.Get(mapreduce::kCounterJobs),
            result->iterations + 1);
}

}  // namespace
}  // namespace kmeansll
