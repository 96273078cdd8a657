// Tests for src/data: synthetic generators (the paper's §4.1 datasets and
// their stand-ins), CSV IO, and transforms.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "data/csv.h"
#include "data/synthetic.h"
#include "data/transform.h"
#include "distance/l2.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll::data {
namespace {

// ----------------------------------------------------------- GaussMixture

TEST(GaussMixtureTest, ShapesAndLabels) {
  GaussMixtureParams params;
  params.n = 500;
  params.k = 10;
  params.dim = 15;
  auto result = GenerateGaussMixture(params, rng::Rng(1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data.n(), 500);
  EXPECT_EQ(result->data.dim(), 15);
  EXPECT_EQ(result->true_centers.rows(), 10);
  EXPECT_EQ(result->true_centers.cols(), 15);
  ASSERT_TRUE(result->data.has_labels());
  for (int32_t label : result->data.labels()) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST(GaussMixtureTest, AllComponentsUsed) {
  GaussMixtureParams params;
  params.n = 2000;
  params.k = 20;
  auto result = GenerateGaussMixture(params, rng::Rng(2));
  ASSERT_TRUE(result.ok());
  std::set<int32_t> seen(result->data.labels().begin(),
                         result->data.labels().end());
  EXPECT_EQ(seen.size(), 20u);
}

TEST(GaussMixtureTest, PointsNearTheirCenters) {
  // Unit-variance clusters in d=15: squared distance to own center has
  // mean 15.
  GaussMixtureParams params;
  params.n = 1000;
  params.k = 5;
  params.center_stddev = 10.0;
  auto result = GenerateGaussMixture(params, rng::Rng(3));
  ASSERT_TRUE(result.ok());
  double sum_d2 = 0;
  for (int64_t i = 0; i < result->data.n(); ++i) {
    int32_t label = result->data.labels()[static_cast<size_t>(i)];
    sum_d2 += SquaredL2(result->data.Point(i),
                        result->true_centers.Row(label), params.dim);
  }
  EXPECT_NEAR(sum_d2 / static_cast<double>(result->data.n()), 15.0, 2.0);
}

TEST(GaussMixtureTest, DeterministicForSeed) {
  GaussMixtureParams params;
  params.n = 100;
  params.k = 4;
  auto a = GenerateGaussMixture(params, rng::Rng(7));
  auto b = GenerateGaussMixture(params, rng::Rng(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->data.points() == b->data.points());
  EXPECT_TRUE(a->true_centers == b->true_centers);
  auto c = GenerateGaussMixture(params, rng::Rng(8));
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(a->data.points() == c->data.points());
}

TEST(GaussMixtureTest, RejectsBadParams) {
  GaussMixtureParams params;
  params.n = 5;
  params.k = 10;  // n < k
  EXPECT_FALSE(GenerateGaussMixture(params, rng::Rng(1)).ok());
  params = GaussMixtureParams();
  params.dim = 0;
  EXPECT_FALSE(GenerateGaussMixture(params, rng::Rng(1)).ok());
  params = GaussMixtureParams();
  params.center_stddev = -1.0;
  EXPECT_FALSE(GenerateGaussMixture(params, rng::Rng(1)).ok());
}

// --------------------------------------------------------------- SpamLike

TEST(SpamLikeTest, MatchesUciShapeByDefault) {
  auto result = GenerateSpamLike(SpamLikeParams(), rng::Rng(4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data.n(), 4601);
  EXPECT_EQ(result->data.dim(), 58);
}

TEST(SpamLikeTest, FeaturesAreNonNegativeForInliers) {
  SpamLikeParams params;
  params.n = 500;
  auto result = GenerateSpamLike(params, rng::Rng(5));
  ASSERT_TRUE(result.ok());
  for (int64_t i = 0; i < result->data.n(); ++i) {
    if (result->data.labels()[static_cast<size_t>(i)] < 0) continue;
    for (int64_t j = 0; j < result->data.dim(); ++j) {
      EXPECT_GE(result->data.Point(i)[j], 0.0);
    }
  }
}

TEST(SpamLikeTest, HasOutliers) {
  SpamLikeParams params;
  params.n = 1000;
  params.outlier_fraction = 0.02;
  auto result = GenerateSpamLike(params, rng::Rng(6));
  ASSERT_TRUE(result.ok());
  int64_t outliers = 0;
  for (int32_t label : result->data.labels()) {
    if (label < 0) ++outliers;
  }
  EXPECT_EQ(outliers, 20);
}

TEST(SpamLikeTest, RejectsBadOutlierFraction) {
  SpamLikeParams params;
  params.outlier_fraction = 1.5;
  EXPECT_FALSE(GenerateSpamLike(params, rng::Rng(1)).ok());
}

// ---------------------------------------------------------------- KddLike

TEST(KddLikeTest, ShapeAndDeterminism) {
  KddLikeParams params;
  params.n = 2000;
  auto a = GenerateKddLike(params, rng::Rng(8));
  auto b = GenerateKddLike(params, rng::Rng(8));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->data.n(), 2000);
  EXPECT_EQ(a->data.dim(), 42);
  EXPECT_TRUE(a->data.points() == b->data.points());
}

TEST(KddLikeTest, ClusterSizesAreSkewed) {
  KddLikeParams params;
  params.n = 10000;
  auto result = GenerateKddLike(params, rng::Rng(9));
  ASSERT_TRUE(result.ok());
  std::map<int32_t, int64_t> sizes;
  for (int32_t label : result->data.labels()) {
    if (label >= 0) ++sizes[label];
  }
  int64_t largest = 0, smallest = params.n;
  for (const auto& [label, size] : sizes) {
    largest = std::max(largest, size);
    smallest = std::min(smallest, size);
  }
  // Power-law: the dominant class dwarfs the rarest observed class.
  EXPECT_GT(largest, smallest * 20);
}

TEST(KddLikeTest, FeatureScalesSpanOrders) {
  KddLikeParams params;
  params.n = 5000;
  params.scale_spread = 1e4;
  auto result = GenerateKddLike(params, rng::Rng(10));
  ASSERT_TRUE(result.ok());
  ColumnStats stats = ComputeColumnStats(result->data.points());
  double min_spread = 1e300, max_spread = 0;
  for (int64_t j = 0; j < result->data.dim(); ++j) {
    double spread = stats.stddev[static_cast<size_t>(j)];
    if (spread <= 0) continue;
    min_spread = std::min(min_spread, spread);
    max_spread = std::max(max_spread, spread);
  }
  EXPECT_GT(max_spread / min_spread, 100.0);
}

// ----------------------------------------------------- Uniform / Separated

TEST(UniformTest, RangeRespected) {
  auto result = GenerateUniform(300, 4, -2.0, 3.0, rng::Rng(11));
  ASSERT_TRUE(result.ok());
  for (int64_t i = 0; i < result->n(); ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_GE(result->Point(i)[j], -2.0);
      EXPECT_LT(result->Point(i)[j], 3.0);
    }
  }
  EXPECT_FALSE(GenerateUniform(10, 2, 5.0, 5.0, rng::Rng(1)).ok());
}

TEST(SeparatedClustersTest, CentersAreSeparated) {
  auto result = GenerateSeparatedClusters(9, 50, 6, 100.0, rng::Rng(12));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->data.n(), 450);
  for (int64_t a = 0; a < 9; ++a) {
    for (int64_t b = a + 1; b < 9; ++b) {
      EXPECT_GE(SquaredL2(result->true_centers.Row(a),
                          result->true_centers.Row(b), 6),
                100.0 * 100.0 - 1e-9);
    }
  }
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTripMatrix) {
  Matrix m = Matrix::FromValues(3, 2, {1.5, -2.25, 0.0, 4.0, 1e10, -3e-7});
  std::string path = ScratchPath("kmeansll_csv_test.csv");
  ASSERT_TRUE(WriteCsv(m, path).ok());
  auto loaded = ReadCsv(path, CsvOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->n(), 3);
  ASSERT_EQ(loaded->dim(), 2);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(loaded->Point(i)[j], m.At(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, RoundTripLabels) {
  auto generated = GenerateSeparatedClusters(3, 5, 2, 10.0, rng::Rng(13));
  ASSERT_TRUE(generated.ok());
  std::string path = ScratchPath("kmeansll_csv_labels.csv");
  ASSERT_TRUE(WriteCsv(generated->data, path).ok());
  CsvOptions options;
  options.label_column = 2;  // label written last
  auto loaded = ReadCsv(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dim(), 2);
  ASSERT_TRUE(loaded->has_labels());
  EXPECT_EQ(loaded->labels(), generated->data.labels());
  std::remove(path.c_str());
}

TEST(CsvTest, RejectsMissingFileAndBadContent) {
  EXPECT_TRUE(ReadCsv("/nonexistent/nowhere.csv", CsvOptions())
                  .status()
                  .IsIOError());
  std::string path = ScratchPath("kmeansll_bad.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("1,2\n3,4,5\n", f);  // ragged rows
    fclose(f);
  }
  EXPECT_TRUE(ReadCsv(path, CsvOptions()).status().IsInvalidArgument());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("1,abc\n", f);  // non-numeric
    fclose(f);
  }
  EXPECT_TRUE(ReadCsv(path, CsvOptions()).status().IsInvalidArgument());
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("\n\n", f);  // no data
    fclose(f);
  }
  EXPECT_FALSE(ReadCsv(path, CsvOptions()).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderSkippedWhenConfigured) {
  std::string path = ScratchPath("kmeansll_header.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("colA,colB\n1,2\n3,4\n", f);
    fclose(f);
  }
  CsvOptions options;
  options.has_header = true;
  auto loaded = ReadCsv(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->n(), 2);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- Transform

TEST(ColumnStatsTest, KnownValues) {
  Matrix m = Matrix::FromValues(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  ColumnStats stats = ComputeColumnStats(m);
  EXPECT_DOUBLE_EQ(stats.mean[0], 2.5);
  EXPECT_DOUBLE_EQ(stats.mean[1], 25.0);
  EXPECT_DOUBLE_EQ(stats.min[0], 1.0);
  EXPECT_DOUBLE_EQ(stats.max[1], 40.0);
  EXPECT_NEAR(stats.stddev[0], std::sqrt(1.25), 1e-12);  // population
}

TEST(StandardizeTest, ProducesZeroMeanUnitVariance) {
  auto generated = GenerateUniform(500, 3, -5.0, 20.0, rng::Rng(14));
  ASSERT_TRUE(generated.ok());
  ColumnStats stats = ComputeColumnStats(generated->points());
  Matrix standardized = Standardize(generated->points(), stats);
  ColumnStats after = ComputeColumnStats(standardized);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(after.mean[static_cast<size_t>(j)], 0.0, 1e-9);
    EXPECT_NEAR(after.stddev[static_cast<size_t>(j)], 1.0, 1e-9);
  }
}

TEST(StandardizeTest, ConstantColumnOnlyCentered) {
  Matrix m = Matrix::FromValues(3, 1, {7, 7, 7});
  ColumnStats stats = ComputeColumnStats(m);
  Matrix out = Standardize(m, stats);
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(out.At(i, 0), 0.0);
}

TEST(MinMaxScaleTest, MapsToUnitInterval) {
  Matrix m = Matrix::FromValues(3, 2, {0, 5, 5, 10, 10, 15});
  ColumnStats stats = ComputeColumnStats(m);
  Matrix out = MinMaxScale(m, stats);
  EXPECT_DOUBLE_EQ(out.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.At(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(out.At(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(out.At(2, 1), 1.0);
}

TEST(ShuffleRowsTest, PreservesMultisetOfRows) {
  auto generated = GenerateUniform(200, 2, 0.0, 1.0, rng::Rng(15));
  ASSERT_TRUE(generated.ok());
  Dataset shuffled = ShuffleRows(*generated, rng::Rng(16));
  ASSERT_EQ(shuffled.n(), 200);
  auto key = [](const double* p) { return std::pair(p[0], p[1]); };
  std::multiset<std::pair<double, double>> before, after;
  for (int64_t i = 0; i < 200; ++i) {
    before.insert(key(generated->Point(i)));
    after.insert(key(shuffled.Point(i)));
  }
  EXPECT_EQ(before, after);
  // And it actually permutes something.
  EXPECT_FALSE(shuffled.points() == generated->points());
}

TEST(SampleFractionTest, SizeAndDistinctness) {
  auto generated = GenerateUniform(1000, 1, 0.0, 1.0, rng::Rng(17));
  ASSERT_TRUE(generated.ok());
  auto sample = SampleFraction(*generated, 0.1, rng::Rng(18));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->n(), 100);
  std::set<double> values;
  for (int64_t i = 0; i < sample->n(); ++i) {
    values.insert(sample->Point(i)[0]);
  }
  EXPECT_EQ(values.size(), 100u);  // without replacement
}

TEST(SampleFractionTest, FullFractionReturnsEverything) {
  auto generated = GenerateUniform(50, 1, 0.0, 1.0, rng::Rng(19));
  ASSERT_TRUE(generated.ok());
  auto sample = SampleFraction(*generated, 1.0, rng::Rng(20));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->n(), 50);
}

TEST(SampleFractionTest, RejectsBadFraction) {
  auto generated = GenerateUniform(50, 1, 0.0, 1.0, rng::Rng(21));
  ASSERT_TRUE(generated.ok());
  EXPECT_FALSE(SampleFraction(*generated, 0.0, rng::Rng(1)).ok());
  EXPECT_FALSE(SampleFraction(*generated, 1.5, rng::Rng(1)).ok());
  EXPECT_FALSE(SampleFraction(*generated, -0.1, rng::Rng(1)).ok());
}

}  // namespace
}  // namespace kmeansll::data
