// Tests for the blocked batch-distance engine (distance/batch.h): the
// blocked kernels agree with the scalar NearestCenterSearch reference on
// random and adversarial (duplicate / collinear) inputs, tie-breaking is
// identical to a sequential ascending scan, and every consumer is
// bitwise-deterministic across thread counts (pool = null, 1, 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

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

// Shapes straddling every blocking boundary: point tile (64), panel
// width (16, with and without residue), micro-pair (2), and the
// plain/expanded kAuto crossover (kExpandedKernelMinDim).
struct Shape {
  int64_t n, k, d;
};
const Shape kShapes[] = {
    {1, 1, 1},    {3, 2, 3},    {65, 5, 7},    {130, 16, 9},
    {64, 17, 16}, {100, 33, 32}, {129, 64, 40}, {67, 31, 64},
};

TEST(BatchEngineTest, MatchesScalarReferenceOnRandomInputs) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 101 + s.n, 5.0);
    Matrix centers = RandomMatrix(s.k, s.d, 202 + s.k, 5.0);
    NearestCenterSearch reference(centers,
                                  NearestCenterSearch::Kernel::kPlain);
    NearestCenterSearch blocked(centers);
    std::vector<int32_t> idx(static_cast<size_t>(s.n));
    std::vector<double> d2(static_cast<size_t>(s.n));
    blocked.FindRange(points, IndexRange{0, s.n}, nullptr, idx.data(),
                      d2.data());
    for (int64_t i = 0; i < s.n; ++i) {
      NearestResult expected = reference.Find(points.Row(i));
      EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index)
          << "n=" << s.n << " k=" << s.k << " d=" << s.d << " point " << i;
      EXPECT_NEAR(d2[static_cast<size_t>(i)], expected.distance2,
                  1e-9 * (1.0 + expected.distance2));
    }
  }
}

TEST(BatchEngineTest, FindAllMatchesFind) {
  Matrix points = RandomMatrix(150, 24, 303, 3.0);
  Matrix centers = RandomMatrix(40, 24, 404, 3.0);
  NearestCenterSearch search(centers);
  std::vector<int32_t> idx;
  std::vector<double> d2;
  search.FindAll(points, &idx, &d2);
  ASSERT_EQ(idx.size(), 150u);
  for (int64_t i = 0; i < points.rows(); ++i) {
    NearestResult expected = search.Find(points.Row(i));
    EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index) << "point " << i;
    EXPECT_NEAR(d2[static_cast<size_t>(i)], expected.distance2,
                1e-9 * (1.0 + expected.distance2));
  }
}

// Adversarial: integer-coordinate points (all kernel arithmetic exact, so
// plain, expanded, FMA, and non-FMA paths produce identical values) with
// duplicated rows. A point equal to a center must report distance
// exactly 0 with the lowest matching center index.
TEST(BatchEngineTest, DuplicatePointsExactOnIntegerGrid) {
  const int64_t d = 40;  // forces the expanded kernel under kAuto
  Matrix centers(0, d);
  centers = Matrix(6, d);
  for (int64_t c = 0; c < 6; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      centers.At(c, j) = static_cast<double>((c / 2) * 3 + (j % 5));
    }
  }
  // Centers 0/1, 2/3, 4/5 are pairwise bitwise-identical duplicates.
  Matrix points(12, d);
  for (int64_t i = 0; i < 12; ++i) {
    std::memcpy(points.Row(i), centers.Row(i % 6),
                static_cast<size_t>(d) * sizeof(double));
  }
  NearestCenterSearch blocked(centers);
  ASSERT_TRUE(blocked.uses_expanded_kernel());
  std::vector<int32_t> idx(12);
  std::vector<double> d2(12);
  blocked.FindRange(points, IndexRange{0, 12}, nullptr, idx.data(),
                    d2.data());
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(d2[static_cast<size_t>(i)], 0.0) << "point " << i;
    // The duplicate pair {2c, 2c+1} ties; the lowest index must win.
    EXPECT_EQ(idx[static_cast<size_t>(i)], ((i % 6) / 2) * 2)
        << "point " << i;
  }
}

// Adversarial: collinear points with centers equidistant from a query —
// exact arithmetic, so the tie must break to the lowest center index in
// every kernel, exactly like the scalar ascending scan.
TEST(BatchEngineTest, CollinearTieBreaksToLowestIndex) {
  for (int64_t d : {4, 40}) {  // plain and expanded kAuto regimes
    Matrix centers(3, d);
    for (int64_t j = 0; j < d; ++j) {
      centers.At(0, j) = -1.0;
      centers.At(1, j) = 1.0;
      centers.At(2, j) = 1.0;  // duplicate of center 1
    }
    Matrix query(1, d);  // origin: equidistant from all three centers
    NearestCenterSearch blocked(centers);
    std::vector<int32_t> idx(1);
    std::vector<double> d2(1);
    blocked.FindRange(query, IndexRange{0, 1}, nullptr, idx.data(),
                      d2.data());
    EXPECT_EQ(idx[0], 0) << "d=" << d;
    EXPECT_EQ(d2[0], static_cast<double>(d)) << "d=" << d;
  }
}

// Merge semantics: an equal-distance center added later must NOT replace
// the incumbent (strict-< update), mirroring the sequential scan.
TEST(BatchEngineTest, MergeKeepsExistingOnTie) {
  const int64_t d = 8;
  Matrix center(1, d);  // all zeros
  Matrix point(1, d);
  for (int64_t j = 0; j < d; ++j) point.At(0, j) = 2.0;
  double best_d2 = 4.0 * d;  // exactly the distance the scan will find
  int32_t best_idx = 7;      // sentinel incumbent
  BatchNearestMerge(point, IndexRange{0, 1}, nullptr, center, 0, nullptr,
                    BatchKernel::kPlain, &best_d2, &best_idx);
  EXPECT_EQ(best_idx, 7);
  EXPECT_EQ(best_d2, 4.0 * d);
}

// --- Scalar / batched chain consistency ---------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// The scalar chain every merge path must reproduce: each (point, center)
// value from PairSquaredL2 (plain) or SquaredL2Expanded over
// PairDotProduct (expanded), folded into (best_d2, best_index) by a
// sequential ascending strict-< scan over centers [first_center, k).
// Output arrays are indexed relative to rows.begin.
void ScalarChainMerge(const Matrix& points, IndexRange rows,
                      const Matrix& centers, int64_t first_center,
                      bool expanded, double* best_d2, int32_t* best_index) {
  const int64_t d = points.cols();
  for (int64_t i = rows.begin; i < rows.end; ++i) {
    const double* x = points.Row(i);
    const double pn = SquaredNorm(x, d);
    double& bd = best_d2[i - rows.begin];
    int32_t& bi = best_index[i - rows.begin];
    for (int64_t c = first_center; c < centers.rows(); ++c) {
      const double* y = centers.Row(c);
      const double v = expanded ? SquaredL2Expanded(pn, SquaredNorm(y, d),
                                                    PairDotProduct(x, y, d))
                                : PairSquaredL2(x, y, d);
      if (v < bd) {
        bd = v;
        bi = static_cast<int32_t>(c);
      }
    }
  }
}

// Merges centers [first_center, k) into rows [rows.begin, rows.end) with
// BatchNearestMerge, with and without the index, starting from
// (start_d2, start_index) (entry i - rows.begin for row i), and checks
// every row against ScalarChainMerge bit for bit. Returns a description
// of the first mismatching row, or "" when all match.
std::string CheckMergeAgainstScalarChain(const Matrix& points,
                                         IndexRange rows,
                                         const Matrix& centers,
                                         int64_t first_center, bool expanded,
                                         const double* start_d2,
                                         const int32_t* start_index) {
  const int64_t n = rows.size();
  std::vector<double> want_d2(start_d2, start_d2 + n);
  std::vector<int32_t> want_index(start_index, start_index + n);
  std::vector<double> got_d2 = want_d2, distance_only = want_d2;
  std::vector<int32_t> got_index = want_index;
  ScalarChainMerge(points, rows, centers, first_center, expanded,
                   want_d2.data(), want_index.data());

  std::vector<double> point_norms(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    point_norms[static_cast<size_t>(i)] =
        SquaredNorm(points.Row(rows.begin + i), points.cols());
  }
  std::vector<double> center_norms = RowSquaredNorms(centers);
  CenterPanels panels;
  panels.Pack(centers, first_center);
  const BatchKernel kernel =
      expanded ? BatchKernel::kExpanded : BatchKernel::kPlain;
  BatchNearestMerge(points, rows, point_norms.data(), panels,
                    center_norms.data() + first_center, kernel,
                    got_d2.data(), got_index.data());
  BatchNearestMerge(points, rows, point_norms.data(), panels,
                    center_norms.data() + first_center, kernel,
                    distance_only.data(), nullptr);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    if (SameBits(got_d2[i], want_d2[i]) && got_index[i] == want_index[i] &&
        SameBits(distance_only[i], want_d2[i])) {
      continue;
    }
    std::ostringstream msg;
    msg << "rows [" << rows.begin << ", " << rows.end << ") k="
        << centers.rows() << " d=" << points.cols()
        << " first_center=" << first_center << " expanded=" << expanded
        << " row " << rows.begin + static_cast<int64_t>(i) << ": want ("
        << want_d2[i] << ", " << want_index[i] << ") got (" << got_d2[i]
        << ", " << got_index[i] << "), distance-only " << distance_only[i];
    return msg.str();
  }
  return "";
}

// The scalar Find path and the blocked batch path must agree BITWISE
// (values, not just argmin): both run the engine's per-pair accumulation
// chains (PairSquaredL2 / PairDotProduct mirror the panel kernels,
// including FMA contraction on AVX2 machines).
TEST(BatchEngineTest, ScalarAndBatchedValuesBitwiseEqual) {
  for (auto kernel : {NearestCenterSearch::Kernel::kPlain,
                      NearestCenterSearch::Kernel::kExpanded}) {
    const int64_t n = 97, k = 23, d = 33;
    Matrix points = RandomMatrix(n, d, 555, 3.0);
    Matrix centers = RandomMatrix(k, d, 666, 3.0);
    NearestCenterSearch search(centers, kernel);
    std::vector<int32_t> idx(static_cast<size_t>(n));
    std::vector<double> d2(static_cast<size_t>(n));
    search.FindRange(points, IndexRange{0, n}, nullptr, idx.data(),
                     d2.data());
    for (int64_t i = 0; i < n; ++i) {
      NearestResult expected = search.Find(points.Row(i));
      EXPECT_EQ(idx[static_cast<size_t>(i)], expected.index);
      EXPECT_EQ(d2[static_cast<size_t>(i)], expected.distance2)  // bitwise
          << "point " << i << " expanded="
          << (kernel == NearestCenterSearch::Kernel::kExpanded);
    }
  }

  // Sweep over every blocking boundary of the merge paths. Rows 1-17 and
  // 64-73 cover whole blocks of the AVX-512 kernel (8 rows) and every
  // remainder; k = 1-17, 31-33, 100 and 200 cover every residue width of
  // the 16-wide panels; d straddles the plain/expanded crossover. Each
  // shape merges into fresh (+inf, -1) arrays and, at a nonzero
  // first_center, into arrays already holding the earlier centers' scan.
  // The range starts at row 3, so blocks do not start on row 0.
  std::printf("[ dispatch ] batch kernels: %s\n", BatchKernelIsa());
  std::vector<int64_t> row_counts, ks;
  for (int64_t n = 1; n <= 17; ++n) row_counts.push_back(n);
  for (int64_t n = 64; n <= 73; ++n) row_counts.push_back(n);
  for (int64_t k = 1; k <= 17; ++k) ks.push_back(k);
  for (int64_t k : {31, 32, 33, 100, 200}) ks.push_back(k);
  constexpr int64_t kFirstRow = 3;
  const int64_t total_rows = kFirstRow + row_counts.back();
  int64_t mismatches = 0;
  std::string first_mismatch;
  for (int64_t d : {1, 7, 16, 31, 32, 33, 64}) {
    Matrix points = RandomMatrix(total_rows, d, 900 + d, 3.0);
    for (int64_t k : ks) {
      Matrix centers = RandomMatrix(k, d, 1000 + 7 * k + d, 3.0);
      for (bool expanded : {false, true}) {
        for (int64_t first_center : {int64_t{0}, std::max<int64_t>(1, k / 3)}) {
          if (first_center >= k) continue;
          std::vector<double> start_d2(
              static_cast<size_t>(total_rows),
              std::numeric_limits<double>::infinity());
          std::vector<int32_t> start_index(static_cast<size_t>(total_rows),
                                           -1);
          // Incremental: the earlier centers are already merged.
          Matrix earlier(0, d);
          for (int64_t c = 0; c < first_center; ++c) {
            earlier.AppendRow(centers.Row(c));
          }
          ScalarChainMerge(points, IndexRange{0, total_rows}, earlier, 0,
                           expanded, start_d2.data(), start_index.data());
          for (int64_t n : row_counts) {
            const std::string mismatch = CheckMergeAgainstScalarChain(
                points, IndexRange{kFirstRow, kFirstRow + n}, centers,
                first_center, expanded, start_d2.data() + kFirstRow,
                start_index.data() + kFirstRow);
            if (mismatch.empty()) continue;
            if (mismatches++ == 0) first_mismatch = mismatch;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first_mismatch;
}

// Adversarial inputs for the merge paths, each checked bit for bit
// against the scalar chain over 19 rows (two whole AVX-512 blocks and a
// remainder of 3), plain and expanded.
TEST(BatchEngineTest, AdversarialMergesMatchScalarChain) {
  constexpr int64_t kRows = 19;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> fresh_d2(kRows, inf);
  const std::vector<int32_t> fresh_index(kRows, -1);
  const IndexRange all{0, kRows};

  for (int64_t d : {7, 33}) {
    // Duplicate centers: center c repeats pattern c % 3, so equal values
    // sit in the same lane of successive panels and in neighbouring
    // lanes. The lowest index of the tied pattern must win, and a merge
    // of later duplicates must keep it.
    Matrix patterns = RandomMatrix(3, d, 31 + d, 2.0);
    Matrix duplicates(37, d);
    for (int64_t c = 0; c < duplicates.rows(); ++c) {
      std::memcpy(duplicates.Row(c), patterns.Row(c % 3),
                  static_cast<size_t>(d) * sizeof(double));
    }
    Matrix points = RandomMatrix(kRows, d, 41 + d, 2.0);
    for (bool expanded : {false, true}) {
      EXPECT_EQ(CheckMergeAgainstScalarChain(points, all, duplicates, 0,
                                             expanded, fresh_d2.data(),
                                             fresh_index.data()),
                "");
      std::vector<double> d2 = fresh_d2;
      std::vector<int32_t> index = fresh_index;
      BatchNearestMerge(points, all, nullptr, duplicates, 0, nullptr,
                        expanded ? BatchKernel::kExpanded
                                 : BatchKernel::kPlain,
                        d2.data(), index.data());
      for (int64_t i = 0; i < kRows; ++i) {
        EXPECT_LT(index[static_cast<size_t>(i)], 3) << "row " << i;
      }
      // The incumbents already hold every pattern's value: merging the
      // later duplicates (from center 5 on) ties them.
      EXPECT_EQ(CheckMergeAgainstScalarChain(points, all, duplicates, 5,
                                             expanded, d2.data(),
                                             index.data()),
                "");

      // A new center tying the incumbent: the incumbent stays.
      Matrix centers = RandomMatrix(21, d, 51 + d, 2.0);
      std::vector<double> tie_d2 = fresh_d2;
      std::vector<int32_t> tie_index = fresh_index;
      ScalarChainMerge(points, all, centers, 0, expanded, tie_d2.data(),
                       tie_index.data());
      std::fill(tie_index.begin(), tie_index.end(), 1000);
      EXPECT_EQ(CheckMergeAgainstScalarChain(points, all, centers, 0,
                                             expanded, tie_d2.data(),
                                             tie_index.data()),
                "");
      std::vector<double> merged = tie_d2;
      std::vector<int32_t> merged_index = tie_index;
      BatchNearestMerge(points, all, nullptr, centers, 0, nullptr,
                        expanded ? BatchKernel::kExpanded
                                 : BatchKernel::kPlain,
                        merged.data(), merged_index.data());
      EXPECT_EQ(merged_index, tie_index);

      // Points on a center: the plain distance is exactly +0; the
      // expanded one is the cancellation residue clamped at +0, so it is
      // never negative and never -0.
      Matrix on_center(kRows, d);
      for (int64_t i = 0; i < kRows; ++i) {
        std::memcpy(on_center.Row(i), centers.Row(i % centers.rows()),
                    static_cast<size_t>(d) * sizeof(double));
      }
      EXPECT_EQ(CheckMergeAgainstScalarChain(on_center, all, centers, 0,
                                             expanded, fresh_d2.data(),
                                             fresh_index.data()),
                "");
      std::vector<double> zero_d2 = fresh_d2;
      std::vector<int32_t> zero_index = fresh_index;
      BatchNearestMerge(on_center, all, nullptr, centers, 0, nullptr,
                        expanded ? BatchKernel::kExpanded
                                 : BatchKernel::kPlain,
                        zero_d2.data(), zero_index.data());
      for (int64_t i = 0; i < kRows; ++i) {
        const double v = zero_d2[static_cast<size_t>(i)];
        EXPECT_FALSE(std::signbit(v)) << "row " << i;
        if (!expanded) {
          EXPECT_TRUE(SameBits(v, 0.0)) << "row " << i;
        }
        EXPECT_EQ(zero_index[static_cast<size_t>(i)], i % centers.rows());
      }
    }
  }

  // Distances that overflow to +inf. Center 0 sits at 9.5e153 and the
  // others at +1e200; rows cycle through 1e200, -1e200 and 9.5e153. A row
  // at -1e200 is +inf from every center and keeps (+inf, -1). With d = 1
  // a row on center 0 has ||x||² + ||c||² = +inf and a dot product whose
  // doubling overflows, so its unfused expanded value is inf - inf,
  // clamped to +0, where a fused multiply-subtract would give +inf and
  // hand the row to center 1.
  for (int64_t d : {1, 7, 33}) {
    Matrix centers(18, d);
    for (int64_t c = 0; c < centers.rows(); ++c) {
      for (int64_t t = 0; t < d; ++t) {
        centers.At(c, t) = c == 0 ? 9.5e153 : 1e200;
      }
    }
    Matrix points(kRows, d);
    for (int64_t i = 0; i < kRows; ++i) {
      for (int64_t t = 0; t < d; ++t) {
        points.At(i, t) = i % 3 == 2 ? 9.5e153 : (i % 3 == 0 ? 1e200 : -1e200);
      }
    }
    for (bool expanded : {false, true}) {
      EXPECT_EQ(CheckMergeAgainstScalarChain(points, all, centers, 0,
                                             expanded, fresh_d2.data(),
                                             fresh_index.data()),
                "");
      std::vector<double> d2 = fresh_d2;
      std::vector<int32_t> index = fresh_index;
      BatchNearestMerge(points, all, nullptr, centers, 0, nullptr,
                        expanded ? BatchKernel::kExpanded
                                 : BatchKernel::kPlain,
                        d2.data(), index.data());
      for (int64_t i = 1; i < kRows; i += 3) {
        EXPECT_EQ(index[static_cast<size_t>(i)], -1) << "row " << i;
        EXPECT_EQ(d2[static_cast<size_t>(i)], inf) << "row " << i;
      }
    }
  }
}

// --- Panel cache (Freeze) ------------------------------------------------

TEST(PanelCacheTest, FrozenQueriesBitwiseEqualUnfrozen) {
  const int64_t n = 130, k = 37, d = 40;
  Matrix points = RandomMatrix(n, d, 777, 2.0);
  Matrix centers = RandomMatrix(k, d, 888, 2.0);

  NearestCenterSearch unfrozen(centers);
  NearestCenterSearch frozen(centers);
  frozen.Freeze();
  EXPECT_TRUE(frozen.frozen());
  EXPECT_FALSE(unfrozen.frozen());

  std::vector<int32_t> idx_a(static_cast<size_t>(n)), idx_b(idx_a);
  std::vector<double> d2_a(static_cast<size_t>(n)), d2_b(d2_a);
  unfrozen.FindRange(points, IndexRange{0, n}, nullptr, idx_a.data(),
                     d2_a.data());
  frozen.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                   d2_b.data());
  EXPECT_EQ(idx_a, idx_b);
  EXPECT_EQ(d2_a, d2_b);  // bitwise

  std::vector<int32_t> all_a, all_b;
  std::vector<double> alld_a, alld_b;
  unfrozen.FindAll(points, &all_a, &alld_a);
  frozen.FindAll(points, &all_b, &alld_b);
  EXPECT_EQ(all_a, all_b);
  EXPECT_EQ(alld_a, alld_b);  // bitwise

  frozen.Unfreeze();
  EXPECT_FALSE(frozen.frozen());
  frozen.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                   d2_b.data());
  EXPECT_EQ(d2_a, d2_b);
}

// The invalidation contract: a frozen search is a snapshot; mutating the
// bound centers leaves it stale until the caller re-freezes, after which
// queries see the new centers exactly.
TEST(PanelCacheTest, RefreezeRevalidatesAfterCenterUpdate) {
  const int64_t n = 64, k = 19, d = 40;
  Matrix points = RandomMatrix(n, d, 1111, 2.0);
  Matrix centers = RandomMatrix(k, d, 2222, 2.0);

  NearestCenterSearch search(centers);
  search.Freeze();
  std::vector<double> before(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, nullptr,
                   before.data());

  // Mutate every center in place (a minibatch-style gradient step).
  rng::Rng rng(3333);
  for (int64_t c = 0; c < k; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      centers.At(c, j) += 0.5 * rng.NextGaussian();
    }
  }

  // Stale snapshot: still bitwise the pre-mutation results.
  std::vector<double> stale(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, nullptr,
                   stale.data());
  EXPECT_EQ(stale, before);

  // Re-freeze: matches a fresh search over the mutated centers bitwise,
  // in both the batched and the scalar path.
  search.Freeze();
  NearestCenterSearch fresh(centers);
  std::vector<int32_t> idx_a(static_cast<size_t>(n)), idx_b(idx_a);
  std::vector<double> after(static_cast<size_t>(n)),
      expected(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, idx_a.data(),
                   after.data());
  fresh.FindRange(points, IndexRange{0, n}, nullptr, idx_b.data(),
                  expected.data());
  EXPECT_EQ(after, expected);  // bitwise
  EXPECT_EQ(idx_a, idx_b);
  EXPECT_NE(after, before);  // the update actually changed the answers
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(search.Find(points.Row(i)).distance2,
              fresh.Find(points.Row(i)).distance2);
  }
}

// --- Two-nearest and dense-distance scans --------------------------------

TEST(BatchEngineTest, TwoNearestMatchesSequentialReference) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 1200 + s.n, 4.0);
    Matrix centers = RandomMatrix(s.k, s.d, 1300 + s.k, 4.0);
    NearestCenterSearch search(centers);
    search.Freeze();
    std::vector<int32_t> idx(static_cast<size_t>(s.n));
    std::vector<double> d1(static_cast<size_t>(s.n));
    std::vector<double> d2(static_cast<size_t>(s.n));
    search.FindTwoNearestRange(points, IndexRange{0, s.n}, nullptr,
                               idx.data(), d1.data(), d2.data());
    // Reference: dense distances reduced sequentially with the same tie
    // semantics.
    std::vector<double> dense(static_cast<size_t>(s.n * s.k));
    search.DistancesRange(points, IndexRange{0, s.n}, nullptr,
                          dense.data());
    for (int64_t i = 0; i < s.n; ++i) {
      int64_t best = -1;
      double b1 = std::numeric_limits<double>::infinity();
      double b2 = std::numeric_limits<double>::infinity();
      for (int64_t c = 0; c < s.k; ++c) {
        double v = dense[static_cast<size_t>(i * s.k + c)];
        if (v < b1) {
          b2 = b1;
          b1 = v;
          best = c;
        } else if (v < b2) {
          b2 = v;
        }
      }
      EXPECT_EQ(idx[static_cast<size_t>(i)], best) << "point " << i;
      EXPECT_EQ(d1[static_cast<size_t>(i)], b1) << "point " << i;
      EXPECT_EQ(d2[static_cast<size_t>(i)], b2) << "point " << i;
    }
  }
}

TEST(BatchEngineTest, DistancesMatchScalarPairChains) {
  const int64_t n = 70, k = 21;
  for (int64_t d : {8, 40}) {  // plain and expanded kAuto regimes
    Matrix points = RandomMatrix(n, d, 1400 + d, 3.0);
    Matrix centers = RandomMatrix(k, d, 1500 + d, 3.0);
    NearestCenterSearch search(centers);
    std::vector<double> dense(static_cast<size_t>(n * k));
    search.DistancesRange(points, IndexRange{0, n}, nullptr, dense.data());
    std::vector<double> center_norms = RowSquaredNorms(centers);
    for (int64_t i = 0; i < n; ++i) {
      double pn = SquaredNorm(points.Row(i), d);
      for (int64_t c = 0; c < k; ++c) {
        double expected =
            search.uses_expanded_kernel()
                ? SquaredL2Expanded(
                      pn, center_norms[static_cast<size_t>(c)],
                      PairDotProduct(points.Row(i), centers.Row(c), d))
                : PairSquaredL2(points.Row(i), centers.Row(c), d);
        EXPECT_EQ(dense[static_cast<size_t>(i * k + c)], expected)
            << "i=" << i << " c=" << c << " d=" << d;  // bitwise
      }
    }
  }
}

TEST(BatchEngineTest, TwoNearestSingleCenterLeavesSecondInfinite) {
  Matrix centers = RandomMatrix(1, 12, 1600);
  Matrix points = RandomMatrix(5, 12, 1700);
  NearestCenterSearch search(centers);
  std::vector<int32_t> idx(5);
  std::vector<double> d1(5), d2(5);
  search.FindTwoNearestRange(points, IndexRange{0, 5}, nullptr, idx.data(),
                             d1.data(), d2.data());
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(idx[static_cast<size_t>(i)], 0);
    EXPECT_TRUE(std::isinf(d2[static_cast<size_t>(i)]));
  }
}

// --- Bitwise determinism across thread counts ---------------------------

std::vector<std::unique_ptr<ThreadPool>> MakePools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);  // sequential
  pools.push_back(std::make_unique<ThreadPool>(1));
  pools.push_back(std::make_unique<ThreadPool>(4));
  return pools;
}

TEST(BatchDeterminismTest, TrackerBitwiseIdenticalAcrossThreadCounts) {
  Matrix pts = RandomMatrix(500, 33, 505, 4.0);
  std::vector<double> w(500);
  rng::Rng wrng(606);
  for (auto& x : w) x = 0.25 + wrng.NextDouble();
  auto data = Dataset::WithWeights(pts, w);
  ASSERT_TRUE(data.ok());
  Matrix centers = RandomMatrix(37, 33, 707, 4.0);

  auto pools = MakePools();
  std::vector<std::vector<double>> potentials(pools.size());
  std::vector<std::vector<int64_t>> closest(pools.size());
  std::vector<std::vector<double>> distances(pools.size());
  for (size_t p = 0; p < pools.size(); ++p) {
    MinDistanceTracker tracker(*data, pools[p].get());
    // Grow the center set in uneven increments (1, then 16, then the
    // rest) to cross panel boundaries mid-stream.
    Matrix grown(33);
    int64_t added = 0;
    for (int64_t step : {int64_t{1}, int64_t{16},
                         centers.rows() - 17}) {
      for (int64_t c = 0; c < step; ++c) {
        grown.AppendRow(centers.Row(added + c));
      }
      potentials[p].push_back(tracker.AddCenters(grown, added));
      added += step;
    }
    for (int64_t i = 0; i < data->n(); ++i) {
      closest[p].push_back(tracker.ClosestCenter(i));
      distances[p].push_back(tracker.Distance2(i));
    }
  }
  for (size_t p = 1; p < pools.size(); ++p) {
    EXPECT_EQ(potentials[p], potentials[0]) << "pool " << p;  // bitwise
    EXPECT_EQ(closest[p], closest[0]) << "pool " << p;
    EXPECT_EQ(distances[p], distances[0]) << "pool " << p;  // bitwise
  }
}

TEST(BatchDeterminismTest, AssignmentBitwiseIdenticalAcrossThreadCounts) {
  Dataset data(RandomMatrix(400, 19, 808, 2.0));
  Matrix centers = RandomMatrix(21, 19, 909, 2.0);
  auto pools = MakePools();
  Assignment reference = ComputeAssignment(data, centers, nullptr);
  double reference_cost = ComputeCost(data, centers, nullptr);
  EXPECT_EQ(reference.cost, reference_cost);  // same chunked reduction
  for (auto& pool : pools) {
    Assignment a = ComputeAssignment(data, centers, pool.get());
    EXPECT_EQ(a.cluster, reference.cluster);
    EXPECT_EQ(a.cost, reference.cost);  // bitwise
    EXPECT_EQ(ComputeCost(data, centers, pool.get()), reference_cost);
  }
}

TEST(BatchDeterminismTest, KMeansLLInitBitwiseIdenticalAcrossThreadCounts) {
  Dataset data(RandomMatrix(300, 12, 111, 3.0));
  KMeansLLOptions options;
  options.rounds = 3;
  options.oversampling = 8.0;
  auto pools = MakePools();
  auto reference = KMeansLLInit(data, 6, rng::MakeRootRng(42), options,
                                nullptr);
  ASSERT_TRUE(reference.ok());
  for (auto& pool : pools) {
    auto result = KMeansLLInit(data, 6, rng::MakeRootRng(42), options,
                               pool.get());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->centers == reference->centers);  // bitwise
    EXPECT_EQ(result->telemetry.round_potentials,
              reference->telemetry.round_potentials);  // bitwise
  }
}

// KMeans::Fit hands its point norms to k-means||; seeding with them must
// be bitwise seeding without them (the tracker computes the same norms).
TEST(BatchDeterminismTest, KMeansLLInitWithCallerNormsBitwiseIdentical) {
  Dataset data(RandomMatrix(300, 40, 112, 3.0));
  const std::vector<double> norms = RowSquaredNorms(data.points());
  KMeansLLOptions options;
  options.rounds = 3;
  options.oversampling = 8.0;
  auto reference = KMeansLLInit(data, 6, rng::MakeRootRng(43), options);
  ASSERT_TRUE(reference.ok());
  for (auto& pool : MakePools()) {
    auto result = KMeansLLInit(data, 6, rng::MakeRootRng(43), options,
                               pool.get(), norms.data());
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->centers == reference->centers);  // bitwise
    EXPECT_EQ(result->telemetry.round_potentials,
              reference->telemetry.round_potentials);  // bitwise
  }
}

TEST(BatchDeterminismTest, FindAllIdenticalAcrossThreadCounts) {
  Matrix points = RandomMatrix(333, 48, 222, 2.0);
  Matrix centers = RandomMatrix(50, 48, 333, 2.0);
  NearestCenterSearch search(centers);
  std::vector<int32_t> ref_idx;
  std::vector<double> ref_d2;
  search.FindAll(points, &ref_idx, &ref_d2, nullptr);
  auto pools = MakePools();
  for (auto& pool : pools) {
    std::vector<int32_t> idx;
    std::vector<double> d2;
    search.FindAll(points, &idx, &d2, pool.get());
    EXPECT_EQ(idx, ref_idx);
    EXPECT_EQ(d2, ref_d2);  // bitwise
  }
}

TEST(BatchDeterminismTest, RowSquaredNormsIdenticalAcrossThreadCounts) {
  Matrix m = RandomMatrix(257, 31, 444, 7.0);
  std::vector<double> reference = RowSquaredNorms(m, nullptr);
  ThreadPool pool(3);
  EXPECT_EQ(RowSquaredNorms(m, &pool), reference);  // bitwise
}

// --- Top-m merge mode (the serving layer's AssignTopM primitive) --------

TEST(BatchTopMTest, MatchesSortedDenseDistances) {
  for (const Shape& s : kShapes) {
    Matrix points = RandomMatrix(s.n, s.d, 505 + s.n, 4.0);
    Matrix centers = RandomMatrix(s.k, s.d, 606 + s.k, 4.0);
    NearestCenterSearch search(centers);
    search.Freeze();
    const int64_t m = std::min<int64_t>(s.k, 4);

    std::vector<double> dense(static_cast<size_t>(s.n * s.k));
    search.DistancesRange(points, IndexRange{0, s.n}, nullptr,
                          dense.data());
    std::vector<int32_t> idx(static_cast<size_t>(s.n * m));
    std::vector<double> d2(static_cast<size_t>(s.n * m));
    search.FindTopMRange(points, IndexRange{0, s.n}, nullptr, m,
                         idx.data(), d2.data());

    for (int64_t i = 0; i < s.n; ++i) {
      // Reference: stable sort of the engine's dense row by (d2, index).
      std::vector<int32_t> order(static_cast<size_t>(s.k));
      for (int64_t c = 0; c < s.k; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      const double* row = dense.data() + i * s.k;
      std::stable_sort(order.begin(), order.end(),
                       [&](int32_t a, int32_t b) { return row[a] < row[b]; });
      for (int64_t slot = 0; slot < m; ++slot) {
        const auto got = static_cast<size_t>(i * m + slot);
        EXPECT_EQ(idx[got], order[static_cast<size_t>(slot)])
            << "n=" << s.n << " k=" << s.k << " d=" << s.d << " point "
            << i << " slot " << slot;
        // Bitwise: top-m reports the engine's own values.
        EXPECT_EQ(d2[got], row[order[static_cast<size_t>(slot)]]);
      }
    }
  }
}

TEST(BatchTopMTest, SlotZeroBitwiseMatchesNearestMerge) {
  Matrix points = RandomMatrix(130, 48, 707, 3.0);
  Matrix centers = RandomMatrix(33, 48, 808, 3.0);
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t n = points.rows();
  std::vector<int32_t> near_idx(static_cast<size_t>(n));
  std::vector<double> near_d2(static_cast<size_t>(n));
  search.FindRange(points, IndexRange{0, n}, nullptr, near_idx.data(),
                   near_d2.data());
  const int64_t m = 3;
  std::vector<int32_t> idx(static_cast<size_t>(n * m));
  std::vector<double> d2(static_cast<size_t>(n * m));
  search.FindTopMRange(points, IndexRange{0, n}, nullptr, m, idx.data(),
                       d2.data());
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(idx[static_cast<size_t>(i * m)],
              near_idx[static_cast<size_t>(i)]);
    EXPECT_EQ(d2[static_cast<size_t>(i * m)],
              near_d2[static_cast<size_t>(i)]);  // bitwise
  }
}

TEST(BatchTopMTest, ExactTiesSortByAscendingCenterIndex) {
  // Integer grid with duplicated centers: distances are exactly equal, so
  // tied centers must appear in ascending index order (the sequential
  // ascending scan's strict-< insertion).
  Matrix points(1, 2);
  points.At(0, 0) = 0.0;
  points.At(0, 1) = 0.0;
  Matrix centers(4, 2);
  centers.At(0, 0) = 3.0;  // d2 = 9
  centers.At(1, 0) = 1.0;  // d2 = 1 (tied with 2)
  centers.At(2, 1) = 1.0;  // d2 = 1 (tied with 1)
  centers.At(3, 0) = 2.0;  // d2 = 4
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t m = 4;
  std::vector<int32_t> idx(static_cast<size_t>(m));
  std::vector<double> d2(static_cast<size_t>(m));
  search.FindTopMRange(points, IndexRange{0, 1}, nullptr, m, idx.data(),
                       d2.data());
  EXPECT_EQ(idx, (std::vector<int32_t>{1, 2, 3, 0}));
  EXPECT_EQ(d2, (std::vector<double>{1.0, 1.0, 4.0, 9.0}));
}

TEST(BatchTopMTest, PadsSlotsBeyondK) {
  Matrix points = RandomMatrix(5, 8, 909, 2.0);
  Matrix centers = RandomMatrix(2, 8, 1010, 2.0);
  NearestCenterSearch search(centers);
  search.Freeze();
  const int64_t m = 4;
  std::vector<int32_t> idx(static_cast<size_t>(5 * m));
  std::vector<double> d2(static_cast<size_t>(5 * m));
  search.FindTopMRange(points, IndexRange{0, 5}, nullptr, m, idx.data(),
                       d2.data());
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t slot = 2; slot < m; ++slot) {
      EXPECT_EQ(idx[static_cast<size_t>(i * m + slot)], -1);
      EXPECT_TRUE(std::isinf(d2[static_cast<size_t>(i * m + slot)]));
    }
  }
}

}  // namespace
}  // namespace kmeansll
