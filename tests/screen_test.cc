// Tests for the one-row fp32 screen (ScreenedTopM, distance/batch.h):
// every one-row answer of a frozen search — FindRange, FindTopMRange,
// CenterIndex::AssignOne and AssignTopM — is the unscreened engine's bit
// for bit. The reference is always BatchNearestMerge / BatchTopM over
// panels packed without the fp32 copy, never another screened search.
// The cases are the ones the certificate has to survive: every panel
// residue, exact ties between duplicate centers, near-ties a few ulps
// apart, a large common offset, points on a center, and coordinates
// outside the certified range, where the call must take the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "serving/center_index.h"

namespace kmeansll {
namespace {

using serving::CenterIndex;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool ScreenAvailable() { return std::string(BatchKernelIsa()) != "scalar"; }

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double scale = 1.0, double offset = 0.0) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = offset + scale * rng.NextGaussian();
  }
  return m;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The unscreened engine over one center set: panels packed without the
// fp32 copy, scanned by the expanded kernel.
struct Engine {
  explicit Engine(const Matrix& centers)
      : d(centers.cols()), norms(RowSquaredNorms(centers)) {
    panels.Pack(centers);
  }
  NearestResult Nearest(const double* x) const {
    double d2 = kInf;
    int32_t index = -1;
    BatchNearestMerge(ConstMatrixView(x, 1, d), IndexRange{0, 1}, nullptr,
                      panels, norms.data(), BatchKernel::kExpanded, &d2,
                      &index);
    return NearestResult{index, d2};
  }
  void TopM(const double* x, int64_t m, std::vector<int32_t>* index,
            std::vector<double>* d2) const {
    index->resize(static_cast<size_t>(m));
    d2->resize(static_cast<size_t>(m));
    BatchTopM(ConstMatrixView(x, 1, d), IndexRange{0, 1}, nullptr, panels,
              norms.data(), BatchKernel::kExpanded, m, index->data(),
              d2->data());
  }
  int64_t d;
  std::vector<double> norms;
  CenterPanels panels;
};

// Checks every screened one-row surface against the engine for each row
// of `queries`; returns how many rows the screen answered itself (the
// rest took the engine scan).
int64_t ExpectScreenedMatchesEngine(const Matrix& centers,
                                    const Matrix& queries) {
  const int64_t k = centers.rows();
  const int64_t d = centers.cols();
  const Engine engine(centers);
  NearestCenterSearch search(centers);
  search.Freeze();
  const auto index = CenterIndex::Build(Matrix(centers));
  CenterPanels screened_panels;
  screened_panels.Pack(centers);
  screened_panels.PackScreen();

  int64_t screened = 0;
  for (int64_t i = 0; i < queries.rows(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const double* x = queries.Row(i);
    const ConstMatrixView row(x, 1, d);
    const NearestResult want = engine.Nearest(x);

    int32_t got_index = -2;
    double got_d2 = -1.0;
    search.FindRange(row, IndexRange{0, 1}, nullptr, &got_index, &got_d2);
    EXPECT_EQ(got_index, want.index);
    EXPECT_EQ(Bits(got_d2), Bits(want.distance2));
    double only_d2 = -1.0;
    search.FindRange(row, IndexRange{0, 1}, nullptr, nullptr, &only_d2);
    EXPECT_EQ(Bits(only_d2), Bits(want.distance2));
    const NearestResult one = index->AssignOne(x);
    EXPECT_EQ(one.index, want.index);
    EXPECT_EQ(Bits(one.distance2), Bits(want.distance2));

    int32_t direct_index = -2;
    double direct_d2 = -1.0;
    if (ScreenedTopM(x, nullptr, screened_panels, engine.norms.data(), 1,
                     &direct_index, &direct_d2)) {
      ++screened;
      EXPECT_EQ(direct_index, want.index);
      EXPECT_EQ(Bits(direct_d2), Bits(want.distance2));
    }

    for (const int64_t m : {int64_t{1}, int64_t{4}, k + 1}) {
      SCOPED_TRACE("m = " + std::to_string(m));
      std::vector<int32_t> want_index, got_slots(static_cast<size_t>(m));
      std::vector<double> want_d2, got_slot_d2(static_cast<size_t>(m));
      engine.TopM(x, m, &want_index, &want_d2);
      search.FindTopMRange(row, IndexRange{0, 1}, nullptr, m,
                           got_slots.data(), got_slot_d2.data());
      EXPECT_EQ(got_slots, want_index);
      for (int64_t s = 0; s < m; ++s) {
        EXPECT_EQ(Bits(got_slot_d2[static_cast<size_t>(s)]),
                  Bits(want_d2[static_cast<size_t>(s)]))
            << "slot " << s;
      }
      std::vector<int32_t> top_index;
      std::vector<double> top_d2;
      const int64_t filled = index->AssignTopM(x, m, &top_index, &top_d2);
      EXPECT_EQ(filled, std::min(m, k));
      for (int64_t s = 0; s < std::min(filled, m); ++s) {
        EXPECT_EQ(top_index[static_cast<size_t>(s)],
                  want_index[static_cast<size_t>(s)]);
        EXPECT_EQ(Bits(top_d2[static_cast<size_t>(s)]),
                  Bits(want_d2[static_cast<size_t>(s)]));
      }
    }
  }
  return screened;
}

// Every panel residue (k mod 16 = 1, 15, 0, 1, 4, 0) and dimension parity
// on both sides of the expanded-kernel threshold; the last three queries
// sit exactly on a center.
TEST(ScreenTest, MatchesTheEngineAcrossShapes) {
  for (const int64_t d : {32, 33, 64, 127, 128}) {
    for (const int64_t k : {1, 15, 16, 17, 100, 4096}) {
      SCOPED_TRACE("d = " + std::to_string(d) + ", k = " + std::to_string(k));
      const Matrix centers = RandomMatrix(k, d, 1000 + 7 * k + d, 3.0);
      Matrix queries = RandomMatrix(12, d, 2000 + 7 * k + d, 3.0);
      for (int64_t c = 0; c < 3; ++c) {
        const double* on = centers.Row((c * 7) % k);
        queries.AppendRow(std::vector<double>(on, on + d));
      }
      const int64_t screened = ExpectScreenedMatchesEngine(centers, queries);
      if (ScreenAvailable() && k >= 100) {
        EXPECT_GT(screened, 0);
      }
    }
  }
}

// Duplicate centers tie exactly; the screen must keep every copy and the
// re-rank must resolve the tie to the lowest index, slot by slot.
TEST(ScreenTest, DuplicateCentersTieToTheLowestIndex) {
  const int64_t k = 256, d = 64;
  Matrix centers = RandomMatrix(k, d, 31, 2.0);
  for (const int64_t copy : {40, 200, 201, 255}) {
    std::copy(centers.Row(10), centers.Row(10) + d, centers.Row(copy));
  }
  std::copy(centers.Row(3), centers.Row(3) + d, centers.Row(150));
  Matrix queries = RandomMatrix(20, d, 32, 0.05);
  for (int64_t i = 0; i < queries.rows(); ++i) {
    const int64_t base = i % 2 == 0 ? 10 : 3;
    for (int64_t t = 0; t < d; ++t) queries.At(i, t) += centers.At(base, t);
  }
  queries.AppendRow(std::vector<double>(centers.Row(10), centers.Row(10) + d));
  ExpectScreenedMatchesEngine(centers, queries);

  NearestCenterSearch search(centers);
  search.Freeze();
  std::vector<int32_t> slots(5);
  std::vector<double> slot_d2(5);
  search.FindTopMRange(ConstMatrixView(queries.Row(0), 1, d),
                       IndexRange{0, 1}, nullptr, 5, slots.data(),
                       slot_d2.data());
  EXPECT_EQ(slots, (std::vector<int32_t>{10, 40, 200, 201, 255}));
  EXPECT_EQ(slot_d2[0], slot_d2[4]);
}

// Near-ties: each query has eight centers at the same exact distance
// (the query plus signed permutations of one offset vector), whose engine
// values differ only by rounding: a few ulps of pn + cn, the magnitude
// the expanded kernel rounds at (for the zero query, pn + cn is the
// distance itself). Their float scores err by different amounts, so a
// bound too tight for the float error drops the engine's winner from the
// candidate set.
TEST(ScreenTest, NearTiesAFewUlpsApart) {
  const int64_t k = 512, d = 64, queries = 150, tied = 8;
  rng::Rng rng(4242);
  int64_t ulp_apart = 0;
  int64_t screened = 0;
  for (int64_t q = 0; q < queries; ++q) {
    Matrix x = RandomMatrix(1, d, 5000 + q, q % 3 == 0 ? 0.0 : 4.0, 2.0);
    if (q % 3 == 0) std::fill(x.Row(0), x.Row(0) + d, 0.0);
    Matrix centers = RandomMatrix(k, d, 6000 + q, 4.0, 2.0);
    const Matrix offset = RandomMatrix(1, d, 7000 + q, 0.5);
    std::vector<int64_t> perm(static_cast<size_t>(d));
    for (int64_t c = 0; c < tied; ++c) {
      for (int64_t t = 0; t < d; ++t) perm[static_cast<size_t>(t)] = t;
      for (int64_t t = d - 1; t > 0; --t) {
        std::swap(perm[static_cast<size_t>(t)],
                  perm[rng.NextBounded(static_cast<uint64_t>(t + 1))]);
      }
      const int64_t row = static_cast<int64_t>(rng.NextBounded(k));
      for (int64_t t = 0; t < d; ++t) {
        const double sign = rng.NextBounded(2) == 0 ? 1.0 : -1.0;
        centers.At(row, t) =
            x.At(0, t) + sign * offset.At(0, perm[static_cast<size_t>(t)]);
      }
    }
    const Engine engine(centers);
    std::vector<int32_t> slots;
    std::vector<double> slot_d2;
    engine.TopM(x.Row(0), 2, &slots, &slot_d2);
    const double scale =
        SquaredNorm(x.Row(0), d) + engine.norms[static_cast<size_t>(slots[0])];
    const double ulp = std::nextafter(scale, kInf) - scale;
    const double gap = slot_d2[1] - slot_d2[0];
    if (gap > 0 && gap <= 8 * ulp) ++ulp_apart;
    screened += ExpectScreenedMatchesEngine(centers, x);
    if (HasFailure()) return;
  }
  // The construction does produce distinct values a few ulps apart, and
  // the screen (not the engine fallback) answered most rows.
  EXPECT_GT(ulp_apart, queries / 4);
  if (ScreenAvailable()) {
    EXPECT_GT(screened, queries / 2);
  }
}

// A common offset of 1e6 makes every certified interval wide next to the
// distances; the answers stay the engine's (the screen hands the row
// over when too many centers survive).
TEST(ScreenTest, LargeCommonOffset) {
  const int64_t k = 300, d = 64;
  const Matrix centers = RandomMatrix(k, d, 81, 1.0, 1e6);
  Matrix queries = RandomMatrix(10, d, 82, 1.0, 1e6);
  queries.AppendRow(std::vector<double>(centers.Row(17), centers.Row(17) + d));
  ExpectScreenedMatchesEngine(centers, queries);
}

// Zero coordinates are in range; 1e300 and 1e-300 are not, in a query or
// in a center, and the call must take the engine scan.
TEST(ScreenTest, CoordinatesOutsideTheRangeTakeTheEngine) {
  const int64_t k = 256, d = 64;
  const Matrix centers = RandomMatrix(k, d, 91, 2.0);
  const Engine engine(centers);
  CenterPanels panels;
  panels.Pack(centers);
  panels.PackScreen();
  EXPECT_EQ(panels.has_screen(), ScreenAvailable());

  Matrix queries = RandomMatrix(3, d, 92, 2.0);
  queries.At(0, 5) = 1e300;
  queries.At(1, 5) = 1e-300;
  for (int64_t t = 0; t < d; ++t) queries.At(2, t) = 0.0;
  for (int64_t i = 0; i < 2; ++i) {
    int32_t index = -2;
    double d2 = -1.0;
    EXPECT_FALSE(ScreenedTopM(queries.Row(i), nullptr, panels,
                              engine.norms.data(), 1, &index, &d2));
    EXPECT_EQ(index, -2);
  }
  int32_t zero_index = -2;
  double zero_d2 = -1.0;
  EXPECT_EQ(ScreenedTopM(queries.Row(2), nullptr, panels,
                         engine.norms.data(), 1, &zero_index, &zero_d2),
            ScreenAvailable());
  ExpectScreenedMatchesEngine(centers, queries);

  for (const double outside : {1e300, 1e-300}) {
    Matrix bad = centers;
    bad.At(77, 9) = outside;
    CenterPanels bad_panels;
    bad_panels.Pack(bad);
    bad_panels.PackScreen();
    EXPECT_FALSE(bad_panels.has_screen());
    ExpectScreenedMatchesEngine(bad, RandomMatrix(4, d, 93, 2.0));
  }
}

// The screen copy follows the packed snapshot: a search frozen before its
// centers change answers one row from the snapshot, like the engine.
TEST(ScreenTest, FollowsTheFrozenSnapshot) {
  const int64_t k = 128, d = 48;
  Matrix centers = RandomMatrix(k, d, 61, 2.0);
  const Matrix before = centers;
  const Matrix queries = RandomMatrix(16, d, 62, 2.0);
  NearestCenterSearch search(centers);
  search.Freeze();
  for (int64_t i = 0; i < centers.size(); ++i) centers.data()[i] *= -1.0;
  const Engine engine(before);
  for (int64_t i = 0; i < queries.rows(); ++i) {
    int32_t index = -2;
    double d2 = -1.0;
    search.FindRange(ConstMatrixView(queries.Row(i), 1, d), IndexRange{0, 1},
                     nullptr, &index, &d2);
    const NearestResult want = engine.Nearest(queries.Row(i));
    EXPECT_EQ(index, want.index);
    EXPECT_EQ(Bits(d2), Bits(want.distance2));
  }
}

}  // namespace
}  // namespace kmeansll
