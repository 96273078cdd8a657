// Tests for src/matrix: AlignedBuffer, Matrix, Dataset, GatherPoints.

#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "matrix/aligned_buffer.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"

namespace kmeansll {
namespace {

// ---------------------------------------------------------- AlignedBuffer

TEST(AlignedBufferTest, StartsEmpty) {
  AlignedBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBufferTest, SizedConstructionZeroInitializes) {
  AlignedBuffer b(100);
  ASSERT_EQ(b.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(b[i], 0.0);
}

TEST(AlignedBufferTest, DataIs64ByteAligned) {
  for (size_t size : {1, 7, 64, 1000}) {
    AlignedBuffer b(size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u)
        << "size " << size;
  }
}

TEST(AlignedBufferTest, ResizePreservesPrefixAndZeroesSuffix) {
  AlignedBuffer b(4);
  for (size_t i = 0; i < 4; ++i) b[i] = static_cast<double>(i + 1);
  b.Resize(8);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(b[i], static_cast<double>(i + 1));
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(b[i], 0.0);
  b.Resize(2);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b[1], 2.0);
  // Growing again re-zeroes the previously truncated region.
  b.Resize(4);
  EXPECT_EQ(b[2], 0.0);
}

TEST(AlignedBufferTest, AppendGrowsAmortized) {
  AlignedBuffer b;
  std::vector<double> chunk = {1.0, 2.0, 3.0};
  for (int rep = 0; rep < 100; ++rep) b.Append(chunk.data(), chunk.size());
  ASSERT_EQ(b.size(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(b[i], static_cast<double>(i % 3 + 1));
  }
}

TEST(AlignedBufferTest, ReserveDoesNotChangeSize) {
  AlignedBuffer b(3);
  b.Reserve(1000);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_GE(b.capacity(), 1000u);
}

TEST(AlignedBufferTest, CopySemantics) {
  AlignedBuffer a(5);
  for (size_t i = 0; i < 5; ++i) a[i] = static_cast<double>(i);
  AlignedBuffer copy(a);
  EXPECT_EQ(copy.size(), 5u);
  copy[0] = 99.0;
  EXPECT_EQ(a[0], 0.0);  // deep copy
  AlignedBuffer assigned;
  assigned = a;
  EXPECT_EQ(assigned.size(), 5u);
  EXPECT_EQ(assigned[4], 4.0);
}

TEST(AlignedBufferTest, MoveSemantics) {
  AlignedBuffer a(5);
  a[2] = 7.0;
  const double* ptr = a.data();
  AlignedBuffer moved(std::move(a));
  EXPECT_EQ(moved.data(), ptr);  // no reallocation
  EXPECT_EQ(moved[2], 7.0);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

// ----------------------------------------------------------------- Matrix

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(m.At(i, j), 0.0);
  }
}

TEST(MatrixTest, FromValuesLaysOutRowMajor) {
  Matrix m = Matrix::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(0, 2), 3.0);
  EXPECT_EQ(m.At(1, 0), 4.0);
  EXPECT_EQ(m.At(1, 2), 6.0);
  EXPECT_EQ(m.Row(1)[1], 5.0);
}

TEST(MatrixTest, AppendRowGrows) {
  Matrix m(3);
  EXPECT_TRUE(m.empty());
  std::vector<double> r1 = {1, 2, 3}, r2 = {4, 5, 6};
  m.AppendRow(r1.data());
  m.AppendRow(r2.data());
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.At(1, 2), 6.0);
}

TEST(MatrixTest, AppendRowsConcatenates) {
  Matrix a = Matrix::FromValues(1, 2, {1, 2});
  Matrix b = Matrix::FromValues(2, 2, {3, 4, 5, 6});
  a.AppendRows(b);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.At(2, 1), 6.0);
  Matrix empty(2);
  a.AppendRows(empty);
  EXPECT_EQ(a.rows(), 3);
}

TEST(MatrixTest, GatherRowsCopiesSelection) {
  Matrix m = Matrix::FromValues(4, 2, {0, 0, 1, 1, 2, 2, 3, 3});
  Matrix g = m.GatherRows({3, 1, 1});
  ASSERT_EQ(g.rows(), 3);
  EXPECT_EQ(g.At(0, 0), 3.0);
  EXPECT_EQ(g.At(1, 0), 1.0);
  EXPECT_EQ(g.At(2, 1), 1.0);
}

TEST(MatrixTest, EqualityIsElementwise) {
  Matrix a = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  Matrix b = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  Matrix c = Matrix::FromValues(2, 2, {1, 2, 3, 5});
  Matrix d = Matrix::FromValues(1, 4, {1, 2, 3, 4});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(MatrixTest, ZeroClearsValues) {
  Matrix m = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  m.Zero();
  EXPECT_TRUE(m == Matrix(2, 2));
}

TEST(MatrixTest, RowSpanViewsAreLive) {
  Matrix m(2, 3);
  auto span = m.RowSpan(1);
  span[2] = 9.0;
  EXPECT_EQ(m.At(1, 2), 9.0);
}

// ---------------------------------------------------------------- Dataset

TEST(DatasetTest, UnweightedDefaults) {
  Dataset d(Matrix::FromValues(3, 2, {1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(d.n(), 3);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_FALSE(d.has_weights());
  EXPECT_EQ(d.Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(d.TotalWeight(), 3.0);
  EXPECT_FALSE(d.has_labels());
}

TEST(DatasetTest, WithWeightsValidates) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  EXPECT_FALSE(Dataset::WithWeights(points, {1.0}).ok());
  EXPECT_FALSE(Dataset::WithWeights(points, {1.0, -2.0}).ok());
  EXPECT_FALSE(
      Dataset::WithWeights(points, {1.0, std::nan("")}).ok());
  auto d = Dataset::WithWeights(points, {2.0, 3.0});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->has_weights());
  EXPECT_DOUBLE_EQ(d->Weight(1), 3.0);
  EXPECT_DOUBLE_EQ(d->TotalWeight(), 5.0);
}

TEST(DatasetTest, WithLabelsValidates) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  EXPECT_FALSE(Dataset::WithLabels(points, {0}).ok());
  auto d = Dataset::WithLabels(points, {4, -1});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->has_labels());
  EXPECT_EQ(d->labels()[1], -1);
}

TEST(DatasetTest, GatherCarriesWeightsAndLabels) {
  Matrix points = Matrix::FromValues(3, 1, {10, 20, 30});
  auto weighted = Dataset::WithWeights(points, {1.0, 2.0, 3.0});
  ASSERT_TRUE(weighted.ok());
  Dataset g = weighted->Gather({2, 0});
  EXPECT_EQ(g.n(), 2);
  EXPECT_EQ(g.Point(0)[0], 30.0);
  EXPECT_DOUBLE_EQ(g.Weight(0), 3.0);
  EXPECT_DOUBLE_EQ(g.Weight(1), 1.0);
}

TEST(DatasetTest, SplitRangesCoverExactly) {
  Dataset d(Matrix(10, 1));
  auto ranges = d.SplitRanges(3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 4}));
  EXPECT_EQ(ranges[1], (std::pair<int64_t, int64_t>{4, 7}));
  EXPECT_EQ(ranges[2], (std::pair<int64_t, int64_t>{7, 10}));
}

TEST(DatasetTest, SplitMorePartsThanRowsYieldsEmptyTails) {
  Dataset d(Matrix(2, 1));
  auto ranges = d.SplitRanges(5);
  ASSERT_EQ(ranges.size(), 5u);
  int64_t total = 0;
  for (auto [b, e] : ranges) total += e - b;
  EXPECT_EQ(total, 2);
}

// ------------------------------------------------------------ GatherPoints

// A weighted in-memory table served as `shards` equal blocks: a pin ends
// at its block's boundary, as a shard's does. Pins and pinned rows are
// counted, as perfbench's pass counter counts them.
class BlockSource final : public DatasetSource {
 public:
  BlockSource(const Matrix* points, const std::vector<double>* weights,
              int64_t shards)
      : points_(points), weights_(weights),
        block_rows_((points->rows() + shards - 1) / shards) {}

  int64_t n() const override { return points_->rows(); }
  int64_t dim() const override { return points_->cols(); }
  bool has_weights() const override { return true; }
  bool has_labels() const override { return false; }
  double TotalWeight() const override { return 0.0; }
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    const int64_t block_end = (begin / block_rows_ + 1) * block_rows_;
    const int64_t stop = std::min(end, block_end);
    ++pins_;
    rows_ += stop - begin;
    return PinnedBlock(DatasetView(
        ConstMatrixView(points_->Row(begin), stop - begin, points_->cols()),
        begin, weights_->data() + begin, nullptr));
  }
  int64_t pins() const { return pins_; }
  int64_t rows_pinned() const { return rows_; }

 private:
  const Matrix* points_;
  const std::vector<double>* weights_;
  int64_t block_rows_;
  mutable int64_t pins_ = 0;
  mutable int64_t rows_ = 0;
};

// A gather pins exactly the rows it copies: one pin per run of
// consecutive picks, split where a shard ends, and the same bits as
// Matrix::GatherRows.
TEST(GatherPointsTest, PinsEachRunOfPicksOnce) {
  const int64_t n = 400, d = 5;
  Matrix points(n, d);
  std::vector<double> weights(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    weights[static_cast<size_t>(i)] = 0.5 + static_cast<double>(i);
    for (int64_t t = 0; t < d; ++t) {
      points.At(i, t) = std::sin(static_cast<double>(i * d + t));
    }
  }
  // Sorted picks in all four shards: every seventh row, then a run of
  // five consecutive rows across the shard boundary at row 200.
  std::vector<int64_t> picks;
  for (int64_t i = 3; i < 190; i += 7) picks.push_back(i);
  for (int64_t i = 198; i < 203; ++i) picks.push_back(i);
  for (int64_t i = 210; i < n; i += 7) picks.push_back(i);
  // One pin per pick, except the five-row run: two pins, split at row 200.
  const int64_t runs = static_cast<int64_t>(picks.size()) - 5 + 2;

  const BlockSource source(&points, &weights, 4);
  const Matrix gathered = GatherPoints(source, picks);
  EXPECT_EQ(source.pins(), runs);
  EXPECT_EQ(source.rows_pinned(), static_cast<int64_t>(picks.size()));
  std::vector<double> gathered_weights;
  const Matrix with_weights =
      GatherPointsAndWeights(source, picks, &gathered_weights);
  EXPECT_EQ(source.pins(), 2 * runs);

  const Matrix want = points.GatherRows(picks);
  ASSERT_EQ(gathered.rows(), want.rows());
  EXPECT_EQ(std::memcmp(gathered.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(with_weights.data(), want.data(),
                        static_cast<size_t>(want.size()) * sizeof(double)),
            0);
  for (size_t j = 0; j < picks.size(); ++j) {
    EXPECT_EQ(gathered_weights[j], weights[static_cast<size_t>(picks[j])]);
  }
}

}  // namespace
}  // namespace kmeansll
