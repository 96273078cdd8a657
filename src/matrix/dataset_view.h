// DatasetView + DatasetSource: the storage abstraction between datasets
// and the algorithms that stream over them.
//
// A DatasetView is a non-owning, contiguous row-range window onto point
// data (points pointer with row stride == dim, plus optional weight and
// label slices). An in-memory Dataset yields one view spanning all rows;
// a disk-resident ShardedDataset (data/shard_store.h) yields one view per
// memory-mapped shard. Everything downstream of the storage layer —
// nearest-center scans, cost/assignment reductions, Lloyd's iteration,
// the seeding passes, the MapReduce map tasks — consumes views, so the
// same code path clusters data that fits in RAM and data that does not.
//
// A DatasetSource hands out pinned views on demand. Pin(begin, end)
// returns the longest contiguous resident run starting at global row
// `begin` (clipped to `end`) together with an RAII pin that keeps those
// rows resident; iteration over an arbitrary range is the ForEachBlock
// loop below. Sources must be thread-safe: parallel chunked passes pin
// blocks concurrently from pool workers.
//
// Determinism contract (extends the engine's, see distance/batch.h): a
// point's distances depend only on its own coordinates and the center
// set — never on which view it arrived through — and every reduction in
// the library accumulates per-row contributions in ascending global row
// order within the fixed deterministic chunk grid. Splitting a chunk at
// shard boundaries therefore changes neither per-row values nor any
// accumulation order, which is why sharded and in-memory runs over the
// same rows produce bitwise-identical centers, assignments, and cost
// histories (asserted by tests/shard_store_test.cc).

#ifndef KMEANSLL_MATRIX_DATASET_VIEW_H_
#define KMEANSLL_MATRIX_DATASET_VIEW_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "matrix/matrix.h"

namespace kmeansll {

/// Contiguous row-range window [first_row, first_row + rows) of a
/// (possibly disk-resident) dataset. Rows are addressed locally:
/// Point(i) is global row first_row + i. Weight/label slices are
/// optional; a null weight slice means every weight is 1.0.
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(ConstMatrixView points, int64_t first_row,
              const double* weights, const int32_t* labels)
      : points_(points),
        first_row_(first_row),
        weights_(weights),
        labels_(labels) {}

  int64_t rows() const { return points_.rows(); }
  int64_t dim() const { return points_.cols(); }
  /// Global index of local row 0.
  int64_t first_row() const { return first_row_; }
  /// One past the last global row covered by this view.
  int64_t end_row() const { return first_row_ + points_.rows(); }

  const ConstMatrixView& points() const { return points_; }
  const double* Point(int64_t i) const { return points_.Row(i); }

  bool has_weights() const { return weights_ != nullptr; }
  /// Weight of local row i (1.0 when the view carries no weights).
  double Weight(int64_t i) const {
    KMEANSLL_DCHECK(i >= 0 && i < rows());
    return weights_ == nullptr ? 1.0 : weights_[i];
  }
  const double* weights() const { return weights_; }

  bool has_labels() const { return labels_ != nullptr; }
  int32_t Label(int64_t i) const {
    KMEANSLL_DCHECK(labels_ != nullptr && i >= 0 && i < rows());
    return labels_[i];
  }
  const int32_t* labels() const { return labels_; }

  /// Sub-view of local rows [begin, end) (global indices shift along).
  DatasetView Slice(int64_t begin, int64_t end) const {
    return DatasetView(points_.Slice(begin, end), first_row_ + begin,
                       weights_ == nullptr ? nullptr : weights_ + begin,
                       labels_ == nullptr ? nullptr : labels_ + begin);
  }

 private:
  ConstMatrixView points_;
  int64_t first_row_ = 0;
  const double* weights_ = nullptr;  // null => all 1.0
  const int32_t* labels_ = nullptr;  // null => unknown
};

/// RAII pin over one DatasetView: the viewed rows stay resident until the
/// block is destroyed. In-memory sources hand out pins with no release
/// action; sharded sources count pins per shard so the eviction window
/// never unmaps rows in use.
class PinnedBlock {
 public:
  PinnedBlock() = default;
  explicit PinnedBlock(DatasetView view) : view_(view) {}
  PinnedBlock(DatasetView view, std::function<void()> release)
      : view_(view), release_(std::move(release)) {}

  PinnedBlock(PinnedBlock&& other) noexcept
      : view_(other.view_), release_(std::move(other.release_)) {
    other.release_ = nullptr;
  }
  PinnedBlock& operator=(PinnedBlock&& other) noexcept {
    if (this != &other) {
      Release();
      view_ = other.view_;
      release_ = std::move(other.release_);
      other.release_ = nullptr;
    }
    return *this;
  }
  PinnedBlock(const PinnedBlock&) = delete;
  PinnedBlock& operator=(const PinnedBlock&) = delete;

  ~PinnedBlock() { Release(); }

  const DatasetView& view() const { return view_; }

 private:
  void Release() {
    if (release_) {
      release_();
      release_ = nullptr;
    }
  }

  DatasetView view_;
  std::function<void()> release_;
};

/// Abstract provider of pinned row-range views. Implemented by
/// InMemorySource (below) over a Dataset and by data::ShardedDataset over
/// memory-mapped binary shards.
///
/// Precondition of every driver that takes a source (ComputeCost,
/// KMeans::Fit, RunMiniBatch, ...): n() does not change during the
/// call. Drivers size per-row state from one n() and scan to another,
/// so a source that grows under them (data::LiveDataset beside a
/// producer) must be handed over as a PrefixSource of a fixed n.
class DatasetSource {
 public:
  virtual ~DatasetSource() = default;

  virtual int64_t n() const = 0;
  virtual int64_t dim() const = 0;
  virtual bool has_weights() const = 0;
  virtual bool has_labels() const = 0;
  /// Sum of all weights (n for unweighted data).
  virtual double TotalWeight() const = 0;

  /// Pins the longest contiguous resident run starting at global row
  /// `begin`, clipped to `end`. Requires 0 <= begin < end <= n(); the
  /// returned view covers at least one row and starts exactly at
  /// `begin`. Thread-safe.
  virtual PinnedBlock Pin(int64_t begin, int64_t end) const = 0;

  /// No caller; kept only because perfbench's CountingSource overrides it.
  virtual void PrefetchHint(int64_t begin, int64_t end) const {
    (void)begin;
    (void)end;
  }

  /// No caller; kept only because perfbench's CountingSource overrides it.
  virtual std::vector<std::pair<int64_t, int64_t>> ResidencyRanges()
      const {
    return {};
  }

  /// No caller; kept only because perfbench's CountingSource overrides it.
  virtual int64_t ResidentUnitCapacity() const { return 0; }

  /// Sticky health of the source. Pin has no error channel (a scan must
  /// be able to stream without per-block error plumbing), so a source
  /// that hits an unrecoverable I/O failure serves structurally valid
  /// fallback blocks and records the first error here. Drivers check
  /// this once, at their Result-returning boundary, after the scan —
  /// the out-of-core analogue of checking ferror() after fread loops.
  /// Default: always OK (in-memory sources cannot fail).
  virtual Status status() const { return Status::OK(); }
};

/// DatasetSource over rows the caller already holds in memory. The
/// viewed storage (not the source) must outlive every consumer; the
/// source itself is a cheap value the Dataset-taking API shims construct
/// on the stack.
class InMemorySource final : public DatasetSource {
 public:
  /// Views `points` (and optional parallel weight/label arrays, which may
  /// be null). All pointers are borrowed.
  InMemorySource(ConstMatrixView points, const double* weights,
                 const int32_t* labels)
      : view_(points, /*first_row=*/0, weights, labels) {}

  int64_t n() const override { return view_.rows(); }
  int64_t dim() const override { return view_.dim(); }
  bool has_weights() const override { return view_.has_weights(); }
  bool has_labels() const override { return view_.has_labels(); }
  double TotalWeight() const override;

  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    KMEANSLL_CHECK(begin >= 0 && begin < end && end <= view_.rows());
    return PinnedBlock(view_.Slice(begin, end));
  }

 private:
  DatasetView view_;
};

/// Rows [0, n) of another source, at a fixed n however far `base` grows
/// meanwhile. Pins, weights and health forward to `base`. `base` must
/// outlive the view, hold at least n rows, and never change rows it
/// already holds.
class PrefixSource final : public DatasetSource {
 public:
  PrefixSource(const DatasetSource& base, int64_t n) : base_(base), n_(n) {
    KMEANSLL_CHECK(n >= 0);
  }

  int64_t n() const override { return n_; }
  int64_t dim() const override { return base_.dim(); }
  bool has_weights() const override { return base_.has_weights(); }
  bool has_labels() const override { return base_.has_labels(); }
  double TotalWeight() const override;

  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    KMEANSLL_CHECK(begin >= 0 && begin < end && end <= n_);
    return base_.Pin(begin, end);
  }
  Status status() const override { return base_.status(); }

 private:
  const DatasetSource& base_;
  const int64_t n_;
};

/// Visits [begin, end) as a sequence of pinned contiguous views in
/// ascending row order (each pin is released before the next is taken).
template <typename Fn>
void ForEachBlock(const DatasetSource& source, int64_t begin, int64_t end,
                  Fn&& fn) {
  int64_t row = begin;
  while (row < end) {
    PinnedBlock block = source.Pin(row, end);
    const DatasetView& view = block.view();
    KMEANSLL_CHECK(view.first_row() == row && view.rows() > 0);
    row = view.end_row();
    fn(view);
  }
}

/// Copies the selected global rows' points into a dense matrix (the
/// source-agnostic analog of Matrix::GatherRows). Indices need not be
/// sorted, but ascending runs pin each shard only once.
Matrix GatherPoints(const DatasetSource& source,
                    const std::vector<int64_t>& indices);

/// As GatherPoints, but also copies the rows' weights into `weights`
/// (1.0 entries when the source is unweighted).
Matrix GatherPointsAndWeights(const DatasetSource& source,
                              const std::vector<int64_t>& indices,
                              std::vector<double>* weights);

}  // namespace kmeansll

#endif  // KMEANSLL_MATRIX_DATASET_VIEW_H_
