#include "distance/nearest.h"

#include <limits>

#include "common/math_util.h"
#include "distance/l2.h"

namespace kmeansll {

std::vector<double> RowSquaredNorms(const Matrix& m, ThreadPool* pool) {
  std::vector<double> norms(static_cast<size_t>(m.rows()));
  ParallelFor(pool, m.rows(), [&](IndexRange r) {
    for (int64_t i = r.begin; i < r.end; ++i) {
      norms[static_cast<size_t>(i)] = SquaredNorm(m.Row(i), m.cols());
    }
  });
  return norms;
}

std::vector<double> RowSquaredNorms(const DatasetSource& data,
                                    ThreadPool* pool) {
  const int64_t n = data.n();
  std::vector<double> norms(static_cast<size_t>(n));
  const int64_t d = data.dim();
  ParallelFor(pool, n, [&](IndexRange r) {
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      for (int64_t i = 0; i < v.rows(); ++i) {
        norms[static_cast<size_t>(v.first_row() + i)] =
            SquaredNorm(v.Point(i), d);
      }
    });
  });
  return norms;
}

NearestCenterSearch::NearestCenterSearch(const Matrix& centers, Kernel kernel)
    : centers_(centers) {
  switch (kernel) {
    case Kernel::kPlain:
      use_expanded_ = false;
      break;
    case Kernel::kExpanded:
      use_expanded_ = true;
      break;
    case Kernel::kAuto:
      use_expanded_ = centers.cols() >= kExpandedKernelMinDim;
      break;
  }
  if (use_expanded_) center_norms_ = RowSquaredNorms(centers_);
}

void NearestCenterSearch::Freeze() {
  // Re-validation point: Freeze() must refresh the norms alongside the
  // panels so both snapshots describe the same center values — even on
  // the first Freeze, where the centers may have been mutated since
  // construction. The redundant O(k·d) norm pass in the common
  // construct-then-immediately-Freeze pattern is noise next to any scan
  // that follows; a silent stale-norm snapshot would corrupt every
  // expanded-kernel distance with no check firing.
  if (use_expanded_) center_norms_ = RowSquaredNorms(centers_);
  PackPanels();
}

void NearestCenterSearch::FreezeWithNorms(std::vector<double> norms) {
  if (use_expanded_) {
    KMEANSLL_CHECK_EQ(static_cast<int64_t>(norms.size()), centers_.rows());
    // The adopted norms must be the local SquaredNorm chain's values for
    // the bound rows, or every expanded-kernel distance would silently
    // shift; the constructor's snapshot is exactly that chain, so a
    // bitwise compare against it is a complete check at O(k) cost.
    for (size_t c = 0; c < norms.size(); ++c) {
      KMEANSLL_CHECK(norms[c] == center_norms_[c]);
    }
    center_norms_ = std::move(norms);
  }
  PackPanels();
}

void NearestCenterSearch::PackPanels() {
  panels_.Pack(centers_);
  // The one-row screen re-ranks with the expanded kernel's values.
  if (use_expanded_) panels_.PackScreen();
  frozen_ = true;
}

void NearestCenterSearch::Unfreeze() {
  panels_.Clear();
  frozen_ = false;
}

NearestResult NearestCenterSearch::Find(const double* point) const {
  if (use_expanded_) {
    return FindWithNorm(point, SquaredNorm(point, centers_.cols()));
  }
  return FindWithNorm(point, 0.0);
}

NearestResult NearestCenterSearch::FindWithNorm(const double* point,
                                                double point_norm2) const {
  KMEANSLL_DCHECK(centers_.rows() > 0);
  NearestResult best;
  best.distance2 = std::numeric_limits<double>::infinity();
  const int64_t k = centers_.rows();
  const int64_t d = centers_.cols();
  // Pair* evaluators, not SquaredL2/DotProduct: the scalar reference path
  // must produce the engine's per-pair values bitwise (see batch.h).
  if (use_expanded_) {
    for (int64_t c = 0; c < k; ++c) {
      double d2 = SquaredL2Expanded(
          point_norm2, center_norms_[static_cast<size_t>(c)],
          PairDotProduct(point, centers_.Row(c), d));
      if (d2 < best.distance2) {
        best.distance2 = d2;
        best.index = c;
      }
    }
  } else {
    for (int64_t c = 0; c < k; ++c) {
      double d2 = PairSquaredL2(point, centers_.Row(c), d);
      if (d2 < best.distance2) {
        best.distance2 = d2;
        best.index = c;
      }
    }
  }
  return best;
}

void NearestCenterSearch::FindRange(ConstMatrixView points, IndexRange rows,
                                    const double* point_norms,
                                    int32_t* out_index,
                                    double* out_d2) const {
  KMEANSLL_DCHECK(centers_.rows() > 0);
  const int64_t n = rows.size();
  int32_t screened_index = -1;
  if (n == 1 && ScreenedTopM(points.Row(rows.begin), point_norms, panels_,
                             center_norms_or_null(), /*m=*/1,
                             &screened_index, out_d2)) {
    if (out_index != nullptr) *out_index = screened_index;
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    out_d2[i] = std::numeric_limits<double>::infinity();
  }
  if (out_index != nullptr) {
    for (int64_t i = 0; i < n; ++i) out_index[i] = -1;
  }
  if (frozen_) {
    BatchNearestMerge(points, rows, point_norms, panels_,
                      center_norms_or_null(), batch_kernel(), out_d2,
                      out_index);
    return;
  }
  BatchNearestMerge(points, rows, point_norms, centers_,
                    /*first_center=*/0, center_norms_or_null(),
                    batch_kernel(), out_d2, out_index);
}

void NearestCenterSearch::FindRange(const DatasetSource& data,
                                    IndexRange rows,
                                    const double* point_norms,
                                    int32_t* out_index,
                                    double* out_d2) const {
  ForEachBlock(data, rows.begin, rows.end, [&](const DatasetView& v) {
    const int64_t off = v.first_row() - rows.begin;
    FindRange(v.points(), IndexRange{0, v.rows()},
              point_norms == nullptr ? nullptr : point_norms + off,
              out_index == nullptr ? nullptr : out_index + off,
              out_d2 + off);
  });
}

void NearestCenterSearch::FindAll(const Matrix& points,
                                  std::vector<int32_t>* out_index,
                                  std::vector<double>* out_d2,
                                  ThreadPool* pool,
                                  const double* point_norms) const {
  const int64_t n = points.rows();
  if (out_index != nullptr) out_index->resize(static_cast<size_t>(n));
  out_d2->resize(static_cast<size_t>(n));
  // Pack at most once per call: without a frozen snapshot the chunks
  // below would otherwise each re-pack the full center set.
  CenterPanels local;
  const CenterPanels* panels = &panels_;
  if (!frozen_) {
    local.Pack(centers_);
    panels = &local;
  }
  // ParallelFor runs the fixed chunk grid with or without a pool, so tile
  // origins — and therefore results — are identical at every pool size
  // even when codegen contracts the kernels differently.
  ParallelFor(pool, n, [&](IndexRange r) {
    const int64_t len = r.size();
    double* d2 = out_d2->data() + r.begin;
    for (int64_t i = 0; i < len; ++i) {
      d2[i] = std::numeric_limits<double>::infinity();
    }
    int32_t* idx = nullptr;
    if (out_index != nullptr) {
      idx = out_index->data() + r.begin;
      for (int64_t i = 0; i < len; ++i) idx[i] = -1;
    }
    BatchNearestMerge(points, r,
                      point_norms == nullptr ? nullptr
                                             : point_norms + r.begin,
                      *panels, center_norms_or_null(), batch_kernel(), d2,
                      idx);
  });
}

void NearestCenterSearch::FindAll(const DatasetSource& data,
                                  std::vector<int32_t>* out_index,
                                  std::vector<double>* out_d2,
                                  ThreadPool* pool,
                                  const double* point_norms) const {
  const int64_t n = data.n();
  if (out_index != nullptr) out_index->resize(static_cast<size_t>(n));
  out_d2->resize(static_cast<size_t>(n));
  // Pack at most once per call (as in the Matrix FindAll): the chunk fan-
  // out below reuses one snapshot whether or not the search is frozen.
  CenterPanels local;
  const CenterPanels* panels = &panels_;
  if (!frozen_) {
    local.Pack(centers_);
    panels = &local;
  }
  // Per-row writes are independent; ParallelFor's chunk grid keeps tile
  // origins the same at every pool size (as in the Matrix FindAll).
  ParallelFor(pool, n, [&](IndexRange r) {
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      const int64_t first = v.first_row();
      const int64_t len = v.rows();
      double* d2 = out_d2->data() + first;
      for (int64_t i = 0; i < len; ++i) {
        d2[i] = std::numeric_limits<double>::infinity();
      }
      int32_t* idx = nullptr;
      if (out_index != nullptr) {
        idx = out_index->data() + first;
        for (int64_t i = 0; i < len; ++i) idx[i] = -1;
      }
      BatchNearestMerge(v.points(), IndexRange{0, len},
                        point_norms == nullptr ? nullptr
                                               : point_norms + first,
                        *panels, center_norms_or_null(), batch_kernel(), d2,
                        idx);
    });
  });
}

void NearestCenterSearch::FindTopMRange(ConstMatrixView points,
                                        IndexRange rows,
                                        const double* point_norms,
                                        int64_t m, int32_t* out_index,
                                        double* out_d2) const {
  KMEANSLL_DCHECK(centers_.rows() > 0);
  if (rows.size() == 1 &&
      ScreenedTopM(points.Row(rows.begin), point_norms, panels_,
                   center_norms_or_null(), m, out_index, out_d2)) {
    return;
  }
  if (frozen_) {
    BatchTopM(points, rows, point_norms, panels_, center_norms_or_null(),
              batch_kernel(), m, out_index, out_d2);
    return;
  }
  CenterPanels local;
  local.Pack(centers_);
  BatchTopM(points, rows, point_norms, local, center_norms_or_null(),
            batch_kernel(), m, out_index, out_d2);
}

void NearestCenterSearch::DistancesRange(ConstMatrixView points,
                                         IndexRange rows,
                                         const double* point_norms,
                                         double* out_d2) const {
  KMEANSLL_DCHECK(centers_.rows() > 0);
  if (frozen_) {
    BatchDistances(points, rows, point_norms, panels_,
                   center_norms_or_null(), batch_kernel(), out_d2);
    return;
  }
  CenterPanels local;
  local.Pack(centers_);
  BatchDistances(points, rows, point_norms, local, center_norms_or_null(),
                 batch_kernel(), out_d2);
}

MinDistanceTracker::MinDistanceTracker(const Dataset& data, ThreadPool* pool)
    : owned_source_(data.AsSource()),
      data_(&*owned_source_),
      pool_(pool),
      min_d2_(static_cast<size_t>(data.n()),
              std::numeric_limits<double>::infinity()),
      closest_(static_cast<size_t>(data.n()), -1),
      potential_(std::numeric_limits<double>::infinity()) {}

MinDistanceTracker::MinDistanceTracker(const DatasetSource& data,
                                       ThreadPool* pool,
                                       const double* point_norms)
    : data_(&data),
      pool_(pool),
      point_norms_(point_norms),
      min_d2_(static_cast<size_t>(data.n()),
              std::numeric_limits<double>::infinity()),
      closest_(static_cast<size_t>(data.n()), -1),
      potential_(std::numeric_limits<double>::infinity()) {}

double MinDistanceTracker::AddCenters(const Matrix& centers, int64_t first) {
  KMEANSLL_CHECK_EQ(centers.cols(), data_->dim());
  KMEANSLL_CHECK(first >= 0 && first <= centers.rows());
  const int64_t d = data_->dim();
  const bool expanded = d >= kExpandedKernelMinDim;

  // Point norms are a pure function of the (immutable) dataset: the
  // caller's, or computed once on first use and reused by every
  // subsequent round. The plain kernel reads none, and an empty dataset
  // has none, so the base pointer stays null there.
  if (expanded && point_norms_ == nullptr && data_->n() > 0) {
    owned_norms_ = RowSquaredNorms(*data_, pool_);
    point_norms_ = owned_norms_.data();
  }
  const double* norms_base = expanded ? point_norms_ : nullptr;

  // Norms for just the newly added center rows (tiny next to the n·k·d
  // scan; indexed relative to `first` as the engine expects).
  std::vector<double> new_center_norms;
  if (expanded) {
    const int64_t added = centers.rows() - first;
    new_center_norms.resize(static_cast<size_t>(added > 0 ? added : 0));
    for (int64_t c = first; c < centers.rows(); ++c) {
      new_center_norms[static_cast<size_t>(c - first)] =
          SquaredNorm(centers.Row(c), d);
    }
  }
  // Pack the new rows once per call; every chunk of the parallel pass
  // below scans the same panels instead of re-packing them.
  CenterPanels panels;
  panels.Pack(centers, first);

  // One blocked pass: merge the new centers into (min_d2, closest) and
  // fold the updated potential into per-chunk Kahan partials, combined in
  // chunk order — bitwise identical for any thread count.
  // Per-chunk body: merge the new centers block by block (per-row values
  // are placement-invariant), then fold the weighted potential over the
  // chunk's rows in ascending order — the identical Kahan chain whether
  // the rows arrive as one in-memory block or several pinned shards.
  auto map = [&](IndexRange r) {
    KahanSum partial;
    ForEachBlock(*data_, r.begin, r.end, [&](const DatasetView& v) {
      const int64_t first_row = v.first_row();
      BatchNearestMerge(
          v.points(), IndexRange{0, v.rows()},
          norms_base == nullptr ? nullptr : norms_base + first_row, panels,
          expanded ? new_center_norms.data() : nullptr,
          expanded ? BatchKernel::kExpanded : BatchKernel::kPlain,
          min_d2_.data() + first_row, closest_.data() + first_row);
      for (int64_t i = 0; i < v.rows(); ++i) {
        partial.Add(v.Weight(i) *
                    min_d2_[static_cast<size_t>(first_row + i)]);
      }
    });
    return partial;
  };
  auto combine = [](KahanSum a, KahanSum b) {
    a.Merge(b);
    return a;
  };
  potential_ = ParallelReduce<KahanSum>(pool_, data_->n(), KahanSum(), map,
                                        combine)
                   .Total();
  return potential_;
}

std::vector<double> MinDistanceTracker::WeightedContributions() const {
  std::vector<double> out(min_d2_.size());
  ForEachBlock(*data_, 0, data_->n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      const int64_t g = v.first_row() + i;
      out[static_cast<size_t>(g)] =
          v.Weight(i) * min_d2_[static_cast<size_t>(g)];
    }
  });
  return out;
}

}  // namespace kmeansll
