#include "matrix/dataset_view.h"

#include <cstring>

#include "common/math_util.h"

namespace kmeansll {

double InMemorySource::TotalWeight() const {
  if (!view_.has_weights()) return static_cast<double>(view_.rows());
  KahanSum sum;
  for (int64_t i = 0; i < view_.rows(); ++i) sum.Add(view_.Weight(i));
  return sum.Total();
}

double PrefixSource::TotalWeight() const {
  if (!has_weights()) return static_cast<double>(n_);
  KahanSum sum;
  ForEachBlock(*this, 0, n_, [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) sum.Add(v.Weight(i));
  });
  return sum.Total();
}

namespace {

template <typename PerRun>
void VisitRuns(const DatasetSource& source,
               const std::vector<int64_t>& indices, PerRun&& per_run) {
  const auto count = static_cast<int64_t>(indices.size());
  int64_t j = 0;
  while (j < count) {
    const int64_t first = indices[static_cast<size_t>(j)];
    KMEANSLL_CHECK(first >= 0 && first < source.n());
    int64_t run = 1;
    while (j + run < count &&
           indices[static_cast<size_t>(j + run)] ==
               indices[static_cast<size_t>(j + run - 1)] + 1) {
      ++run;
    }
    KMEANSLL_CHECK(first + run <= source.n());
    // A run may still span shard boundaries; ForEachBlock splits it.
    ForEachBlock(source, first, first + run, [&](const DatasetView& v) {
      per_run(j + (v.first_row() - first), v);
    });
    j += run;
  }
}

}  // namespace

Matrix GatherPoints(const DatasetSource& source,
                    const std::vector<int64_t>& indices) {
  const int64_t d = source.dim();
  Matrix out(static_cast<int64_t>(indices.size()), d);
  VisitRuns(source, indices, [&](int64_t out_row, const DatasetView& v) {
    if (d > 0) {
      std::memcpy(out.Row(out_row), v.Point(0),
                  static_cast<size_t>(v.rows() * d) * sizeof(double));
    }
  });
  return out;
}

Matrix GatherPointsAndWeights(const DatasetSource& source,
                              const std::vector<int64_t>& indices,
                              std::vector<double>* weights) {
  const int64_t d = source.dim();
  Matrix out(static_cast<int64_t>(indices.size()), d);
  weights->assign(indices.size(), 1.0);
  VisitRuns(source, indices, [&](int64_t out_row, const DatasetView& v) {
    if (d > 0) {
      std::memcpy(out.Row(out_row), v.Point(0),
                  static_cast<size_t>(v.rows() * d) * sizeof(double));
    }
    if (v.has_weights()) {
      std::memcpy(weights->data() + out_row, v.weights(),
                  static_cast<size_t>(v.rows()) * sizeof(double));
    }
  });
  return out;
}

}  // namespace kmeansll
