#include "matrix/dataset_view.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"

namespace kmeansll {

double InMemorySource::TotalWeight() const {
  if (!view_.has_weights()) return static_cast<double>(view_.rows());
  KahanSum sum;
  for (int64_t i = 0; i < view_.rows(); ++i) sum.Add(view_.Weight(i));
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

ScanSchedule MakeScanSchedule(const DatasetSource& source, int64_t total,
                              ThreadPool* pool) {
  ScanSchedule schedule;
  if (total <= 0 || pool == nullptr) return schedule;
  const std::vector<std::pair<int64_t, int64_t>> shards =
      source.ResidencyRanges();
  const std::vector<IndexRange> chunks =
      MakeChunks(total, kDeterministicChunks);

  // Split the shard list into `groups` contiguous spans — one per worker
  // that can usefully run concurrently — and give each group its chunks
  // in ascending order. Workers then stream disjoint shard sequences.
  // The residency window caps the fan-out: streaming more concurrent
  // sequences than it holds shards would evict mappings out from under
  // the other workers.
  size_t groups = std::min(static_cast<size_t>(pool->num_threads()),
                           shards.size());
  const int64_t capacity = source.ResidentUnitCapacity();
  if (capacity > 0) {
    groups = std::min(groups, static_cast<size_t>(capacity));
  }
  if (groups < 2 || chunks.size() < 2) return schedule;

  // Shard owning a row (shards are ascending and contiguous from row 0).
  auto shard_of = [&](int64_t row) {
    size_t lo = 0, hi = shards.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi + 1) / 2;
      if (shards[mid].first <= row) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };
  std::vector<std::vector<size_t>> sequences(groups);
  for (size_t c = 0; c < chunks.size(); ++c) {
    sequences[shard_of(chunks[c].begin) * groups / shards.size()]
        .push_back(c);
  }

  // Round-robin submission across groups.
  schedule.order.reserve(chunks.size());
  std::vector<size_t> cursor(groups, 0);
  while (schedule.order.size() < chunks.size()) {
    for (size_t g = 0; g < groups; ++g) {
      if (cursor[g] < sequences[g].size()) {
        schedule.order.push_back(sequences[g][cursor[g]++]);
      }
    }
  }
  return schedule;
}

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
