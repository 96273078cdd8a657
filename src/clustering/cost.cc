#include "clustering/cost.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

namespace {

/// Evaluates rows [begin, end) of `data` block by block in ascending
/// order and hands each row's w·d² to `sink`.
template <typename Sink>
void ScanRows(const DatasetSource& data, const NearestRangeFn& find,
              const double* point_norms, int32_t* out_cluster, int64_t begin,
              int64_t end, Sink&& sink) {
  ForEachBlock(data, begin, end, [&](const DatasetView& v) {
    const int64_t first = v.first_row();
    std::vector<double> d2(static_cast<size_t>(v.rows()));
    find(v.points(), IndexRange{0, v.rows()},
         point_norms == nullptr ? nullptr : point_norms + first,
         out_cluster == nullptr ? nullptr : out_cluster + first, d2.data());
    for (int64_t i = 0; i < v.rows(); ++i) {
      sink(first + i, v.Weight(i) * d2[static_cast<size_t>(i)]);
    }
  });
}

/// Stores each row's w·d² for rows [begin, end) in row_costs[row]. A
/// range with an engine tile per chunk runs on the chunk grid (with the
/// shard-aware schedule when it starts at row 0); a shorter one runs in
/// tiles of at least kPointTile rows (the whole range without a pool),
/// so the engine never sees one-row slivers. A row's value depends only
/// on the row and `find`, so every schedule stores the same bits.
void ScoreRows(const DatasetSource& data, const NearestRangeFn& find,
               ThreadPool* pool, const double* point_norms,
               int32_t* out_cluster, int64_t begin, int64_t end,
               double* row_costs) {
  const int64_t rows = end - begin;
  auto store = [row_costs](int64_t row, double v) { row_costs[row] = v; };
  if (rows >= kDeterministicChunks * kPointTile) {
    const ScanSchedule schedule =
        begin == 0 ? MakeScanSchedule(data, rows, pool) : ScanSchedule();
    ParallelFor(
        pool, rows,
        [&](IndexRange r) {
          ScanRows(data, find, point_norms, out_cluster, begin + r.begin,
                   begin + r.end, store);
        },
        &schedule);
    return;
  }
  const std::vector<IndexRange> tiles = MakeChunks(
      rows, pool == nullptr ? 1 : std::max<int64_t>(1, rows / kPointTile));
  ParallelFor(pool, static_cast<int64_t>(tiles.size()), [&](IndexRange t) {
    for (int64_t i = t.begin; i < t.end; ++i) {
      const IndexRange r = tiles[static_cast<size_t>(i)];
      ScanRows(data, find, point_norms, out_cluster, begin + r.begin,
               begin + r.end, store);
    }
  });
}

NearestRangeFn SearchRangeFn(const NearestCenterSearch& search) {
  return [&search](ConstMatrixView points, IndexRange rows,
                   const double* norms, int32_t* index, double* d2) {
    search.FindRange(points, rows, norms, index, d2);
  };
}

}  // namespace

double FoldRowCosts(const double* row_costs, int64_t n, ThreadPool* pool) {
  auto map = [row_costs](IndexRange r) {
    KahanSum partial;
    for (int64_t i = r.begin; i < r.end; ++i) partial.Add(row_costs[i]);
    return partial;
  };
  auto combine = [](KahanSum a, KahanSum b) {
    a.Merge(b);
    return a;
  };
  return ParallelReduce<KahanSum>(pool, n, KahanSum(), map, combine).Total();
}

double ReduceNearest(const DatasetSource& data, const NearestRangeFn& find,
                     ThreadPool* pool, const double* point_norms,
                     int32_t* out_cluster) {
  const int64_t n = data.n();
  if (n >= kDeterministicChunks * kPointTile) {
    // Every chunk holds at least one engine tile: evaluate and fold chunk
    // by chunk. Shard-aware execution over an out-of-core source: workers
    // take chunks from disjoint shard spans. Timing only — the fold stays
    // in chunk order, so the result is bitwise the unscheduled one.
    const ScanSchedule schedule = MakeScanSchedule(data, n, pool);
    auto map = [&](IndexRange r) {
      KahanSum partial;
      ScanRows(data, find, point_norms, out_cluster, r.begin, r.end,
               [&](int64_t, double wd2) { partial.Add(wd2); });
      return partial;
    };
    auto combine = [](KahanSum a, KahanSum b) {
      a.Merge(b);
      return a;
    };
    return ParallelReduce<KahanSum>(pool, n, KahanSum(), map, combine,
                                    &schedule)
        .Total();
  }

  // Fewer rows than one engine tile per chunk (serving's bulk requests):
  // chunk-by-chunk evaluation would hand the engine slivers (a 64-row
  // request would be 64 one-row scans). Score in tiles instead, then fold
  // the stored w·d² on the unchanged chunk grid. A row's value depends
  // only on its row and the centers, so both the indices and the cost
  // are bitwise the chunk-by-chunk ones. The fold is a few dozen adds
  // per chunk: it runs inline rather than as pool tasks.
  std::vector<double> wd2(static_cast<size_t>(n));
  ScoreRows(data, find, pool, point_norms, out_cluster, 0, n, wd2.data());
  return FoldRowCosts(wd2.data(), n, /*pool=*/nullptr);
}

double ReduceNearestWithSearch(const DatasetSource& data,
                               const NearestCenterSearch& search,
                               ThreadPool* pool, const double* point_norms,
                               int32_t* out_cluster) {
  KMEANSLL_CHECK_GT(search.num_centers(), 0);
  KMEANSLL_CHECK(search.frozen());
  return ReduceNearest(data, SearchRangeFn(search), pool, point_norms,
                       out_cluster);
}

namespace {

/// ComputeCost / ComputeAssignment build and freeze a search of their own
/// — one packing per call, shared by every chunk below.
double NearestReduce(const DatasetSource& data, const Matrix& centers,
                     ThreadPool* pool, const double* point_norms,
                     int32_t* out_cluster) {
  KMEANSLL_CHECK_GT(centers.rows(), 0);
  KMEANSLL_CHECK_EQ(centers.cols(), data.dim());
  NearestCenterSearch search(centers);
  search.Freeze();
  return ReduceNearestWithSearch(data, search, pool, point_norms,
                                 out_cluster);
}

}  // namespace

double ComputeCost(const DatasetSource& data, const Matrix& centers,
                   ThreadPool* pool, const double* point_norms) {
  return NearestReduce(data, centers, pool, point_norms,
                       /*out_cluster=*/nullptr);
}

double ComputeCost(const Dataset& data, const Matrix& centers,
                   ThreadPool* pool, const double* point_norms) {
  InMemorySource source = data.AsSource();
  return ComputeCost(source, centers, pool, point_norms);
}

double ComputeRowCosts(const DatasetSource& data, const Matrix& centers,
                       ThreadPool* pool, int64_t first_row,
                       std::vector<double>* row_costs) {
  KMEANSLL_CHECK_GT(centers.rows(), 0);
  KMEANSLL_CHECK_EQ(centers.cols(), data.dim());
  const int64_t n = data.n();
  KMEANSLL_CHECK(first_row >= 0 && first_row <= n &&
                 static_cast<int64_t>(row_costs->size()) >= first_row);
  row_costs->resize(static_cast<size_t>(n));
  if (first_row < n) {
    NearestCenterSearch search(centers);
    search.Freeze();
    ScoreRows(data, SearchRangeFn(search), pool, /*point_norms=*/nullptr,
              /*out_cluster=*/nullptr, first_row, n, row_costs->data());
  }
  return FoldRowCosts(row_costs->data(), n, pool);
}

Assignment ComputeAssignment(const DatasetSource& data,
                             const Matrix& centers, ThreadPool* pool,
                             const double* point_norms) {
  Assignment out;
  out.cluster.assign(static_cast<size_t>(data.n()), -1);
  out.cost = NearestReduce(data, centers, pool, point_norms,
                           out.cluster.data());
  return out;
}

Assignment ComputeAssignment(const Dataset& data, const Matrix& centers,
                             ThreadPool* pool, const double* point_norms) {
  InMemorySource source = data.AsSource();
  return ComputeAssignment(source, centers, pool, point_norms);
}

}  // namespace kmeansll
