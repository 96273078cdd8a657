#include "clustering/cost.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

double ReduceNearest(const DatasetSource& data, const NearestRangeFn& find,
                     ThreadPool* pool, const double* point_norms,
                     int32_t* out_cluster) {
  const int64_t n = data.n();
  // Evaluates rows [begin, end) block by block in ascending order and
  // hands each row's w·d² to `sink`.
  auto scan = [&](int64_t begin, int64_t end, auto&& sink) {
    ForEachBlock(data, begin, end, [&](const DatasetView& v) {
      const int64_t first = v.first_row();
      std::vector<double> d2(static_cast<size_t>(v.rows()));
      find(v.points(), IndexRange{0, v.rows()},
           point_norms == nullptr ? nullptr : point_norms + first,
           out_cluster == nullptr ? nullptr : out_cluster + first,
           d2.data());
      for (int64_t i = 0; i < v.rows(); ++i) {
        sink(first + i, v.Weight(i) * d2[static_cast<size_t>(i)]);
      }
    });
  };

  if (n >= kDeterministicChunks * kPointTile) {
    // Every chunk holds at least one engine tile: evaluate and fold chunk
    // by chunk. Shard-aware execution over an out-of-core source: workers
    // take chunks from disjoint shard spans. Timing only — the fold stays
    // in chunk order, so the result is bitwise the unscheduled one.
    const ScanSchedule schedule = MakeScanSchedule(data, n, pool);
    auto map = [&](IndexRange r) {
      KahanSum partial;
      scan(r.begin, r.end, [&](int64_t, double wd2) { partial.Add(wd2); });
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
  // request would be 64 one-row scans). Evaluate in tiles of at least
  // kPointTile rows instead (the whole input without a pool), then fold
  // the stored w·d² on the unchanged chunk grid, merging the per-chunk
  // partials in chunk order exactly as ParallelReduce does. A row's value
  // depends only on its row and the centers, so both the indices and the
  // cost are bitwise the chunk-by-chunk ones. There are fewer tiles than
  // kDeterministicChunks, so ParallelFor runs one tile per chunk (inline
  // without a pool).
  std::vector<double> wd2(static_cast<size_t>(n));
  const std::vector<IndexRange> tiles = MakeChunks(
      n, pool == nullptr ? 1 : std::max<int64_t>(1, n / kPointTile));
  ParallelFor(pool, static_cast<int64_t>(tiles.size()), [&](IndexRange t) {
    for (int64_t i = t.begin; i < t.end; ++i) {
      const IndexRange r = tiles[static_cast<size_t>(i)];
      scan(r.begin, r.end, [&](int64_t row, double v) {
        wd2[static_cast<size_t>(row)] = v;
      });
    }
  });
  KahanSum total;
  for (const IndexRange& c : MakeChunks(n, kDeterministicChunks)) {
    KahanSum partial;
    for (int64_t i = c.begin; i < c.end; ++i) {
      partial.Add(wd2[static_cast<size_t>(i)]);
    }
    total.Merge(partial);
  }
  return total.Total();
}

double ReduceNearestWithSearch(const DatasetSource& data,
                               const NearestCenterSearch& search,
                               ThreadPool* pool, const double* point_norms,
                               int32_t* out_cluster) {
  KMEANSLL_CHECK_GT(search.num_centers(), 0);
  KMEANSLL_CHECK(search.frozen());
  return ReduceNearest(
      data,
      [&search](ConstMatrixView points, IndexRange rows,
                const double* norms, int32_t* index, double* d2) {
        search.FindRange(points, rows, norms, index, d2);
      },
      pool, point_norms, out_cluster);
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
