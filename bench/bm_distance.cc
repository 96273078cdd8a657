// Micro-benchmarks for the distance kernels — the ablation behind the
// kernel choice in docs/ARCHITECTURE.md, "The distance engine" (plain
// vs norm-expanded nearest-center search).

#include <benchmark/benchmark.h>

#include "distance/l2.h"
#include "distance/nearest.h"
#include "matrix/matrix.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

void BM_SquaredL2(benchmark::State& state) {
  const int64_t d = state.range(0);
  Matrix pts = RandomMatrix(2, d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredL2(pts.Row(0), pts.Row(1), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_SquaredL2)->Arg(15)->Arg(42)->Arg(58)->Arg(128);

void BM_DotProduct(benchmark::State& state) {
  const int64_t d = state.range(0);
  Matrix pts = RandomMatrix(2, d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotProduct(pts.Row(0), pts.Row(1), d));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_DotProduct)->Arg(15)->Arg(42)->Arg(58)->Arg(128);

// Nearest-center scan: plain vs norm-expanded kernel across (k, d).
void BM_NearestCenterPlain(benchmark::State& state) {
  const int64_t k = state.range(0);
  const int64_t d = state.range(1);
  Matrix centers = RandomMatrix(k, d, 3);
  Matrix query = RandomMatrix(1, d, 4);
  NearestCenterSearch search(centers, NearestCenterSearch::Kernel::kPlain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.Find(query.Row(0)));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_NearestCenterPlain)
    ->Args({50, 15})
    ->Args({100, 58})
    ->Args({500, 42})
    ->Args({1000, 42});

void BM_NearestCenterExpanded(benchmark::State& state) {
  const int64_t k = state.range(0);
  const int64_t d = state.range(1);
  Matrix centers = RandomMatrix(k, d, 5);
  Matrix query = RandomMatrix(1, d, 6);
  NearestCenterSearch search(centers,
                             NearestCenterSearch::Kernel::kExpanded);
  double norm = SquaredNorm(query.Row(0), d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search.FindWithNorm(query.Row(0), norm));
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_NearestCenterExpanded)
    ->Args({50, 15})
    ->Args({100, 58})
    ->Args({500, 42})
    ->Args({1000, 42});

// Incremental min-distance update (one new center against n points) —
// the per-round inner loop of k-means||.
void BM_MinDistanceUpdate(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t d = 42;
  Matrix points = RandomMatrix(n, d, 7);
  Dataset data(points);
  Matrix first = RandomMatrix(1, d, 8);
  for (auto _ : state) {
    state.PauseTiming();
    MinDistanceTracker tracker(data);
    tracker.AddCenters(first, 0);
    Matrix grown = first;
    grown.AppendRow(RandomMatrix(1, d, 9).Row(0));
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.AddCenters(grown, 1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MinDistanceUpdate)->Arg(4096)->Arg(32768);

}  // namespace
}  // namespace kmeansll
