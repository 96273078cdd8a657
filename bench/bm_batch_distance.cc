// Benchmark for the blocked batch-distance engine (distance/batch.h):
// scalar per-point scans vs the norm-expanded per-point scan vs the tiled
// 4×2 blocked kernels, across (n, k, d) grids, plus the k-means|| round
// update (MinDistanceTracker::AddCenters) that sits on top of it. The
// numbers recorded in README.md ("Distance engine") and the
// kExpandedKernelMinDim constant come from this benchmark.
//
// Throughput is reported in point-center pairs per second
// (items = n · k), so kernels are directly comparable at any shape.

#include <benchmark/benchmark.h>

#include <limits>
#include <vector>

#include "clustering/cost.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
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

// The (n, k, d) grid shared by the kernel comparisons. d straddles the
// plain/expanded crossover; k straddles the center-tile size. k = 1 and 4
// (the first k-means|| round, k-means++ steps) are all residue panel, and
// k = 100 (perfbench's train_sharded) is 6 full panels plus a residue of 4.
void KernelGrid(benchmark::internal::Benchmark* b) {
  for (int64_t d : {4, 8, 16, 24, 32, 48, 64, 128}) {
    for (int64_t k : {1, 4, 16, 64, 100, 256}) {
      b->Args({4096, k, d});
    }
  }
}

// --- Scalar per-point baselines (the pre-engine code path) ---------------

void BM_ScalarPlain(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Matrix points = RandomMatrix(n, d, 1);
  Matrix centers = RandomMatrix(k, d, 2);
  NearestCenterSearch search(centers, NearestCenterSearch::Kernel::kPlain);
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(search.Find(points.Row(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}
BENCHMARK(BM_ScalarPlain)->Apply(KernelGrid);

void BM_ScalarExpanded(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Matrix points = RandomMatrix(n, d, 1);
  Matrix centers = RandomMatrix(k, d, 2);
  NearestCenterSearch search(centers,
                             NearestCenterSearch::Kernel::kExpanded);
  std::vector<double> norms = RowSquaredNorms(points);
  for (auto _ : state) {
    for (int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          search.FindWithNorm(points.Row(i), norms[static_cast<size_t>(i)]));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}
BENCHMARK(BM_ScalarExpanded)->Apply(KernelGrid);

// --- Blocked batch kernels ----------------------------------------------

void RunBlocked(benchmark::State& state, BatchKernel kernel) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Matrix points = RandomMatrix(n, d, 1);
  Matrix centers = RandomMatrix(k, d, 2);
  std::vector<double> point_norms = RowSquaredNorms(points);
  std::vector<double> center_norms = RowSquaredNorms(centers);
  std::vector<double> best_d2(static_cast<size_t>(n));
  std::vector<int32_t> best_idx(static_cast<size_t>(n));
  for (auto _ : state) {
    std::fill(best_d2.begin(), best_d2.end(),
              std::numeric_limits<double>::infinity());
    BatchNearestMerge(points, IndexRange{0, n}, point_norms.data(),
                      centers, 0, center_norms.data(), kernel,
                      best_d2.data(), best_idx.data());
    benchmark::DoNotOptimize(best_d2.data());
    benchmark::DoNotOptimize(best_idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}

void BM_BlockedPlain(benchmark::State& state) {
  RunBlocked(state, BatchKernel::kPlain);
}
BENCHMARK(BM_BlockedPlain)->Apply(KernelGrid);

void BM_BlockedExpanded(benchmark::State& state) {
  RunBlocked(state, BatchKernel::kExpanded);
}
BENCHMARK(BM_BlockedExpanded)->Apply(KernelGrid);

// --- k-means|| round update on top of the engine ------------------------

// One k-means|| round: merge `k` new centers into an existing tracker
// state over n points (the hottest loop in the paper's Algorithm 2).
void BM_TrackerAddCenters(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Dataset data(RandomMatrix(n, d, 3));
  Matrix first = RandomMatrix(1, d, 4);
  Matrix grown = first;
  grown.AppendRows(RandomMatrix(k, d, 5));
  for (auto _ : state) {
    state.PauseTiming();
    MinDistanceTracker tracker(data);
    tracker.AddCenters(first, 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracker.AddCenters(grown, 1));
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}
BENCHMARK(BM_TrackerAddCenters)
    ->Args({32768, 64, 16})
    ->Args({32768, 64, 64})
    ->Args({8192, 256, 64});

// --- Panel cache: frozen panels vs per-call re-packing ------------------

// Small-row-count regime (minibatch batches, the per-chunk ranges of a
// chunked parallel pass): each call scans only
// `n` rows against all k centers, so the O(k·d) packing is a large
// fraction of the call. Freeze() packs once; the unfrozen path re-packs
// on every FindRange. The README "panel cache" numbers come from here.
void PanelGrid(benchmark::internal::Benchmark* b) {
  for (int64_t n : {32, 64, 128, 256}) {
    b->Args({n, 256, 64});
  }
  b->Args({256, 256, 16});   // plain-kernel regime
  b->Args({256, 1024, 64});  // many panels
}

void RunPanelCache(benchmark::State& state, bool frozen) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Matrix points = RandomMatrix(n, d, 8);
  Matrix centers = RandomMatrix(k, d, 9);
  std::vector<double> point_norms = RowSquaredNorms(points);
  std::vector<int32_t> idx(static_cast<size_t>(n));
  std::vector<double> d2(static_cast<size_t>(n));
  NearestCenterSearch search(centers);
  if (frozen) search.Freeze();
  for (auto _ : state) {
    search.FindRange(points, IndexRange{0, n}, point_norms.data(),
                     idx.data(), d2.data());
    benchmark::DoNotOptimize(idx.data());
    benchmark::DoNotOptimize(d2.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}

void BM_FindRangeRepack(benchmark::State& state) {
  RunPanelCache(state, /*frozen=*/false);
}
BENCHMARK(BM_FindRangeRepack)->Apply(PanelGrid);

void BM_FindRangeFrozen(benchmark::State& state) {
  RunPanelCache(state, /*frozen=*/true);
}
BENCHMARK(BM_FindRangeFrozen)->Apply(PanelGrid);

// Lloyd's hottest call: one full assignment pass (ComputeAssignment
// freezes once per call; before the panel cache each of the ~64 chunks
// re-packed the center set).
void BM_AssignmentPass(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Dataset data(RandomMatrix(n, d, 10));
  Matrix centers = RandomMatrix(k, d, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAssignment(data, centers));
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}
BENCHMARK(BM_AssignmentPass)
    ->Args({4096, 64, 64})
    ->Args({4096, 256, 64})
    ->Args({16384, 256, 16});

// --- Smoke (tiny sizes; run under ctest so the binary cannot bit-rot) ---

void BM_Smoke(benchmark::State& state) {
  const int64_t n = 96, k = 9, d = 17;  // off the tile/micro boundaries
  Matrix points = RandomMatrix(n, d, 6);
  Matrix centers = RandomMatrix(k, d, 7);
  std::vector<double> best_d2(static_cast<size_t>(n));
  std::vector<int32_t> best_idx(static_cast<size_t>(n));
  NearestCenterSearch search(centers);
  for (auto _ : state) {
    search.FindRange(points, IndexRange{0, n}, nullptr, best_idx.data(),
                     best_d2.data());
    benchmark::DoNotOptimize(best_idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n * k);
}
BENCHMARK(BM_Smoke);

}  // namespace
}  // namespace kmeansll
