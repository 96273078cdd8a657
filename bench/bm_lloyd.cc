// Micro-benchmarks of Lloyd's iteration and mini-batch refinement: cost
// per pass, scaling in k and in pool workers, and the
// mini-batch-vs-full-batch trade (Sculley extension).

#include <benchmark/benchmark.h>

#include <memory>

#include "clustering/init_random.h"
#include "clustering/lloyd.h"
#include "clustering/minibatch.h"
#include "common/macros.h"
#include "data/synthetic.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

const Dataset& BenchData() {
  static const Dataset* data = [] {
    auto generated = data::GenerateKddLike({.n = 8192, .dim = 42},
                                           rng::Rng(21));
    KMEANSLL_CHECK(generated.ok());
    return new Dataset(std::move(generated->data));
  }();
  return *data;
}

Matrix Seed(int64_t k) {
  auto result = RandomInit(BenchData(), k, rng::Rng(22));
  result.status().Abort("seed");
  return std::move(result->centers);
}

void BM_LloydStep(benchmark::State& state) {
  const int64_t k = state.range(0);
  Matrix centers = Seed(k);
  for (auto _ : state) {
    Matrix updated;
    Assignment assignment;
    LloydStep(BenchData(), centers, &updated, &assignment, nullptr);
    benchmark::DoNotOptimize(assignment.cost);
  }
  state.SetItemsProcessed(state.iterations() * BenchData().n() * k);
}
BENCHMARK(BM_LloydStep)
    ->Arg(20)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

// Ten iterations at k = range(0) on a pool of range(1) workers (0 runs
// sequentially); the pool is built outside the timed loop. A pooled run
// must reproduce the sequential run's centers and cost bit for bit, so
// the smoke run under ctest also checks the pool-size contract.
void BM_LloydTenIterations(benchmark::State& state) {
  const int64_t k = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  Matrix centers = Seed(k);
  LloydOptions options;
  options.max_iterations = 10;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    auto sequential = RunLloyd(BenchData(), centers, options);
    auto pooled = RunLloyd(BenchData(), centers, options, pool.get());
    KMEANSLL_CHECK(sequential.ok() && pooled.ok());
    KMEANSLL_CHECK(pooled->centers == sequential->centers);
    KMEANSLL_CHECK(pooled->assignment.cost == sequential->assignment.cost);
  }
  for (auto _ : state) {
    auto result = RunLloyd(BenchData(), centers, options, pool.get());
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_LloydTenIterations)
    ->ArgsProduct({{20, 100}, {0, 3}})
    ->ArgNames({"k", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MiniBatchHundredIterations(benchmark::State& state) {
  const int64_t k = state.range(0);
  Matrix centers = Seed(k);
  MiniBatchOptions options;
  options.batch_size = 256;
  options.iterations = 100;
  uint64_t seed = 0;
  for (auto _ : state) {
    auto result =
        RunMiniBatch(BenchData(), centers, options, rng::Rng(++seed));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MiniBatchHundredIterations)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kmeansll
