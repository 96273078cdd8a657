// Micro-benchmarks for the RNG substrate and the D² samplers — the
// build-vs-draw trade-off (PrefixSumSampler vs AliasTable) plus the
// hashed per-index uniforms used by k-means||.

#include <benchmark/benchmark.h>

#include <vector>

#include "rng/discrete.h"
#include "rng/reservoir.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"

namespace kmeansll::rng {
namespace {

void BM_NextUInt64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextUInt64());
}
BENCHMARK(BM_NextUInt64);

void BM_NextGaussian(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextGaussian());
}
BENCHMARK(BM_NextGaussian);

void BM_UniformAtIndex(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(UniformAtIndex(42, ++i));
  }
}
BENCHMARK(BM_UniformAtIndex);

std::vector<double> MakeWeights(int64_t n) {
  Rng rng(3);
  std::vector<double> w(static_cast<size_t>(n));
  for (auto& v : w) v = rng.NextExponential(1.0);
  return w;
}

void BM_PrefixSumBuild(benchmark::State& state) {
  auto weights = MakeWeights(state.range(0));
  for (auto _ : state) {
    auto sampler = PrefixSumSampler::Build(weights);
    benchmark::DoNotOptimize(sampler.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixSumBuild)->Arg(4096)->Arg(65536);

void BM_PrefixSumSample(benchmark::State& state) {
  auto weights = MakeWeights(state.range(0));
  auto sampler = PrefixSumSampler::Build(weights);
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(sampler->Sample(rng));
}
BENCHMARK(BM_PrefixSumSample)->Arg(4096)->Arg(65536);

void BM_AliasBuild(benchmark::State& state) {
  auto weights = MakeWeights(state.range(0));
  for (auto _ : state) {
    auto sampler = AliasTable::Build(weights);
    benchmark::DoNotOptimize(sampler.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AliasBuild)->Arg(4096)->Arg(65536);

void BM_AliasSample(benchmark::State& state) {
  auto weights = MakeWeights(state.range(0));
  auto sampler = AliasTable::Build(weights);
  Rng rng(5);
  for (auto _ : state) benchmark::DoNotOptimize(sampler->Sample(rng));
}
BENCHMARK(BM_AliasSample)->Arg(4096)->Arg(65536);

void BM_WeightedReservoir(benchmark::State& state) {
  const int64_t n = state.range(0);
  auto weights = MakeWeights(n);
  for (auto _ : state) {
    WeightedReservoir reservoir(100, Rng(6));
    for (int64_t i = 0; i < n; ++i) {
      reservoir.Offer(i, weights[static_cast<size_t>(i)]);
    }
    benchmark::DoNotOptimize(reservoir.Items());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WeightedReservoir)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace kmeansll::rng
