// Benchmark for the out-of-core storage layer (data/shard_store.h):
// rows/sec streamed through the cost reduction over a ShardedDataset —
// with an unbounded window (every shard stays mapped after first touch)
// and with a window of three shards (the eviction/re-map regime, where
// every pass must re-map almost every shard) — against the in-memory
// Dataset path. The windowed variants run with the prefetch pipeline on
// and off so the I/O/compute overlap is directly visible: the
// "stall_ms" counter is the time scan threads spent blocked on shard
// I/O inside Pin, and "hit_pct" is the fraction of shard activations
// served by the background prefetcher instead of a demand map. A
// pool-parallel variant exercises the shard-parallel scan schedule. Raw
// view-iteration throughput is measured separately so the mmap/fault
// overhead is visible without the distance kernel. BM_Crc32 measures
// the checksum every shard write and first map runs over its bytes.
//
// Items processed = rows streamed, so all scan variants compare
// directly; BM_Crc32 reports bytes/s and labels the dispatched kernel.
// "Smoke" names run under ctest at tiny sizes so the binary cannot rot.

#include <benchmark/benchmark.h>

#include "bm_trace_main.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "clustering/cost.h"
#include "data/record_io.h"
#include "data/shard_store.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

constexpr int64_t kNumShards = 8;

Dataset RandomData(int64_t n, int64_t d, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(n, d);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return Dataset(std::move(m));
}

Matrix RandomCenters(int64_t k, int64_t d, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(k, d);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

/// Streams `data` into kNumShards shard files through the ShardWriter
/// sink (the ingest path: block-sized appends, no WriteShards/full-
/// dataset dependency) and opens the result with the given window
/// (0 = unbounded) and prefetch setting.
std::unique_ptr<data::ShardedDataset> OpenSharded(
    const Dataset& data, const std::string& tag, int64_t max_resident_bytes,
    bool enable_prefetch = true) {
  std::string manifest = "/tmp/bm_shard_stream_" + tag + ".kml";
  data::ShardWriter::Options write_options;
  write_options.rows_per_shard =
      (data.n() + kNumShards - 1) / kNumShards;
  write_options.has_weights = data.has_weights();
  write_options.has_labels = data.has_labels();
  auto writer =
      data::ShardWriter::Open(manifest, data.dim(), write_options);
  if (!writer.ok()) return nullptr;
  InMemorySource source = data.AsSource();
  // Simulated ingest: append in blocks much smaller than a shard.
  const int64_t block = 1000;
  for (int64_t row = 0; row < data.n(); row += block) {
    if (!writer->AppendRange(source, row,
                             std::min(row + block, data.n()))
             .ok()) {
      return nullptr;
    }
  }
  if (!writer->Finalize().ok()) return nullptr;

  data::ShardedDatasetOptions options;
  options.max_resident_bytes = max_resident_bytes;
  options.enable_prefetch = enable_prefetch;
  auto sharded = data::ShardedDataset::Open(manifest, options);
  if (!sharded.ok()) return nullptr;
  return std::make_unique<data::ShardedDataset>(
      std::move(sharded).ValueOrDie());
}

/// Window covering roughly three of the kNumShards shards: small enough
/// that every streamed pass evicts and re-maps (the cold-window regime
/// the prefetcher exists for), large enough to double-buffer the next
/// shard while one is pinned.
int64_t ThreeShardWindow(int64_t n, int64_t d) {
  return 3 * (32 + (n / kNumShards + 1) * d * 8);
}

/// Attaches the prefetch-pipeline counters to the benchmark state.
void ReportIoCounters(benchmark::State& state,
                      const data::ShardedDataset& sharded) {
  auto stats = sharded.io_stats();
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["stall_ms"] =
      static_cast<double>(stats.stall_nanos) * 1e-6;
  const double activations = static_cast<double>(stats.prefetch_hits) +
                             static_cast<double>(stats.maps) -
                             static_cast<double>(stats.prefetch_completed);
  state.counters["hit_pct"] =
      activations > 0
          ? 100.0 * static_cast<double>(stats.prefetch_hits) / activations
          : 0.0;
}

void StreamGrid(benchmark::internal::Benchmark* b) {
  b->Args({65536, 64, 32});
  b->Args({65536, 64, 128});
}

// --- Cost scan: in-memory vs sharded (unbounded / windowed) --------------

void BM_CostInMemory(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCost(data, centers));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CostInMemory)->Apply(StreamGrid);

void BM_CostShardedResident(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  auto sharded = OpenSharded(data, "resident", /*max_resident_bytes=*/0);
  if (sharded == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCost(*sharded, centers));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CostShardedResident)->Apply(StreamGrid);

void BM_CostShardedWindowed(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  const bool prefetch = state.range(3) != 0;
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  auto sharded =
      OpenSharded(data, prefetch ? "windowed_pf" : "windowed_nopf",
                  ThreeShardWindow(n, d), prefetch);
  if (sharded == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCost(*sharded, centers));
  }
  state.SetItemsProcessed(state.iterations() * n);
  ReportIoCounters(state, *sharded);
}
BENCHMARK(BM_CostShardedWindowed)
    ->Args({65536, 64, 32, 0})
    ->Args({65536, 64, 32, 1})
    ->Args({65536, 64, 128, 0})
    ->Args({65536, 64, 128, 1});

// Pool-parallel windowed cost scan: the shard-aware ScanSchedule fans
// the chunk grid out so concurrent workers pin distinct shards and each
// worker's next shard is hinted ahead of its cursor.
void BM_CostShardedWindowedPool(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  const bool prefetch = state.range(3) != 0;
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  auto sharded =
      OpenSharded(data, prefetch ? "pool_pf" : "pool_nopf",
                  ThreeShardWindow(n, d), prefetch);
  if (sharded == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCost(*sharded, centers, &pool));
  }
  state.SetItemsProcessed(state.iterations() * n);
  ReportIoCounters(state, *sharded);
}
BENCHMARK(BM_CostShardedWindowedPool)
    ->Args({65536, 64, 32, 0})
    ->Args({65536, 64, 32, 1})
    ->Args({65536, 64, 128, 0})
    ->Args({65536, 64, 128, 1});

// --- Raw streaming throughput (no distance kernel) -----------------------
// The I/O-bound extreme: each row is touched once, so demand page faults
// are a large fraction of the scan and the overlap shows up directly in
// rows/sec, not just in the stall counter.

void BM_StreamRowsWindowed(benchmark::State& state) {
  const int64_t n = state.range(0), d = state.range(2);
  const bool prefetch = state.range(3) != 0;
  Dataset data = RandomData(n, d, 1);
  auto sharded = OpenSharded(data, prefetch ? "raw_pf" : "raw_nopf",
                             ThreeShardWindow(n, d), prefetch);
  if (sharded == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  for (auto _ : state) {
    double sum = 0;
    ForEachBlock(*sharded, 0, sharded->n(), [&](const DatasetView& v) {
      for (int64_t i = 0; i < v.rows(); ++i) sum += v.Point(i)[0];
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  ReportIoCounters(state, *sharded);
}
BENCHMARK(BM_StreamRowsWindowed)
    ->Args({65536, 64, 32, 0})
    ->Args({65536, 64, 32, 1})
    ->Args({65536, 64, 128, 0})
    ->Args({65536, 64, 128, 1})
    ->Args({262144, 64, 128, 0})
    ->Args({262144, 64, 128, 1});

// --- CRC-32 kernel throughput --------------------------------------------
// data::Crc32 runs over shard writes and first-map payload checks,
// oplog frames and replay, seals, and published checkpoints and
// models. Sizes: a small record (64 B), a page (4 KiB), one 512 x 16
// oplog batch (64 KiB), one train_sharded shard (4 MiB) and that
// workload's whole dataset (64 MiB).

std::vector<unsigned char> RandomBytes(int64_t size, uint64_t seed) {
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  rng::Rng rng(seed);
  for (size_t i = 0; i < bytes.size(); i += sizeof(uint64_t)) {
    const uint64_t word = rng.NextUInt64();
    std::memcpy(bytes.data() + i, &word,
                std::min(sizeof(word), bytes.size() - i));
  }
  return bytes;
}

void Crc32Throughput(benchmark::State& state, int64_t size) {
  const std::vector<unsigned char> bytes = RandomBytes(size, 3);
  uint32_t crc = 0;
  for (auto _ : state) {
    // Chained like a streamed record: each call resumes the last.
    crc = data::Crc32(bytes.data(), bytes.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * size);
  state.SetLabel(data::Crc32Kernel());
}

void BM_Crc32(benchmark::State& state) {
  Crc32Throughput(state, state.range(0));
}
BENCHMARK(BM_Crc32)
    ->Arg(64)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(4 << 20)
    ->Arg(64 << 20);

// --- ctest smoke (tiny shapes; see CMakeLists) ---------------------------

void BM_SmokeCrc32(benchmark::State& state) { Crc32Throughput(state, 200); }
BENCHMARK(BM_SmokeCrc32);

void BM_SmokeShardStream(benchmark::State& state) {
  const int64_t n = 512, k = 8, d = 16;
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  // ShardWriter-produced shards, tight window, prefetch on and off, on
  // a 4-thread pool (shard-parallel schedule) — every regime must be
  // bitwise the in-memory cost.
  auto with_prefetch = OpenSharded(data, "smoke_pf",
                                   ThreeShardWindow(n, d), true);
  auto without_prefetch = OpenSharded(data, "smoke_nopf",
                                      ThreeShardWindow(n, d), false);
  if (with_prefetch == nullptr || without_prefetch == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  const double expected = ComputeCost(data, centers);
  ThreadPool pool(4);
  for (auto _ : state) {
    double cost = ComputeCost(*with_prefetch, centers, &pool);
    if (cost != expected ||
        ComputeCost(*without_prefetch, centers, &pool) != expected) {
      state.SkipWithError("sharded cost diverged from in-memory cost");
      return;
    }
    benchmark::DoNotOptimize(cost);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SmokeShardStream);

}  // namespace
}  // namespace kmeansll

int main(int argc, char** argv) {
  return kmeansll::bench::BenchmarkMainWithTrace(argc, argv);
}
