// Benchmark for the out-of-core storage layer (data/shard_store.h):
// rows/sec streamed through the cost reduction over a ShardedDataset —
// with an unbounded window (every shard stays mapped after first touch)
// and with a window of three shards (the eviction/re-map regime, where
// every pass must re-map almost every shard) — against the in-memory
// Dataset path. The windowed variants report "stall_ms", the time scan
// threads spent blocked on shard I/O inside Pin (demand maps and waits
// on another thread's map), and "evictions". A pool-parallel variant
// runs the windowed scan on four workers. Raw view-iteration
// throughput is measured separately so the mmap/fault overhead is
// visible without the distance kernel. BM_Crc32 measures the checksum
// every shard write and first map runs over its bytes.
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

/// Streams `data` into kNumShards shard files at `manifest` through the
/// ShardWriter sink (the ingest path: block-sized appends, no
/// WriteShards/full-dataset dependency) and opens the result with the
/// given window (0 = unbounded).
std::unique_ptr<data::ShardedDataset> WriteAndOpen(
    const Dataset& data, const std::string& manifest,
    int64_t max_resident_bytes) {
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
  auto sharded = data::ShardedDataset::Open(manifest, options);
  if (!sharded.ok()) return nullptr;
  return std::make_unique<data::ShardedDataset>(
      std::move(sharded).ValueOrDie());
}

/// Closes a sharded dataset, then removes its manifest and the shard
/// files ShardWriter named after it ("<manifest>.shard<i>").
struct RemoveShardFiles {
  std::string manifest;
  void operator()(data::ShardedDataset* sharded) const {
    delete sharded;
    std::remove(manifest.c_str());
    for (int64_t s = 0; s < kNumShards; ++s) {
      std::remove((manifest + ".shard" + std::to_string(s)).c_str());
    }
  }
};
using ScratchShards =
    std::unique_ptr<data::ShardedDataset, RemoveShardFiles>;

/// WriteAndOpen at /tmp/bm_shard_stream_<tag>.kml. The files are removed
/// when the result goes out of scope, or at once when a step failed
/// (the result is then null).
ScratchShards OpenSharded(const Dataset& data, const std::string& tag,
                          int64_t max_resident_bytes) {
  RemoveShardFiles remove{"/tmp/bm_shard_stream_" + tag + ".kml"};
  std::unique_ptr<data::ShardedDataset> sharded =
      WriteAndOpen(data, remove.manifest, max_resident_bytes);
  if (sharded == nullptr) remove(nullptr);
  return ScratchShards(sharded.release(), std::move(remove));
}

/// Window covering roughly three of the kNumShards shards: small enough
/// that every streamed pass evicts and re-maps (the cold-window regime).
int64_t ThreeShardWindow(int64_t n, int64_t d) {
  return 3 * (32 + (n / kNumShards + 1) * d * 8);
}

/// Attaches the residency-window counters to the benchmark state.
void ReportIoCounters(benchmark::State& state,
                      const data::ShardedDataset& sharded) {
  auto stats = sharded.io_stats();
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["stall_ms"] =
      static_cast<double>(stats.stall_nanos) * 1e-6;
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
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  auto sharded = OpenSharded(data, "windowed", ThreeShardWindow(n, d));
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
BENCHMARK(BM_CostShardedWindowed)->Apply(StreamGrid);

// Pool-parallel windowed cost scan: four workers take the chunk grid in
// index order, so they pin the same shard, or neighbouring ones, at a time.
void BM_CostShardedWindowedPool(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1), d = state.range(2);
  Dataset data = RandomData(n, d, 1);
  Matrix centers = RandomCenters(k, d, 2);
  auto sharded = OpenSharded(data, "pool", ThreeShardWindow(n, d));
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
// Real time: the calling thread idles in the pool's Wait, so rows/s
// over its CPU time would read ~100x the real rate.
BENCHMARK(BM_CostShardedWindowedPool)->Apply(StreamGrid)->UseRealTime();

// --- Raw streaming throughput (no distance kernel) -----------------------
// The I/O-bound extreme: each row is touched once, so the map syscall
// and the demand page faults are a large fraction of the scan.

void BM_StreamRowsWindowed(benchmark::State& state) {
  const int64_t n = state.range(0), d = state.range(2);
  Dataset data = RandomData(n, d, 1);
  auto sharded = OpenSharded(data, "raw", ThreeShardWindow(n, d));
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
    ->Apply(StreamGrid)
    ->Args({262144, 64, 128});

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
  // ShardWriter-produced shards through a tight window on a 4-thread
  // pool must give bitwise the in-memory cost.
  auto sharded = OpenSharded(data, "smoke", ThreeShardWindow(n, d));
  if (sharded == nullptr) {
    state.SkipWithError("shard setup failed");
    return;
  }
  const double expected = ComputeCost(data, centers);
  ThreadPool pool(4);
  for (auto _ : state) {
    double cost = ComputeCost(*sharded, centers, &pool);
    if (cost != expected) {
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
