// Out-of-core clustering: write a dataset as binary shards, reopen it as
// a memory-mapped ShardedDataset whose resident window is smaller than
// the data, and run the full k-means|| + Lloyd pipeline over it — then
// verify the result is bitwise identical to the in-memory run.
//
// This is the paper's actual regime: the data is "too large to fit in
// main memory", k-means|| does its O(log n) passes over partitioned
// disk-resident rows, and only the pinned window plus the model state is
// ever resident.
//
//   ./outofcore_clustering [--k=20] [--n=20000] [--shards=8] [--seed=42]

#include <cstdio>
#include <iostream>
#include <string>

#include "core/kmeans.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "eval/args.h"
#include "rng/rng.h"

int main(int argc, char** argv) {
  using namespace kmeansll;
  eval::Args args(argc, argv);
  const int64_t k = args.GetInt("k", 20);
  const int64_t n = args.GetInt("n", 20000);
  const int64_t shards = args.GetInt("shards", 8);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  // 1. Materialize a dataset once so we have something to shard. In a
  //    real pipeline the shards would be written by the ingest job and
  //    the full dataset would never exist in memory.
  data::GaussMixtureParams params;
  params.n = n;
  params.k = k;
  params.dim = 64;
  params.center_stddev = 5.0;
  auto generated = data::GenerateGaussMixture(params, rng::Rng(seed));
  generated.status().Abort("data generation");
  const Dataset& data = generated->data;

  // 2. Stream it into binary shards through the ShardWriter sink — the
  //    ingest path: rows are appended block by block and cut into
  //    standalone KMLLDATA shard files as they fill, so a real producer
  //    never needs the full dataset in memory. (The one-call
  //    data::WriteShards covers the already-materialized case.)
  const std::string manifest = "/tmp/outofcore_demo.kml";
  const int64_t rows_per_shard = (n + shards - 1) / shards;
  data::ShardWriter::Options sink_options;
  sink_options.rows_per_shard = rows_per_shard;
  sink_options.has_weights = data.has_weights();
  sink_options.has_labels = data.has_labels();
  auto writer =
      data::ShardWriter::Open(manifest, data.dim(), sink_options);
  writer.status().Abort("shard writer open");
  {
    InMemorySource ingest = data.AsSource();
    const int64_t block = 1024;  // simulated ingest granularity
    for (int64_t row = 0; row < n; row += block) {
      writer->AppendRange(ingest, row, std::min(row + block, n))
          .Abort("shard append");
    }
  }
  auto written = writer->Finalize();
  written.status().Abort("shard finalize");
  std::cout << "streamed " << written->shards.size() << " shards for "
            << n << " points in R^" << params.dim << "\n";

  // 3. Reopen out-of-core: a window of ~3 shards means roughly a third
  //    of the data is memory-mapped at any moment; each pin maps its
  //    shard on demand and the LRU evicts the rest as the scans stream
  //    by.
  const int64_t shard_bytes =
      32 + rows_per_shard * params.dim * 8 + rows_per_shard * 4;
  data::ShardedDatasetOptions open_options;
  open_options.max_resident_bytes = 3 * shard_bytes;
  auto sharded = data::ShardedDataset::Open(manifest, open_options);
  sharded.status().Abort("shard open");

  // 4. The full pipeline over the sharded source. Every pass — the
  //    k-means|| rounds, the Lloyd iterations, the final assignment —
  //    streams pinned shard views through the same engine the in-memory
  //    path uses.
  KMeansConfig config;
  config.k = k;
  config.init = InitMethod::kKMeansParallel;
  config.kmeansll.oversampling = 2.0 * static_cast<double>(k);
  config.kmeansll.rounds = 5;
  config.lloyd.max_iterations = 50;
  config.seed = seed;
  config.num_threads = 4;
  KMeans model(config);

  auto report = model.Fit(*sharded);
  report.status().Abort("out-of-core fit");
  std::cout << "out-of-core fit: seed cost " << report->seed_cost
            << " -> final cost " << report->final_cost << " in "
            << report->lloyd_iterations << " Lloyd iterations\n";

  auto stats = sharded->io_stats();
  std::cout << "io: " << stats.maps << " shard maps, " << stats.evictions
            << " evictions, peak resident " << stats.peak_resident_bytes
            << " bytes (window " << open_options.max_resident_bytes
            << "); scan threads stalled on shard I/O for "
            << stats.stall_nanos / 1000000.0 << " ms total\n";

  // 5. Determinism check: the in-memory run must match bitwise.
  auto in_memory = model.Fit(data);
  in_memory.status().Abort("in-memory fit");
  const bool identical =
      report->centers == in_memory->centers &&
      report->final_cost == in_memory->final_cost &&
      report->assignment.cluster == in_memory->assignment.cluster;
  std::cout << "bitwise identical to in-memory run: "
            << (identical ? "yes" : "NO — this is a bug") << "\n";
  return identical ? 0 : 1;
}
