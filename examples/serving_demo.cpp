// End-to-end serving demo: train out-of-core, persist the model, serve
// it online, and hot-swap a refined model under live traffic.
//
//   1. Stream a synthetic dataset into binary shards (ShardWriter) and
//      train k-means|| + Lloyd over the disk-resident store with a
//      resident window smaller than the data.
//   2. Fit emits a KMLLMODL artifact (config.model_output_path); reload
//      it with data::LoadModel — CRC + consistency validated — and build
//      a serving CenterIndex from it.
//   3. Serve: reader threads push single-point queries through a
//      RequestBatcher against a ModelServer while the main thread runs a
//      RefineLoop (minibatch refinement passes, each published as a new
//      snapshot version). Readers never block on the swaps.
//   4. Verify the served answers: AssignBatch over the final snapshot
//      must be bitwise ComputeAssignment over its centers.
//
//   ./serving_demo [--k=20] [--n=20000] [--readers=4] [--refines=3]

#include <atomic>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/cost.h"
#include "core/kmeans.h"
#include "data/model_io.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "eval/args.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/model_server.h"

int main(int argc, char** argv) {
  using namespace kmeansll;
  eval::Args args(argc, argv);
  const int64_t k = args.GetInt("k", 20);
  const int64_t n = args.GetInt("n", 20000);
  const int64_t readers = args.GetInt("readers", 4);
  const int64_t refines = args.GetInt("refines", 3);

  // --- 1. Data + out-of-core training -----------------------------------
  data::GaussMixtureParams params;
  params.n = n;
  params.k = k;
  params.dim = 64;
  params.center_stddev = 5.0;
  auto generated = data::GenerateGaussMixture(params, rng::Rng(7));
  generated.status().Abort("data generation");
  const Dataset& data = generated->data;

  const std::string manifest = "/tmp/serving_demo.kml";
  const int64_t shards = 8;
  data::ShardWriter::Options sink_options;
  sink_options.rows_per_shard = (n + shards - 1) / shards;
  sink_options.has_labels = data.has_labels();
  auto writer = data::ShardWriter::Open(manifest, data.dim(), sink_options);
  writer.status().Abort("shard writer open");
  {
    InMemorySource ingest = data.AsSource();
    writer->AppendRange(ingest, 0, n).Abort("shard append");
  }
  writer->Finalize().status().Abort("shard finalize");

  data::ShardedDatasetOptions open_options;
  open_options.max_resident_bytes =
      3 * (32 + sink_options.rows_per_shard * (params.dim * 8 + 4));
  auto sharded = data::ShardedDataset::Open(manifest, open_options);
  sharded.status().Abort("shard open");

  const std::string model_path = "/tmp/serving_demo_model.kmm";
  KMeansConfig config;
  config.k = k;
  config.init = InitMethod::kKMeansParallel;
  config.kmeansll.oversampling = 2.0 * static_cast<double>(k);
  config.kmeansll.rounds = 5;
  config.lloyd.max_iterations = 30;
  config.num_threads = 4;
  config.model_output_path = model_path;  // Fit persists the artifact
  auto report = KMeans(config).Fit(*sharded);
  report.status().Abort("out-of-core fit");
  std::cout << "trained: final cost " << report->final_cost << " after "
            << report->lloyd_iterations << " Lloyd iterations; model -> "
            << model_path << "\n";

  // --- 2. Reload the artifact and stand up the server --------------------
  auto artifact = data::LoadModel(model_path);
  artifact.status().Abort("model load");
  std::cout << "loaded model: k=" << artifact->centers.rows() << " d="
            << artifact->centers.cols() << " init="
            << artifact->metadata.init_method << " (CRC validated)\n";
  auto index = serving::CenterIndex::FromModel(*artifact, /*version=*/0);
  index.status().Abort("index build");
  serving::ModelServer server(*index);

  // Backpressure: bound the admitted backlog so a traffic spike sheds
  // (kUnavailable + retry hint) instead of letting latency grow without
  // bound. The reader loop below just drops shed queries; a real
  // frontend would surface the retry hint to its caller.
  serving::RequestBatcherOptions batch_options;
  batch_options.max_pending = 256;
  serving::RequestBatcher batcher(&server, batch_options);

  // --- 3. Serve under refinement -----------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> serving_threads;
  for (int64_t r = 0; r < readers; ++r) {
    serving_threads.emplace_back([&, r] {
      int64_t i = r * 131;
      while (!stop.load(std::memory_order_relaxed)) {
        const double* query = data.points().Row(i % n);
        (void)batcher.Assign(query);
        answered.fetch_add(1, std::memory_order_relaxed);
        i += readers;
      }
    });
  }

  MiniBatchOptions refine_options;
  refine_options.batch_size = 1024;
  refine_options.iterations = 30;
  for (int64_t pass = 0; pass < refines; ++pass) {
    server.RefineWithMiniBatch(*sharded, refine_options, 1000 + pass)
        .Abort("refine");
    std::cout << "published refined snapshot v"
              << server.published_version() << " (hot swap; readers kept "
              << "serving, " << answered.load() << " queries answered so "
              << "far)\n";
  }
  stop.store(true);
  for (auto& t : serving_threads) t.join();

  serving::RequestBatcher::Stats stats = batcher.stats();
  std::cout << "served " << stats.served << " of " << stats.queries
            << " queries (" << stats.shed << " shed under backpressure)\n";

  // --- 4. Bitwise check against the training-side evaluator --------------
  auto final_snapshot = server.Acquire();
  Assignment served = final_snapshot->AssignBatch(data);
  Assignment reference = ComputeAssignment(data, final_snapshot->centers());
  const bool identical = served.cluster == reference.cluster &&
                         served.cost == reference.cost;
  std::cout << "final snapshot v" << final_snapshot->version()
            << ": AssignBatch bitwise identical to ComputeAssignment: "
            << (identical ? "yes" : "NO — this is a bug") << "\n";
  std::remove(model_path.c_str());
  return identical ? 0 : 1;
}
