// Ingest stage: one producer appends 512-row batches (d=16) into a
// LiveDataset (16384-row shards, default group commit). After every 16
// batches it calls Seal and then RefineLoop::RunOnce (k=64, checkpointing
// on) on the "live" tenant, while two open-loop clients query that tenant
// at a fixed rate. Rows come from 8 blobs whose means move once, halfway
// through the stream, so one cycle re-seeds with the paper's pipeline over
// the live source and the others refine by minibatch.
//
// Every timed stream starts from fresh LiveDataset files and a fresh
// registry. Checks: each stored row equals its generated row bit for bit
// (a row is a pure function of row, column and seed), n() equals the rows
// appended, and the tenant's version equals 1 + refine cycles.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/live_dataset.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/server_registry.h"

namespace kmeansll::perfbench {
namespace {

using data::IngestStats;
using data::LiveDataset;
using serving::RefineLoop;
using serving::RefineStats;
using serving::ServerRegistry;

constexpr int64_t kFullBatches = 512;
constexpr int64_t kCompanionBatches = 128;
constexpr int64_t kDim = 16;
constexpr int64_t kBatchRows = 512;
constexpr int64_t kRowsPerShard = 16384;
constexpr int64_t kSealEvery = 16;  // batches per Seal + RunOnce
constexpr int64_t kK = 64;
constexpr int64_t kBlobs = 8;
constexpr double kBlobSpread = 10;
constexpr int64_t kReseedLloydIterations = 10;
constexpr int kQueryClients = 2;
constexpr double kQueryRate = 2000;  // queries/s across both clients
constexpr int64_t kQueryPool = 1024;
constexpr size_t kQueryWindow = 500;  // queries per latency window
// Open-loop spin before each query. Queries take ~3 us, so a sleeping
// worker's wake-up would dominate the latency; 200 us of spin per query
// costs 0.4 of a core at 2000 queries/s.
constexpr int64_t kSpinNs = 200'000;
constexpr int64_t kWarmupBatches = 4 * kSealEvery;
constexpr int kMinSetups = 3;
constexpr const char* kTenant = "live";

// Row content as a pure function of (seed, row, column): blob
// membership and unit Gaussian noise come from hashes of the indices, and
// the blob means switch to a second set at `shift_row`.
class RowSource {
 public:
  RowSource(uint64_t seed, int64_t shift_row)
      : seed_(rng::HashCombine(seed, 0x1D6E57)), shift_row_(shift_row) {
    rng::Rng rng =
        rng::MakeRootRng(seed).Fork(rng::StreamPurpose::kDataGeneration, 3);
    means_ = Matrix(2 * kBlobs, kDim);
    for (int64_t i = 0; i < means_.size(); ++i) {
      means_.data()[i] = rng.NextGaussian(0, kBlobSpread);
    }
  }

  double Coord(int64_t row, int64_t col) const {
    const uint64_t r = static_cast<uint64_t>(row);
    const int64_t blob =
        static_cast<int64_t>(rng::HashCombine(seed_, r) % kBlobs) +
        (row >= shift_row_ ? kBlobs : 0);
    const uint64_t cell = (r * kDim + static_cast<uint64_t>(col)) * 2;
    const double u1 = rng::UniformAtIndex(seed_, cell);
    const double u2 = rng::UniformAtIndex(seed_, cell + 1);
    const double noise = std::sqrt(-2.0 * std::log(1.0 - u1)) *
                         std::cos(2.0 * M_PI * u2);
    return means_.Row(blob)[col] + noise;
  }

  // Rows [first, first + rows) as a row-major block.
  std::vector<double> Rows(int64_t first, int64_t rows) const {
    std::vector<double> out(static_cast<size_t>(rows * kDim));
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        out[static_cast<size_t>(i * kDim + j)] = Coord(first + i, j);
      }
    }
    return out;
  }

  // k initial centers around the first set of blob means.
  Matrix InitialCenters() const {
    Matrix c(kK, kDim);
    for (int64_t i = 0; i < kK; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        c.Row(i)[j] = means_.Row(i % kBlobs)[j] +
                      (rng::UniformAtIndex(seed_ ^ 0xC3, static_cast<uint64_t>(
                                                             i * kDim + j)) -
                       0.5);
      }
    }
    return c;
  }

 private:
  uint64_t seed_;
  int64_t shift_row_;
  Matrix means_;
};

serving::RefineLoopOptions LoopOptions(uint64_t seed,
                                       const std::string& checkpoint) {
  serving::RefineLoopOptions options;
  options.seed = rng::HashCombine(seed, 0xF2E5);
  options.min_new_rows = 1;
  options.minibatch.batch_size = 256;
  options.minibatch.iterations = 20;
  options.reseed.k = kK;
  options.reseed.kmeansll.oversampling = 2.0 * kK;
  options.reseed.kmeansll.rounds = 5;
  // A fixed Lloyd budget keeps the re-seed's work independent of the
  // seed (the fixed point lies far beyond it).
  options.reseed.lloyd.max_iterations = kReseedLloydIterations;
  options.checkpoint_path = checkpoint;
  return options;
}

int64_t OplogSyncs() {
  return MetricsRegistry::Global()
      .GetCounter("kmll_oplog_syncs_total", "")
      ->value();
}

// One stream's objects; members are declared so that the loop goes
// first, then the counting source, the registry and the dataset.
struct Live {
  std::string dir;
  std::unique_ptr<LiveDataset> dataset;
  std::unique_ptr<ServerRegistry> registry;
  std::unique_ptr<CountingSource> counting;
  std::unique_ptr<RefineLoop> loop;
  serving::ModelServer* server = nullptr;
};

// Fresh files, LiveDataset::Open and registration; returns its wall time.
double SetUp(const RunOptions& run, const RowSource& rows, int index,
             bool counting, Live* live) {
  live->dir = run.workdir + "/ingest" + std::to_string(index);
  std::filesystem::remove_all(live->dir);
  std::filesystem::create_directories(live->dir);
  const int64_t start = NowNs();
  data::LiveDatasetOptions options;
  options.rows_per_shard = kRowsPerShard;
  live->dataset = std::make_unique<LiveDataset>(
      Unwrap(LiveDataset::Open(live->dir + "/live", kDim,
                               /*has_weights=*/false, options),
             "LiveDataset::Open"));
  live->registry = std::make_unique<ServerRegistry>();
  serving::TenantOptions tenant;
  tenant.batcher.adaptive_batch = true;
  CheckOk(live->registry->Register(
              kTenant,
              serving::CenterIndex::Build(rows.InitialCenters(),
                                          /*version=*/1),
              tenant),
          "Register live tenant");
  live->server = Unwrap(live->registry->server(kTenant), "server");
  const DatasetSource* source = live->dataset.get();
  if (counting) {
    // Refine cycles pin tens of thousands of small tail blocks: count
    // them, but keep them out of the span rings.
    live->counting = std::make_unique<CountingSource>(live->dataset.get(),
                                                      /*span_pins=*/false);
    source = live->counting.get();
  }
  live->loop = std::make_unique<RefineLoop>(
      live->server, source,
      LoopOptions(run.seed, live->dir + "/freshness.ckpt"));
  return SecondsSince(start);
}

void TearDown(Live* live) {
  live->loop.reset();
  live->counting.reset();
  live->registry.reset();
  live->dataset.reset();
  std::filesystem::remove_all(live->dir);
}

struct Stream {
  double rows_per_s = 0;
  std::vector<double> freshness_ms;
  std::vector<double> append_us;
  std::vector<double> seal_ms;
  std::vector<double> minibatch_ms;
  std::vector<double> reseed_ms;
  std::vector<double> cycle_passes;
  OpenLoopResult queries;
  int64_t syncs = 0;
  IngestStats ingest;
  RefineStats refine;
  int64_t publishes = 0;
  double batch_mean = 0;
};

Stream RunStream(const RowSource& rows, const std::vector<double>& data,
                 const Matrix& query_pool, int64_t batches, Live& live) {
  Stream out;
  LiveDataset& dataset = *live.dataset;
  RefineLoop& loop = *live.loop;
  ServerRegistry& registry = *live.registry;

  std::atomic<bool> stop{false};
  const int64_t max_queries = static_cast<int64_t>(kQueryRate * 120);
  std::thread clients([&] {
    out.queries = RunOpenLoop(
        kQueryClients, kQueryRate, kSpinNs, max_queries, &stop,
        [&](int64_t i) {
          const uint64_t row = rng::HashCombine(0x9E, static_cast<uint64_t>(i));
          trace::Span span("serving/Assign");
          return registry.Assign(kTenant, query_pool.Row(static_cast<int64_t>(
                                              row % kQueryPool)))
              .ok();
        });
  });

  const int64_t syncs_before = OplogSyncs();
  std::vector<int64_t> ack_ns(static_cast<size_t>(batches));
  const int64_t first_append_ns = NowNs();
  int64_t last_publish_ns = first_append_ns;
  int64_t uncovered = 0;  // first batch no publish covers yet
  for (int64_t b = 0; b < batches; ++b) {
    const double* batch = data.data() + b * kBatchRows * kDim;
    const int64_t append_start = NowNs();
    Status status;
    {
      trace::Span span("data/LiveDataset::Append");
      status = dataset.Append(batch, kBatchRows);
      if (status.IsUnavailable()) {
        // Backpressure (counted in IngestStats): seal, then re-send.
        CheckOk(dataset.Seal(), "Seal under backpressure");
        status = dataset.Append(batch, kBatchRows);
      }
    }
    CheckOk(status, "Append");
    const int64_t acked = NowNs();
    out.append_us.push_back(static_cast<double>(acked - append_start) * 1e-3);
    ack_ns[static_cast<size_t>(b)] = acked;
    if ((b + 1) % kSealEvery != 0) continue;

    const int64_t seals_before = dataset.ingest_stats().seals;
    const int64_t seal_start = NowNs();
    {
      trace::Span span("data/LiveDataset::Seal");
      CheckOk(dataset.Seal(), "Seal");
    }
    if (dataset.ingest_stats().seals > seals_before) {
      out.seal_ms.push_back(SecondsSince(seal_start) * 1e3);
    }

    const RefineStats before = loop.stats();
    const CountingSource::Counts counts_before =
        live.counting ? live.counting->counts() : CountingSource::Counts{};
    const int64_t refine_start = NowNs();
    {
      trace::Span span("serving/RefineLoop::RunOnce");
      CheckOk(loop.RunOnce(), "RefineLoop::RunOnce");
    }
    last_publish_ns = NowNs();
    const double refine_ms =
        static_cast<double>(last_publish_ns - refine_start) * 1e-6;
    const RefineStats after = loop.stats();
    Check(after.cycles == before.cycles + 1, "every RunOnce refines");
    (after.reseeds > before.reseeds ? out.reseed_ms : out.minibatch_ms)
        .push_back(refine_ms);
    if (live.counting) {
      const CountingSource::Counts delta =
          live.counting->counts() - counts_before;
      out.cycle_passes.push_back(static_cast<double>(delta.rows) /
                                 static_cast<double>(dataset.n()));
    }
    for (; uncovered <= b; ++uncovered) {
      out.freshness_ms.push_back(
          static_cast<double>(last_publish_ns -
                              ack_ns[static_cast<size_t>(uncovered)]) *
          1e-6);
    }
  }
  stop.store(true, std::memory_order_release);
  clients.join();

  const int64_t total_rows = batches * kBatchRows;
  out.rows_per_s = static_cast<double>(total_rows) /
                   (static_cast<double>(last_publish_ns - first_append_ns) *
                    1e-9);
  out.syncs = OplogSyncs() - syncs_before;
  out.ingest = dataset.ingest_stats();
  out.refine = loop.stats();
  out.publishes = live.server->stats().publishes;
  const auto tenant = Unwrap(registry.stats(kTenant), "tenant stats");
  out.batch_mean = tenant.batcher.batches == 0
                       ? 0.0
                       : static_cast<double>(tenant.batcher.batched_points) /
                             static_cast<double>(tenant.batcher.batches);

  // Output checks.
  CheckOk(dataset.status(), "live dataset status");
  Check(dataset.n() == total_rows, "n() equals the rows appended");
  Check(out.ingest.appended_rows == total_rows, "appended row count");
  Check(out.ingest.seals == total_rows / kRowsPerShard,
        "seal count: one per full shard");
  Check(out.refine.cycles == batches / kSealEvery && out.refine.failures == 0,
        "one refine cycle per seal point");
  Check(live.server->published_version() ==
            1 + static_cast<uint64_t>(out.refine.cycles),
        "tenant version equals 1 + refine cycles");
  int64_t seen = 0, mismatches = 0;
  ForEachBlock(dataset, 0, dataset.n(), [&](const DatasetView& view) {
    for (int64_t i = 0; i < view.rows(); ++i) {
      const double* p = view.Point(i);
      for (int64_t j = 0; j < kDim; ++j) {
        if (p[j] != rows.Coord(view.first_row() + i, j)) ++mismatches;
      }
      ++seen;
    }
  });
  Check(seen == total_rows && mismatches == 0,
        "every stored row equals its generated row bit for bit");
  return out;
}

}  // namespace

void RunIngestStage(const RunOptions& run, bool full, double budget_s,
                    Report* report) {
  const int64_t batches = full ? kFullBatches : kCompanionBatches;
  const int64_t total_rows = batches * kBatchRows;
  std::printf(
      "ingest (%s): %" PRId64 " batches x %" PRId64 " rows, d=%" PRId64
      ", %" PRId64 "-row shards, Seal + RunOnce every %" PRId64
      " batches (k=%" PRId64 ", checkpointing on), %d open-loop clients "
      "at %.0f queries/s; blob means move at row %" PRId64 "\n",
      full ? "full" : "companion", batches, kBatchRows, kDim,
      kRowsPerShard, kSealEvery, kK, kQueryClients, kQueryRate,
      total_rows / 2);
  const RowSource rows(run.seed, total_rows / 2);
  const std::vector<double> data = rows.Rows(0, total_rows);
  // Queries are stored rows spread over both halves of the stream.
  Matrix query_pool(kQueryPool, kDim);
  for (int64_t q = 0; q < kQueryPool; ++q) {
    for (int64_t j = 0; j < kDim; ++j) {
      query_pool.Row(q)[j] = rows.Coord(q * (total_rows / kQueryPool), j);
    }
  }

  std::vector<double> setups;
  int setup_index = 0;
  auto stream = [&](int64_t n_batches, bool counting) {
    Live live;
    setups.push_back(
        SetUp(run, rows, setup_index++, counting, &live));
    Stream s = RunStream(rows, data, query_pool, n_batches, live);
    TearDown(&live);
    return s;
  };

  stream(kWarmupBatches, false);  // untimed warm-up

  std::vector<Stream> streams;
  const int64_t start = NowNs();
  while (streams.empty() || SecondsSince(start) < budget_s) {
    streams.push_back(stream(batches, false));
    const Stream& s = streams.back();
    report->Ops(batches + static_cast<int64_t>(s.queries.op.size()),
                s.queries.failed + s.ingest.backpressure_rejections);
    Check(s.refine.reseeds == streams.front().refine.reseeds &&
              s.refine.minibatch_refines ==
                  streams.front().refine.minibatch_refines,
          "refine cycles repeat exactly across streams");
  }
  while (static_cast<int>(setups.size()) < kMinSetups) {
    Live live;
    setups.push_back(SetUp(run, rows, setup_index++, false, &live));
    TearDown(&live);
  }
  report->setup_s += Median(setups);

  // Per-stream values, then the median across streams; query latency
  // in windows of kQueryWindow queries.
  std::vector<double> rates, fresh50, fresh99, query_us;
  for (const Stream& s : streams) {
    rates.push_back(s.rows_per_s);
    fresh50.push_back(Quantile(s.freshness_ms, 0.5));
    fresh99.push_back(Quantile(s.freshness_ms, 0.99));
    query_us.insert(query_us.end(), s.queries.latency_us.begin(),
                    s.queries.latency_us.end());
  }
  const Stream& first = streams.front();
  std::printf("ingest counts: streams=%zu cycles=%" PRId64
              " minibatch=%" PRId64 " reseeds=%" PRId64 " seals=%" PRId64
              " publishes=%" PRId64 "; %zu queries\n",
              streams.size(), first.refine.cycles,
              first.refine.minibatch_refines, first.refine.reseeds,
              first.ingest.seals, first.publishes, query_us.size());
  std::printf("ingest per stream: rows/s");
  for (const double r : rates) std::printf(" %.0f", r);
  std::printf("; freshness p99 ms");
  for (const double f : fresh99) std::printf(" %.1f", f);
  std::printf("\n");
  report->E2E("ingest_rows_per_s", Median(rates), "rows/s");
  report->E2E("freshness_p50_ms", Median(fresh50), "ms");
  std::printf("ingest queries: p50 %.3f us, p99 %.3f us (windows of %zu)\n",
              WindowedQuantile(query_us, kQueryWindow, 0.5),
              WindowedQuantile(query_us, kQueryWindow, 0.99), kQueryWindow);
  if (!run.trace) return;

  report->Layer("freshness_p99_ms", Median(fresh99), "ms");

  StartTracing();
  const Stream traced = stream(batches, /*counting=*/true);
  StopTracing();
  report->Ops(batches + static_cast<int64_t>(traced.queries.op.size()),
              traced.queries.failed + traced.ingest.backpressure_rejections);
  Check(traced.refine.reseeds == first.refine.reseeds,
        "the traced stream refines like the untraced ones");
  report->Layer("data.append_p50_us", Quantile(traced.append_us, 0.5), "us");
  report->Layer("data.append_p99_us", Quantile(traced.append_us, 0.99), "us");
  report->Layer("data.oplog_syncs", static_cast<double>(traced.syncs),
                "count");
  report->Layer("data.seals", static_cast<double>(traced.ingest.seals),
                "count");
  report->Layer("data.seal_ms", Median(traced.seal_ms), "ms");
  report->Layer("data.backpressure_rejections",
                static_cast<double>(traced.ingest.backpressure_rejections),
                "count");
  report->Layer("serving.refine_cycles",
                static_cast<double>(traced.refine.cycles), "count");
  report->Layer("serving.refine_reseeds",
                static_cast<double>(traced.refine.reseeds), "count");
  report->Layer("serving.refine_minibatch_ms", Median(traced.minibatch_ms),
                "ms");
  report->Layer("serving.refine_reseed_ms",
                traced.reseed_ms.empty() ? 0.0 : Median(traced.reseed_ms),
                "ms");
  double passes = 0;
  for (double p : traced.cycle_passes) passes += p;
  report->Layer("serving.refine_passes",
                passes / static_cast<double>(traced.cycle_passes.size()),
                "passes");
  report->Layer("serving.publishes", static_cast<double>(traced.publishes),
                "count");
  report->Layer("serving.batch_mean.live", traced.batch_mean, "points");
  report->Layer("ingest_query_p50_us",
                WindowedQuantile(traced.queries.latency_us, kQueryWindow, 0.5),
                "us");
  report->Layer("ingest_query_p99_us",
                WindowedQuantile(traced.queries.latency_us, kQueryWindow, 0.99),
                "us");
  report->Layer("bench.client_late_us.ingest",
                Quantile(traced.queries.late_us, 0.99), "us");
  report->Layer("trace.overhead_frac.ingest_refine",
                traced.rows_per_s / Median(rates) - 1, "ratio");
}

}  // namespace kmeansll::perfbench
