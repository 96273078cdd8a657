// Train stage: KMeans::Fit (k-means|| seeding + Lloyd) over a sharded
// store whose residency window is smaller than the data — the paper's
// regime. Timed: a fresh ShardedDataset::Open plus the Fit, so the
// first-map payload CRC of every shard is inside the time.
//
// The traced run fits once more through a CountingSource (total passes
// and pins), then replays the facade's steps one by one on a fresh open —
// RowSquaredNorms -> KMeansLLInit -> ComputeCost -> RunLloyd, with the
// Fit's options and an equal pool — so each phase gets its own span,
// time and pass count. The replay must reproduce the Fit's seed cost and
// final cost bit for bit.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "common/trace.h"
#include "core/kmeans.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll::perfbench {
namespace {

constexpr int64_t kFullRows = int64_t{1} << 18;
constexpr int64_t kCompanionRows = int64_t{1} << 16;
constexpr int64_t kDim = 32;
constexpr int64_t kK = 100;
// The paper's R. At R = 10 a Gaussian that seeding misses adds ~20% to
// the final cost, so the cost swings by ~15% between seeds; at R = 1 it
// moves by ~1%.
constexpr double kCenterVariance = 1;
constexpr int64_t kShards = 16;
constexpr int64_t kWindowShards = 4;
// Three of the four cores: the fourth is left to the shard prefetch
// thread and the OS. With four pool threads the Fit time swung ~13%
// between runs on a 4-vCPU VM, with three ~4%.
constexpr int kThreads = 3;
constexpr int64_t kLloydIterations = 10;
constexpr int kSetups = 3;
constexpr size_t kMinFits = 3;

KMeansConfig TrainConfig(uint64_t seed) {
  KMeansConfig config;
  config.k = kK;
  config.init = InitMethod::kKMeansParallel;
  config.seed = seed;
  config.kmeansll.oversampling = 2.0 * kK;  // ℓ = 2k
  config.kmeansll.rounds = 5;
  // A fixed iteration count (the fixed point lies far beyond it) keeps
  // the work per Fit independent of the seed.
  config.lloyd.max_iterations = kLloydIterations;
  config.lloyd.relative_tolerance = 0;
  config.num_threads = kThreads;
  return config;
}

std::string ManifestPath(const RunOptions& run) {
  return run.workdir + "/train.manifest";
}

// Generates the GaussMixture rows and writes them as shards; returns the
// wall time of both.
double SetupOnce(const RunOptions& run, int64_t n) {
  const int64_t start = NowNs();
  data::GaussMixtureParams params;
  params.n = n;
  params.k = kK;
  params.dim = kDim;
  params.center_stddev = std::sqrt(kCenterVariance);
  const rng::Rng rng = rng::MakeRootRng(run.seed).Fork(
      rng::StreamPurpose::kDataGeneration, /*index=*/1);
  const data::LabeledData generated =
      Unwrap(data::GenerateGaussMixture(params, rng), "GaussMixture");
  data::ShardWriteOptions options;
  options.num_shards = kShards;
  Unwrap(data::WriteShards(generated.data, ManifestPath(run), options),
         "WriteShards");
  return SecondsSince(start);
}

data::ShardedDataset OpenStore(const RunOptions& run) {
  trace::Span span("data/ShardedDataset::Open");
  const std::string manifest = ManifestPath(run);
  int64_t largest = 0;
  for (int64_t s = 0; s < kShards; ++s) {
    const auto bytes = std::filesystem::file_size(
        manifest + ".shard" + std::to_string(s));
    largest = std::max(largest, static_cast<int64_t>(bytes));
  }
  data::ShardedDatasetOptions options;
  options.max_resident_bytes = kWindowShards * largest;
  options.enable_prefetch = true;
  return Unwrap(data::ShardedDataset::Open(manifest, options),
                "ShardedDataset::Open");
}

struct TimedFit {
  double seconds = 0;
  double peak_rss_mb = 0;
  KMeansReport report;
};

// Fresh Open + Fit; the peak-RSS watermark is reset first.
TimedFit RunFit(const RunOptions& run, const KMeans& kmeans) {
  TimedFit fit;
  ResetPeakRss();
  const int64_t start = NowNs();
  {
    data::ShardedDataset store = OpenStore(run);
    fit.report = Unwrap(kmeans.Fit(store), "KMeans::Fit");
    fit.seconds = SecondsSince(start);
    fit.peak_rss_mb = PeakRssMb();
  }
  return fit;
}

void CheckSameFit(const KMeansReport& a, const KMeansReport& b,
                  const char* what) {
  Check(SameBits(a.seed_cost, b.seed_cost),
        std::string(what) + ": seed cost differs");
  Check(SameBits(a.final_cost, b.final_cost),
        std::string(what) + ": final cost differs");
  Check(a.lloyd_iterations == b.lloyd_iterations,
        std::string(what) + ": Lloyd iteration count differs");
  Check(a.init.rounds == b.init.rounds,
        std::string(what) + ": seeding round count differs");
  Check(a.init.intermediate_centers == b.init.intermediate_centers,
        std::string(what) + ": seeding candidate count differs");
}

struct Phase {
  double seconds = 0;
  CountingSource::Counts counts;
};

template <typename Fn>
Phase RunPhase(const CountingSource& source, Fn&& fn) {
  const CountingSource::Counts before = source.counts();
  const int64_t start = NowNs();
  fn();
  return {SecondsSince(start), source.counts() - before};
}

// The traced Fit and the phase-by-phase replay; adds the per-layer
// metrics of the clustering, distance, data and core layers.
void TracedTrain(const RunOptions& run, const KMeans& kmeans, int64_t n,
                 const KMeansReport& untraced, double untraced_s,
                 Report* report) {
  StartTracing();

  // The whole Fit through the counting source.
  double fit_s = 0;
  KMeansReport fit;
  CountingSource::Counts fit_counts;
  data::ShardedDataset::IoStats io;
  {
    data::ShardedDataset store = OpenStore(run);
    CountingSource counting(&store, /*span_pins=*/true);
    const int64_t start = NowNs();
    {
      trace::Span span("core/KMeans::Fit");
      fit = Unwrap(kmeans.Fit(counting), "traced KMeans::Fit");
    }
    fit_s = SecondsSince(start);
    fit_counts = counting.counts();
    io = store.io_stats();
  }
  CheckSameFit(fit, untraced, "traced Fit vs untraced Fit");

  // The facade's steps one by one, on a fresh open.
  const KMeansConfig& config = kmeans.config();
  ThreadPool pool(config.num_threads);
  data::ShardedDataset store = OpenStore(run);
  CountingSource source(&store, /*span_pins=*/true);
  std::vector<double> norms;
  InitResult init;
  double seed_cost = 0;
  LloydResult lloyd;
  const Phase norms_phase = RunPhase(source, [&] {
    if (!ResolveExpandedKernel(BatchKernel::kAuto, kDim)) return;
    trace::Span span("distance/RowSquaredNorms");
    norms = RowSquaredNorms(source, &pool);
  });
  const double* point_norms = norms.empty() ? nullptr : norms.data();
  const Phase seed_phase = RunPhase(source, [&] {
    trace::Span span("clustering/KMeansLLInit");
    init = Unwrap(KMeansLLInit(source, config.k, rng::MakeRootRng(config.seed),
                               config.kmeansll, &pool),
                  "KMeansLLInit");
  });
  const Phase cost_phase = RunPhase(source, [&] {
    trace::Span span("clustering/ComputeCost");
    seed_cost = ComputeCost(source, init.centers, &pool, point_norms);
  });
  const Phase lloyd_phase = RunPhase(source, [&] {
    trace::Span span("clustering/RunLloyd");
    lloyd = Unwrap(RunLloyd(source, init.centers, config.lloyd, &pool,
                            point_norms),
                   "RunLloyd");
  });
  StopTracing();
  CheckOk(store.status(), "replay store");
  Check(SameBits(seed_cost, fit.seed_cost),
        "replayed seed cost differs from the Fit's");
  Check(SameBits(lloyd.assignment.cost, fit.final_cost),
        "replayed final cost differs from the Fit's");
  Check(lloyd.iterations == fit.lloyd_iterations,
        "replayed Lloyd iteration count differs from the Fit's");

  const double phases_s = norms_phase.seconds + seed_phase.seconds +
                          cost_phase.seconds + lloyd_phase.seconds;
  const double nd = static_cast<double>(n);
  std::printf(
      "train traced: fit %.4f s = phases %.4f s (norms %.4f, seed %.4f, "
      "seed cost %.4f, lloyd %.4f) + gap %.4f s; passes %.2f, pins %" PRId64
      "\n",
      fit_s, phases_s, norms_phase.seconds, seed_phase.seconds,
      cost_phase.seconds, lloyd_phase.seconds, fit_s - phases_s,
      static_cast<double>(fit_counts.rows) / nd, fit_counts.pins);

  report->Layer("core.fit_gap_s", fit_s - phases_s, "s");
  report->Layer("clustering.seed_s", seed_phase.seconds, "s");
  report->Layer("clustering.recluster_s", init.telemetry.recluster_seconds,
                "s");
  report->Layer("clustering.seed_rounds",
                static_cast<double>(init.telemetry.rounds), "count");
  report->Layer("clustering.seed_candidates",
                static_cast<double>(init.telemetry.intermediate_centers),
                "count");
  report->Layer("clustering.seed_passes_reported",
                static_cast<double>(init.telemetry.data_passes), "passes");
  report->Layer("clustering.seed_cost", seed_cost, "phi");
  report->Layer("clustering.seed_cost_s", cost_phase.seconds, "s");
  report->Layer("clustering.norms_s", norms_phase.seconds, "s");
  report->Layer("clustering.lloyd_s", lloyd_phase.seconds, "s");
  report->Layer("clustering.lloyd_iterations",
                static_cast<double>(lloyd.iterations), "count");
  report->Layer("clustering.lloyd_s_per_iter",
                lloyd_phase.seconds / static_cast<double>(lloyd.iterations),
                "s");
  report->Layer("distance.lloyd_pairs_per_s",
                static_cast<double>(lloyd.iterations) * nd *
                    static_cast<double>(config.k) / lloyd_phase.seconds,
                "pairs/s");
  report->Layer("data.passes", static_cast<double>(fit_counts.rows) / nd,
                "passes");
  report->Layer("data.passes.norms",
                static_cast<double>(norms_phase.counts.rows) / nd, "passes");
  report->Layer("data.passes.seed",
                static_cast<double>(seed_phase.counts.rows) / nd, "passes");
  report->Layer("data.passes.seed_cost",
                static_cast<double>(cost_phase.counts.rows) / nd, "passes");
  report->Layer("data.passes.lloyd",
                static_cast<double>(lloyd_phase.counts.rows) / nd, "passes");
  report->Layer("data.pins", static_cast<double>(fit_counts.pins), "count");
  report->Layer("data.pin_s.norms", norms_phase.counts.pin_ns * 1e-9, "s");
  report->Layer("data.pin_s.seed", seed_phase.counts.pin_ns * 1e-9, "s");
  report->Layer("data.pin_s.lloyd", lloyd_phase.counts.pin_ns * 1e-9, "s");
  report->Layer("data.stall_s", io.stall_nanos * 1e-9, "s");
  report->Layer("data.maps", static_cast<double>(io.maps), "count");
  report->Layer("data.evictions", static_cast<double>(io.evictions), "count");
  report->Layer("data.prefetch_hit_frac",
                io.prefetch_completed == 0
                    ? 0.0
                    : static_cast<double>(io.prefetch_hits) /
                          static_cast<double>(io.prefetch_completed),
                "ratio");
  report->Layer("data.prefetch_wasted", static_cast<double>(io.prefetch_wasted),
                "count");
  report->Layer("data.peak_resident_mb",
                static_cast<double>(io.peak_resident_bytes) / (1 << 20), "MB");
  report->Layer("data.read_gb_per_s",
                static_cast<double>(fit_counts.rows) * kDim * sizeof(double) /
                    fit_s * 1e-9,
                "GB/s");
  report->Layer("trace.overhead_frac.train_sharded", fit_s / untraced_s - 1,
                "ratio");
}

}  // namespace

void RunTrainStage(const RunOptions& run, bool full, double budget_s,
                   Report* report) {
  const int64_t n = full ? kFullRows : kCompanionRows;
  std::printf(
      "train (%s): GaussMixture n=%" PRId64 " d=%" PRId64 " k=%" PRId64
      " R=%g in %" PRId64 " shards, window %" PRId64
      " shards, prefetch on; k-means|| l=2k r=5, %" PRId64
      " Lloyd iterations, %d threads\n",
      full ? "full" : "companion", n, kDim, kK, kCenterVariance, kShards,
      kWindowShards, kLloydIterations, kThreads);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(SetupOnce(run, n));
  report->setup_s += Median(setups);

  const KMeans kmeans(TrainConfig(run.seed));
  const TimedFit warm = RunFit(run, kmeans);  // untimed warm-up

  std::vector<TimedFit> fits;
  const int64_t start = NowNs();
  while (fits.size() < kMinFits || SecondsSince(start) < budget_s) {
    fits.push_back(RunFit(run, kmeans));
    CheckSameFit(fits.back().report, warm.report, "repeated Fit");
    // Keep the scalars only, so later fits' peak RSS does not grow with
    // the assignments of the earlier ones.
    fits.back().report.assignment.cluster = {};
  }
  report->Ops(static_cast<int64_t>(fits.size()), 0);

  const KMeansReport& fit = warm.report;
  Check(std::isfinite(fit.final_cost) && fit.final_cost > 0 &&
            fit.final_cost <= fit.seed_cost,
        "final cost must be finite, positive and at most the seed cost");
  Check(fit.centers.rows() == kK && fit.centers.cols() == kDim,
        "fitted centers have the wrong shape");
  Check(static_cast<int64_t>(fit.assignment.cluster.size()) == n,
        "assignment covers every row");

  std::vector<double> seconds, rss;
  for (const TimedFit& f : fits) {
    seconds.push_back(f.seconds);
    rss.push_back(f.peak_rss_mb);
  }
  const double train_s = Median(seconds);
  std::printf("train fits (s, peak RSS MB):");
  for (size_t i = 0; i < fits.size(); ++i) {
    std::printf(" %.4f/%.1f", seconds[i], rss[i]);
  }
  std::printf("\n");
  std::printf("train counts: lloyd_iterations=%" PRId64
              " seed_rounds=%" PRId64 " seed_candidates=%" PRId64
              " fits=%zu; train_s median %.4f\n",
              fit.lloyd_iterations, fit.init.rounds,
              fit.init.intermediate_centers, fits.size(), train_s);
  report->E2E("train_s", train_s, "s");
  report->E2E("train_cost", fit.final_cost, "phi");
  report->E2E("train_peak_rss_mb", Median(rss), "MB");
  if (run.trace) TracedTrain(run, kmeans, n, fit, train_s, report);
}

}  // namespace kmeansll::perfbench
