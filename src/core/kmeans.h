// KMeans: the library's public estimator facade.
//
// One object configures the full pipeline the paper evaluates —
// initialization method (Random / k-means++ / k-means|| / Partition),
// execution mode (sequential, thread-pool, MapReduce engine), and Lloyd
// refinement — and Fit() returns both the model and the telemetry the
// paper's tables report (seed cost, final cost, Lloyd iterations,
// intermediate-set size, timings).
//
// Quickstart (see examples/quickstart.cc):
//   KMeansConfig config;
//   config.k = 50;
//   config.init = InitMethod::kKMeansParallel;
//   config.kmeansll.oversampling = 2.0 * 50;   // ℓ = 2k
//   config.kmeansll.rounds = 5;                // r = 5
//   KMeans model(config);
//   KMEANSLL_ASSIGN_OR_RETURN(KMeansReport report, model.Fit(data));

#ifndef KMEANSLL_CORE_KMEANS_H_
#define KMEANSLL_CORE_KMEANS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "clustering/init_kmeanspp.h"
#include "clustering/init_kmeansll.h"
#include "clustering/init_partition.h"
#include "clustering/init_random.h"
#include "clustering/lloyd.h"
#include "clustering/mapreduce_kmeans.h"
#include "clustering/types.h"
#include "common/result.h"
#include "data/model_io.h"
#include "matrix/dataset.h"

namespace kmeansll {

/// Seeding strategy (the paper's §4.2 baselines plus the contribution).
enum class InitMethod {
  kRandom,          ///< uniform k points (baseline)
  kKMeansPP,        ///< k-means++, Algorithm 1 (baseline)
  kKMeansParallel,  ///< k-means||, Algorithm 2 (the contribution)
  kPartition,       ///< streaming baseline of Ailon et al. (§4.2.1)
};

/// Human-readable method name ("k-means||" etc.).
const char* InitMethodName(InitMethod method);

/// Full pipeline configuration.
struct KMeansConfig {
  int64_t k = 8;
  InitMethod init = InitMethod::kKMeansParallel;
  uint64_t seed = 42;

  KMeansLLOptions kmeansll;    ///< used when init == kKMeansParallel
  KMeansPPOptions kmeanspp;    ///< used when init == kKMeansPP
  PartitionOptions partition;  ///< used when init == kPartition

  /// Lloyd refinement on the full dataset; max_iterations = 0 disables
  /// (seed-only evaluation, the paper's "seed" columns).
  LloydOptions lloyd;

  /// Independent seeding attempts; the seed set with the lowest cost on
  /// the full data wins and is the one Lloyd refines (the classic
  /// best-of-R restarts, run 0 uses `seed` itself so num_runs = 1 is the
  /// plain pipeline).
  int64_t num_runs = 1;

  /// Worker threads for the data-parallel paths (0 = sequential).
  int num_threads = 0;
  /// Run initialization and Lloyd through the MapReduce engine
  /// (requires kKMeansParallel or kRandom init).
  bool use_mapreduce = false;
  /// Input splits when use_mapreduce is set.
  int64_t num_partitions = 8;

  /// When non-empty, Fit() persists the fitted model at this path as a
  /// KMLLMODL artifact (centers + center norms + training metadata, CRC
  /// validated — see data/model_io.h). A failed save fails the Fit: a
  /// training run whose deliverable is the artifact must not report
  /// success without it.
  std::string model_output_path;

  /// When non-empty, training checkpoints (KMLLCKPT artifacts, see
  /// data/checkpoint_io.h) are written atomically during the sequential
  /// pipeline: k-means|| seeding rounds checkpoint at `<path>.seed` and
  /// Lloyd iterations at `<path>` (propagated into
  /// kmeansll.checkpoint_path / lloyd.checkpoint_path unless those are
  /// set explicitly). A re-run of the same configuration that finds a
  /// valid checkpoint resumes from it and produces a bitwise-identical
  /// report; checkpoints are removed as each phase completes. The
  /// MapReduce path does not checkpoint (its per-task retry covers
  /// worker faults); with num_runs > 1
  /// only the seeding run in flight at a crash resumes — completed runs
  /// recompute deterministically.
  std::string checkpoint_path;
  /// Iterations/rounds between checkpoint saves (values < 1 act as 1).
  int64_t checkpoint_every = 1;
};

/// Everything Fit() learned and measured.
struct KMeansReport {
  Matrix centers;          ///< final k × d centers
  Assignment assignment;   ///< final assignment + cost on the input data
  double seed_cost = 0;    ///< φ after initialization, before Lloyd
  double final_cost = 0;   ///< φ after Lloyd refinement
  int64_t lloyd_iterations = 0;
  bool lloyd_converged = false;
  InitTelemetry init;      ///< rounds / intermediate centers / passes
  double init_seconds = 0;
  double lloyd_seconds = 0;
  double total_seconds = 0;
  mapreduce::Counters counters;  ///< populated when use_mapreduce
  /// Transient write retries burned persisting artifacts: Lloyd
  /// checkpoints (init's seeding-checkpoint retries live in
  /// init.checkpoint_write_retries) and the final model save. Non-zero
  /// counters mean a save healed by retrying — telemetry a flaky-disk
  /// postmortem wants, invisible in the Status.
  int64_t checkpoint_write_retries = 0;
  int64_t model_write_retries = 0;
};

/// Configured, reusable estimator. Thread-compatible: one Fit() at a time
/// per instance.
class KMeans {
 public:
  explicit KMeans(KMeansConfig config);
  ~KMeans();

  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(KMeans);

  /// Runs initialization + Lloyd on `data`. Fails on invalid
  /// configuration or data (empty, k > n, dimension mismatch, a NaN or
  /// infinite coordinate — one O(n·d) scan per Fit...).
  Result<KMeansReport> Fit(const Dataset& data) const;

  /// Out-of-core Fit: the same pipeline over a DatasetSource (e.g. a
  /// data::ShardedDataset whose pinned window is smaller than the data).
  /// Produces bitwise-identical reports to the in-memory overload for
  /// the same rows and configuration.
  Result<KMeansReport> Fit(const DatasetSource& data) const;

  /// Runs only the configured initializer (the paper's "seed" rows).
  Result<InitResult> Initialize(const Dataset& data) const;
  Result<InitResult> Initialize(const DatasetSource& data) const;

  const KMeansConfig& config() const { return config_; }

 private:
  /// Initialize with MapReduce counters wired through, an explicit root
  /// seed and the caller's point norms (Fit's best-of-num_runs path; may
  /// be null). The caller has already run ValidateConfig on `data`.
  Result<InitResult> InitializeWithContext(const DatasetSource& data,
                                           mapreduce::Counters* counters,
                                           uint64_t seed,
                                           const double* point_norms) const;

  KMeansConfig config_;
  std::unique_ptr<ThreadPool> pool_;  // created when num_threads > 0
};

/// Assigns every row of `data` to its nearest center, packing the
/// centers per call. Repeated Predicts against one model should go
/// through the serving fast path instead — the Predict(CenterIndex, …)
/// overloads in serving/center_index.h reuse the index's frozen panels
/// and produce bitwise-identical assignments.
Assignment Predict(const Matrix& centers, const Dataset& data);
Assignment Predict(const Matrix& centers, const DatasetSource& data);

/// Builds the KMLLMODL artifact for a finished Fit: the report's centers
/// plus its telemetry as model metadata (what Fit saves when
/// config.model_output_path is set).
data::ModelArtifact MakeModelArtifact(const KMeansConfig& config,
                                      const KMeansReport& report,
                                      int64_t trained_rows);

/// Persists bare centers as a KMLLMODL artifact (empty metadata).
/// Convenience wrapper over data::SaveModel.
Status SaveCenters(const Matrix& centers, const std::string& path);

/// Loads the centers of a KMLLMODL artifact (drops norms/metadata).
/// Fails on anything data::LoadModel rejects.
Result<Matrix> LoadCenters(const std::string& path);

}  // namespace kmeansll

#endif  // KMEANSLL_CORE_KMEANS_H_
