#include "core/kmeans.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "clustering/cost.h"
#include "common/timer.h"
#include "distance/batch.h"
#include "distance/nearest.h"

namespace kmeansll {

const char* InitMethodName(InitMethod method) {
  switch (method) {
    case InitMethod::kRandom:
      return "Random";
    case InitMethod::kKMeansPP:
      return "k-means++";
    case InitMethod::kKMeansParallel:
      return "k-means||";
    case InitMethod::kPartition:
      return "Partition";
  }
  return "unknown";
}

KMeans::KMeans(KMeansConfig config) : config_(std::move(config)) {
  if (config_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  // Propagate the pipeline-level checkpoint path into the phase options
  // (explicit per-phase paths win). Seeding and Lloyd use distinct files
  // so a crash during Lloyd does not re-run the sampling rounds.
  if (!config_.checkpoint_path.empty()) {
    if (config_.kmeansll.checkpoint_path.empty()) {
      config_.kmeansll.checkpoint_path = config_.checkpoint_path + ".seed";
      config_.kmeansll.checkpoint_every = config_.checkpoint_every;
    }
    if (config_.lloyd.checkpoint_path.empty()) {
      config_.lloyd.checkpoint_path = config_.checkpoint_path;
      config_.lloyd.checkpoint_every = config_.checkpoint_every;
    }
  }
}

KMeans::~KMeans() = default;

namespace {

/// ValidateFinite for a streamed source: one pass over pinned blocks,
/// same error reporting as Dataset::ValidateFinite.
Status ValidateFiniteSource(const DatasetSource& data) {
  Status status = Status::OK();
  ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
    if (!status.ok()) return;
    for (int64_t i = 0; i < v.rows() && status.ok(); ++i) {
      const double* point = v.Point(i);
      for (int64_t j = 0; j < v.dim(); ++j) {
        if (!std::isfinite(point[j])) {
          status = Status::InvalidArgument(
              "non-finite coordinate at point " +
              std::to_string(v.first_row() + i) + ", dimension " +
              std::to_string(j));
          break;
        }
      }
    }
  });
  return status;
}

Status ValidateConfig(const KMeansConfig& config,
                      const DatasetSource& data) {
  if (config.k <= 0) return Status::InvalidArgument("k must be positive");
  if (data.n() == 0) return Status::InvalidArgument("dataset is empty");
  if (config.k > data.n()) {
    return Status::InvalidArgument(
        "k=" + std::to_string(config.k) +
        " exceeds n=" + std::to_string(data.n()));
  }
  if (config.use_mapreduce && config.init == InitMethod::kKMeansPP) {
    return Status::InvalidArgument(
        "k-means++ is inherently sequential (the paper's motivation); "
        "MapReduce execution supports k-means||, Random, and Partition");
  }
  if (config.use_mapreduce && config.num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.num_runs < 1) {
    return Status::InvalidArgument("num_runs must be >= 1");
  }
  return ValidateFiniteSource(data);
}

}  // namespace

Result<InitResult> KMeans::Initialize(const Dataset& data) const {
  InMemorySource source = data.AsSource();
  return Initialize(source);
}

Result<InitResult> KMeans::Initialize(const DatasetSource& data) const {
  KMEANSLL_RETURN_NOT_OK(ValidateConfig(config_, data));
  return InitializeWithContext(data, nullptr, config_.seed, nullptr);
}

Result<InitResult> KMeans::InitializeWithContext(
    const DatasetSource& data, mapreduce::Counters* counters, uint64_t seed,
    const double* point_norms) const {
  rng::Rng rng = rng::MakeRootRng(seed);
  if (config_.use_mapreduce) {
    MRContext ctx;
    ctx.num_partitions = config_.num_partitions;
    ctx.pool = pool_.get();
    ctx.counters = counters;
    switch (config_.init) {
      case InitMethod::kKMeansParallel:
        return MRKMeansLLInit(data, config_.k, rng, config_.kmeansll, ctx);
      case InitMethod::kRandom:
        return MRRandomInit(data, config_.k, rng, ctx);
      case InitMethod::kPartition:
        return MRPartitionInit(data, config_.k, rng, PartitionOptions{},
                               ctx);
      case InitMethod::kKMeansPP:
        return Status::InvalidArgument("k-means++ has no MapReduce path");
    }
  }
  switch (config_.init) {
    case InitMethod::kRandom:
      return RandomInit(data, config_.k, rng);
    case InitMethod::kKMeansPP:
      return KMeansPPInit(data, config_.k, rng, KMeansPPOptions{},
                          pool_.get());
    case InitMethod::kKMeansParallel:
      return KMeansLLInit(data, config_.k, rng, config_.kmeansll,
                          pool_.get(), point_norms);
    case InitMethod::kPartition:
      return PartitionInit(data, config_.k, rng);
  }
  return Status::InvalidArgument("unknown init method");
}

Result<KMeansReport> KMeans::Fit(const Dataset& data) const {
  InMemorySource source = data.AsSource();
  return Fit(source);
}

Result<KMeansReport> KMeans::Fit(const DatasetSource& data) const {
  // Validated once per Fit: the seeding runs below skip it.
  KMEANSLL_RETURN_NOT_OK(ValidateConfig(config_, data));
  WallTimer total_timer;
  KMeansReport report;

  MRContext ctx;
  ctx.num_partitions = config_.num_partitions;
  ctx.pool = pool_.get();
  ctx.counters = &report.counters;

  // Point norms are a pure function of the data: computed once per Fit
  // and threaded through the k-means|| distance tracker and every
  // in-process cost/assignment evaluation below (each used to redo the
  // O(n·d) norm pass). Only the expanded kernel reads them, so small
  // dimensions skip the pass entirely; the MapReduce paths keep norms in
  // their own per-partition distance state.
  std::vector<double> norm_storage;
  if (!config_.use_mapreduce &&
      ResolveExpandedKernel(BatchKernel::kAuto, data.dim())) {
    norm_storage = RowSquaredNorms(data, pool_.get());
  }
  const double* point_norms =
      norm_storage.empty() ? nullptr : norm_storage.data();

  // Best-of-num_runs seeding: every run derives its own root seed (run 0
  // uses config.seed itself) and the lowest-cost seed set wins.
  WallTimer init_timer;
  InitResult init;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int64_t run = 0; run < config_.num_runs; ++run) {
    uint64_t run_seed =
        run == 0 ? config_.seed
                 : rng::HashCombine(config_.seed,
                                    static_cast<uint64_t>(run));
    KMEANSLL_ASSIGN_OR_RETURN(
        InitResult candidate,
        InitializeWithContext(data, &report.counters, run_seed,
                              point_norms));
    double cost;
    if (config_.use_mapreduce) {
      KMEANSLL_ASSIGN_OR_RETURN(
          cost, MRComputeCost(data, candidate.centers, ctx));
    } else {
      cost = ComputeCost(data, candidate.centers, pool_.get(),
                         point_norms);
    }
    if (cost < best_cost) {
      best_cost = cost;
      init = std::move(candidate);
    }
  }
  report.init_seconds = init_timer.ElapsedSeconds();
  report.init = init.telemetry;
  report.seed_cost = best_cost;

  WallTimer lloyd_timer;
  if (config_.lloyd.max_iterations > 0) {
    if (config_.use_mapreduce) {
      KMEANSLL_ASSIGN_OR_RETURN(
          LloydResult lloyd,
          MRRunLloyd(data, init.centers, config_.lloyd, ctx));
      report.centers = std::move(lloyd.centers);
      report.assignment = std::move(lloyd.assignment);
      report.lloyd_iterations = lloyd.iterations;
      report.lloyd_converged = lloyd.converged;
    } else {
      KMEANSLL_ASSIGN_OR_RETURN(
          LloydResult lloyd, RunLloyd(data, init.centers, config_.lloyd,
                                      pool_.get(), point_norms));
      report.centers = std::move(lloyd.centers);
      report.assignment = std::move(lloyd.assignment);
      report.lloyd_iterations = lloyd.iterations;
      report.lloyd_converged = lloyd.converged;
      report.checkpoint_write_retries = lloyd.checkpoint_write_retries;
    }
  } else {
    report.centers = std::move(init.centers);
    report.assignment = ComputeAssignment(data, report.centers,
                                          pool_.get(), point_norms);
  }
  report.lloyd_seconds = lloyd_timer.ElapsedSeconds();
  report.final_cost = report.assignment.cost;
  report.total_seconds = total_timer.ElapsedSeconds();

  // A degraded source (see DatasetSource::status) served fallback blocks
  // somewhere above: the report would be internally consistent but not
  // the data's — fail the Fit with the root cause instead of persisting
  // or returning it.
  KMEANSLL_RETURN_NOT_OK(data.status());

  if (!config_.model_output_path.empty()) {
    KMEANSLL_RETURN_NOT_OK(
        data::SaveModel(MakeModelArtifact(config_, report, data.n()),
                        config_.model_output_path,
                        &report.model_write_retries));
  }
  return report;
}

Assignment Predict(const Matrix& centers, const Dataset& data) {
  return ComputeAssignment(data, centers);
}

Assignment Predict(const Matrix& centers, const DatasetSource& data) {
  return ComputeAssignment(data, centers);
}

data::ModelArtifact MakeModelArtifact(const KMeansConfig& config,
                                      const KMeansReport& report,
                                      int64_t trained_rows) {
  data::ModelMetadata metadata;
  metadata.init_method = InitMethodName(config.init);
  metadata.seed = config.seed;
  metadata.lloyd_iterations = report.lloyd_iterations;
  metadata.trained_rows = trained_rows;
  metadata.seed_cost = report.seed_cost;
  metadata.final_cost = report.final_cost;
  return data::MakeModelArtifact(report.centers, std::move(metadata));
}

Status SaveCenters(const Matrix& centers, const std::string& path) {
  return data::SaveModel(
      data::MakeModelArtifact(centers, data::ModelMetadata{}), path);
}

Result<Matrix> LoadCenters(const std::string& path) {
  KMEANSLL_ASSIGN_OR_RETURN(data::ModelArtifact artifact,
                            data::LoadModel(path));
  return std::move(artifact.centers);
}

}  // namespace kmeansll
