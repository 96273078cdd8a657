#include "clustering/lloyd_internal.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "data/checkpoint_io.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"
#include "rng/rng.h"

namespace kmeansll {
namespace internal {

const double* EnsurePointNorms(const DatasetSource& data,
                               const double* provided,
                               std::vector<double>* storage,
                               ThreadPool* pool, bool* expanded) {
  *expanded = ResolveExpandedKernel(BatchKernel::kAuto, data.dim());
  if (!*expanded) return nullptr;
  if (provided != nullptr) return provided;
  *storage = RowSquaredNorms(data, pool);
  return storage->data();
}

CentroidSums AccumulateCentroids(const DatasetSource& data,
                                 const std::vector<int32_t>& assignment,
                                 int64_t k, ThreadPool* pool) {
  const int64_t d = data.dim();
  auto zero = [k, d]() {
    CentroidSums s;
    s.sums.assign(static_cast<size_t>(k * d), 0.0);
    s.weights.assign(static_cast<size_t>(k), 0.0);
    return s;
  };
  // Rows fold into the per-chunk partials in ascending global order
  // whether the chunk is one in-memory block or several pinned shards, so
  // the sums are bitwise identical either way.
  auto map = [&](IndexRange r) {
    CentroidSums partial = zero();
    ForEachBlock(data, r.begin, r.end, [&](const DatasetView& v) {
      for (int64_t i = 0; i < v.rows(); ++i) {
        const int64_t g = v.first_row() + i;
        auto c = static_cast<int64_t>(assignment[static_cast<size_t>(g)]);
        double w = v.Weight(i);
        const double* point = v.Point(i);
        double* sum = partial.sums.data() + c * d;
        for (int64_t j = 0; j < d; ++j) sum[j] += w * point[j];
        partial.weights[static_cast<size_t>(c)] += w;
      }
    });
    return partial;
  };
  auto combine = [](CentroidSums a, CentroidSums b) {
    for (size_t i = 0; i < a.sums.size(); ++i) a.sums[i] += b.sums[i];
    for (size_t i = 0; i < a.weights.size(); ++i) {
      a.weights[i] += b.weights[i];
    }
    return a;
  };
  return ParallelReduce<CentroidSums>(pool, data.n(), zero(), map, combine);
}

std::vector<int64_t> CentroidsFromSums(const CentroidSums& totals,
                                       int64_t k, int64_t d,
                                       Matrix* new_centers) {
  *new_centers = Matrix(k, d);
  std::vector<int64_t> empty;
  for (int64_t c = 0; c < k; ++c) {
    double w = totals.weights[static_cast<size_t>(c)];
    double* row = new_centers->Row(c);
    if (w > 0.0) {
      const double* sum = totals.sums.data() + c * d;
      for (int64_t j = 0; j < d; ++j) row[j] = sum[j] / w;
    } else {
      empty.push_back(c);
    }
  }
  return empty;
}

void RepairEmptyClusters(const DatasetSource& data,
                         const Matrix& old_centers,
                         const std::vector<int64_t>& empty,
                         Matrix* new_centers, ThreadPool* pool,
                         const double* point_norms) {
  NearestCenterSearch search(old_centers);
  std::vector<double> d2;
  search.FindAll(data, /*out_index=*/nullptr, &d2, pool, point_norms);
  std::vector<std::pair<double, int64_t>> contributions;
  contributions.reserve(static_cast<size_t>(data.n()));
  ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      const int64_t g = v.first_row() + i;
      contributions.emplace_back(v.Weight(i) * d2[static_cast<size_t>(g)],
                                 g);
    }
  });
  std::sort(contributions.begin(), contributions.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  size_t next = 0;
  for (int64_t c : empty) {
    const int64_t source_row = contributions[next].second;
    ++next;
    PinnedBlock pin = data.Pin(source_row, source_row + 1);
    const double* point = pin.view().Point(0);
    double* row = new_centers->Row(c);
    for (int64_t j = 0; j < data.dim(); ++j) row[j] = point[j];
  }
}

LloydCheckpointPlan MakeLloydCheckpointPlan(const DatasetSource& data,
                                            const Matrix& initial_centers,
                                            const LloydOptions& options) {
  LloydCheckpointPlan plan;
  if (options.checkpoint_path.empty()) return plan;
  plan.enabled = true;
  plan.path = options.checkpoint_path;
  plan.every = std::max<int64_t>(1, options.checkpoint_every);
  uint64_t fp = data::HashBytes(
      initial_centers.data(),
      static_cast<size_t>(initial_centers.rows() *
                          initial_centers.cols()) *
          sizeof(double));
  fp = rng::HashCombine(fp, static_cast<uint64_t>(data.n()));
  fp = rng::HashCombine(fp, static_cast<uint64_t>(data.dim()));
  fp = rng::HashCombine(fp,
                        static_cast<uint64_t>(initial_centers.rows()));
  fp = rng::HashCombine(fp,
                        static_cast<uint64_t>(options.max_iterations));
  fp = rng::HashCombine(
      fp, std::bit_cast<uint64_t>(options.relative_tolerance));
  fp = rng::HashCombine(fp, options.track_history ? 1u : 0u);
  plan.fingerprint = fp;
  return plan;
}

bool TryResumeLloyd(const LloydCheckpointPlan& plan, LloydResult* result,
                    Matrix* prev_centers) {
  if (!plan.enabled || !FileExists(plan.path)) return false;
  Result<data::TrainingCheckpoint> loaded =
      data::LoadCheckpoint(plan.path);
  if (!loaded.ok()) {
    KMEANSLL_LOG(Warning) << "ignoring unreadable Lloyd checkpoint at '"
                          << plan.path
                          << "': " << loaded.status().message();
    return false;
  }
  data::TrainingCheckpoint ckpt = std::move(loaded).ValueOrDie();
  if (ckpt.phase != data::TrainingCheckpoint::Phase::kLloyd ||
      ckpt.fingerprint != plan.fingerprint || ckpt.iteration <= 0 ||
      ckpt.prev_centers.rows() != ckpt.centers.rows()) {
    return false;  // a different job's checkpoint: stale, not corrupt
  }
  result->centers = std::move(ckpt.centers);
  result->iterations = ckpt.iteration;
  result->empty_cluster_repairs = ckpt.empty_cluster_repairs;
  result->cost_history = std::move(ckpt.cost_history);
  *prev_centers = std::move(ckpt.prev_centers);
  return true;
}

bool ShouldCheckpoint(const LloydCheckpointPlan& plan, int64_t iter,
                      int64_t max_iterations) {
  return plan.enabled && (iter + 1) % plan.every == 0 &&
         iter + 1 < max_iterations;
}

Status CheckpointLloydIteration(const LloydCheckpointPlan& plan,
                                const Matrix& prev_centers,
                                const LloydResult& result,
                                int64_t* out_retries) {
  data::TrainingCheckpoint ckpt;
  ckpt.phase = data::TrainingCheckpoint::Phase::kLloyd;
  ckpt.fingerprint = plan.fingerprint;
  ckpt.iteration = result.iterations;
  ckpt.centers = result.centers;
  ckpt.prev_centers = prev_centers;
  ckpt.cost_history = result.cost_history;
  ckpt.empty_cluster_repairs = result.empty_cluster_repairs;
  KMEANSLL_RETURN_NOT_OK(data::SaveCheckpoint(ckpt, plan.path, out_retries));
  // Crash tests arm this site nth-call to kill the run at the exact
  // moment a checkpoint became durable.
  return fault::Check("lloyd.kill");
}

void RemoveLloydCheckpoint(const LloydCheckpointPlan& plan) {
  if (plan.enabled) (void)RemoveFileIfExists(plan.path);
}

}  // namespace internal
}  // namespace kmeansll
