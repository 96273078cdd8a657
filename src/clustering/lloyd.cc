#include "clustering/lloyd.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "clustering/cost.h"
#include "clustering/lloyd_internal.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/trace.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

int64_t LloydStep(const DatasetSource& data, const Matrix& centers,
                  Matrix* new_centers, Assignment* assignment,
                  ThreadPool* pool, const double* point_norms) {
  const int64_t k = centers.rows();
  const int64_t d = centers.cols();
  {
    KMEANSLL_TRACE_SPAN("lloyd.assign_scan");
    *assignment = ComputeAssignment(data, centers, pool, point_norms);
  }

  internal::CentroidSums totals;
  {
    KMEANSLL_TRACE_SPAN("lloyd.centroid_accumulate");
    totals =
        internal::AccumulateCentroids(data, assignment->cluster, k, pool);
  }
  std::vector<int64_t> empty =
      internal::CentroidsFromSums(totals, k, d, new_centers);
  if (!empty.empty()) {
    KMEANSLL_TRACE_SPAN("lloyd.repair_empty");
    internal::RepairEmptyClusters(data, centers, empty, new_centers, pool,
                                  point_norms);
  }
  return static_cast<int64_t>(empty.size());
}

Result<LloydResult> RunLloyd(const DatasetSource& data,
                             const Matrix& initial_centers,
                             const LloydOptions& options,
                             ThreadPool* pool, const double* point_norms) {
  if (initial_centers.rows() == 0) {
    return Status::InvalidArgument("initial center set is empty");
  }
  if (initial_centers.cols() != data.dim()) {
    return Status::InvalidArgument(
        "center dimension " + std::to_string(initial_centers.cols()) +
        " does not match data dimension " + std::to_string(data.dim()));
  }
  if (data.n() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }

  // Point norms are a pure function of the immutable dataset: one O(n·d)
  // pass per run feeds the expanded kernel of every assignment, repair,
  // and cost evaluation below instead of being recomputed per iteration —
  // done here unless the caller (KMeans::Fit) already holds the vector.
  std::vector<double> norm_storage;
  bool expanded = false;
  point_norms = internal::EnsurePointNorms(data, point_norms,
                                           &norm_storage, pool, &expanded);

  LloydResult result;
  result.centers = initial_centers;

  // Checkpoint/resume: a valid checkpoint restores the end state of its
  // iteration; the previous assignment (and its cost, feeding the
  // convergence tests) is recomputed against the stored entering centers
  // — one data pass instead of O(n) persisted state — so the resumed
  // trajectory is bitwise the uninterrupted one. A fresh run needs no
  // assignment before its first iteration: iteration 0's convergence and
  // tolerance tests are both guarded by iter > 0.
  const internal::LloydCheckpointPlan plan =
      internal::MakeLloydCheckpointPlan(data, initial_centers, options);
  int64_t start_iter = 0;
  {
    Matrix resume_prev;
    if (internal::TryResumeLloyd(plan, &result, &resume_prev)) {
      start_iter = result.iterations;
      result.assignment =
          ComputeAssignment(data, resume_prev, pool, point_norms);
    }
  }

  for (int64_t iter = start_iter; iter < options.max_iterations; ++iter) {
    KMEANSLL_TRACE_SPAN("lloyd.iteration");
    const bool will_checkpoint =
        internal::ShouldCheckpoint(plan, iter, options.max_iterations);
    Matrix entering_centers;
    if (will_checkpoint) entering_centers = result.centers;

    Matrix new_centers;
    Assignment assignment;
    result.empty_cluster_repairs += LloydStep(
        data, result.centers, &new_centers, &assignment, pool, point_norms);
    ++result.iterations;

    bool assignments_unchanged =
        iter > 0 && assignment.cluster == result.assignment.cluster;
    double previous_cost = result.assignment.cost;

    result.centers = std::move(new_centers);
    result.assignment = std::move(assignment);
    if (options.track_history) {
      result.cost_history.push_back(result.assignment.cost);
    }

    if (assignments_unchanged) {
      result.converged = true;
      break;
    }
    // Tolerance comparisons start at iteration 1: at iteration 0 the
    // "previous" cost describes the same assignment under the same
    // centers, so the improvement is trivially zero.
    if (options.relative_tolerance > 0.0 && iter > 0 &&
        previous_cost > 0.0) {
      double improvement =
          (previous_cost - result.assignment.cost) / previous_cost;
      if (improvement >= 0.0 && improvement < options.relative_tolerance) {
        result.converged = true;
        break;
      }
    }

    if (will_checkpoint) {
      KMEANSLL_RETURN_NOT_OK(
          internal::CheckpointLloydIteration(
              plan, entering_centers, result,
              &result.checkpoint_write_retries));
    }
  }

  // Report the cost of the final centers (the assignment stored above is
  // the one that *produced* them; recompute so cost matches centers).
  result.assignment = ComputeAssignment(data, result.centers, pool,
                                        point_norms);
  KMEANSLL_RETURN_NOT_OK(data.status());
  internal::RemoveLloydCheckpoint(plan);
  return result;
}

int64_t LloydStep(const Dataset& data, const Matrix& centers,
                  Matrix* new_centers, Assignment* assignment,
                  ThreadPool* pool, const double* point_norms) {
  InMemorySource source = data.AsSource();
  return LloydStep(source, centers, new_centers, assignment, pool,
                   point_norms);
}

Result<LloydResult> RunLloyd(const Dataset& data,
                             const Matrix& initial_centers,
                             const LloydOptions& options, ThreadPool* pool,
                             const double* point_norms) {
  InMemorySource source = data.AsSource();
  return RunLloyd(source, initial_centers, options, pool, point_norms);
}

}  // namespace kmeansll
