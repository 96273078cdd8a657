// Pieces of Lloyd's iteration that live outside its loop: the centroid
// accumulation, the empty-cluster repair, the point-norm bootstrap and
// the checkpoint/resume plumbing.
//
// RunLloyd (clustering/lloyd.cc) uses all of them. MRRunLloyd
// (clustering/mapreduce_kmeans.cc) accumulates its centroids in its own
// job but repairs empty clusters through RepairEmptyClusters, so both
// drivers reseed an empty cluster from the same point.

#ifndef KMEANSLL_CLUSTERING_LLOYD_INTERNAL_H_
#define KMEANSLL_CLUSTERING_LLOYD_INTERNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/lloyd.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace kmeansll {
namespace internal {

/// Resolves the engine's kAuto kernel for `data` into *expanded and
/// ensures point norms exist when the expanded kernel will run: returns
/// `provided` when non-null, else fills `storage` with
/// RowSquaredNorms(data.points(), pool) and returns its data. Returns
/// null under the plain kernel (the kernels never read norms there).
/// The kernel choice is the engine's own ResolveExpandedKernel rule.
const double* EnsurePointNorms(const DatasetSource& data,
                               const double* provided,
                               std::vector<double>* storage,
                               ThreadPool* pool, bool* expanded);

/// Weighted per-cluster coordinate sums and weights for the centroid
/// update.
struct CentroidSums {
  std::vector<double> sums;     ///< k × d weighted coordinate sums
  std::vector<double> weights;  ///< k weighted counts
};

/// Accumulates the centroid sums for `assignment` over the fixed
/// deterministic chunk grid; per-chunk partials are merged in chunk
/// order, so the result is bitwise identical sequentially (pool = null)
/// and at any pool size.
CentroidSums AccumulateCentroids(const DatasetSource& data,
                                 const std::vector<int32_t>& assignment,
                                 int64_t k, ThreadPool* pool);

/// Divides the sums into `new_centers` (resized to k × d) and returns the
/// indices of clusters with zero total weight (their rows are left
/// zeroed; see RepairEmptyClusters).
std::vector<int64_t> CentroidsFromSums(const CentroidSums& totals,
                                       int64_t k, int64_t d,
                                       Matrix* new_centers);

/// The deterministic empty-cluster repair of both Lloyd drivers: each
/// empty cluster receives the point with the largest current (weighted)
/// cost contribution under `old_centers`, claiming indices in order of
/// decreasing contribution (ties by ascending point index) so no point
/// is reused. Contributions come from one blocked batch scan; `pool` and
/// `point_norms` (length n, may be null) are threaded through to it.
void RepairEmptyClusters(const DatasetSource& data,
                         const Matrix& old_centers,
                         const std::vector<int64_t>& empty,
                         Matrix* new_centers, ThreadPool* pool = nullptr,
                         const double* point_norms = nullptr);

/// RunLloyd's checkpoint/resume plumbing (see data/checkpoint_io.h for
/// the artifact and docs/ARCHITECTURE.md "Fault tolerance" for the
/// protocol).
struct LloydCheckpointPlan {
  bool enabled = false;
  std::string path;
  int64_t every = 1;
  uint64_t fingerprint = 0;
};

/// Builds the plan from the options (enabled iff checkpoint_path is
/// non-empty). The fingerprint binds a checkpoint to the job — n, d, the
/// exact initial-center bytes, and the convergence knobs — but not to
/// the pool size, which never changes the trajectory.
LloydCheckpointPlan MakeLloydCheckpointPlan(const DatasetSource& data,
                                            const Matrix& initial_centers,
                                            const LloydOptions& options);

/// Attempts to resume from plan.path. On a valid Lloyd checkpoint with a
/// matching fingerprint: fills `result` (centers, iterations, repairs,
/// cost history), returns the centers that entered the checkpointed
/// iteration in *prev_centers (the runner recomputes the previous
/// assignment against them), and returns true. A missing, stale, or
/// corrupt checkpoint returns false — the run starts from scratch
/// (corruption is logged, never trusted).
bool TryResumeLloyd(const LloydCheckpointPlan& plan, LloydResult* result,
                    Matrix* prev_centers);

/// True when iteration `iter` (0-based) should checkpoint under `plan`:
/// every plan.every iterations, skipping the run's final iteration
/// (whose state the returned result already carries).
bool ShouldCheckpoint(const LloydCheckpointPlan& plan, int64_t iter,
                      int64_t max_iterations);

/// Atomically persists the end-of-iteration state. `prev_centers` are
/// the centers that entered the iteration. Also hosts the "lloyd.kill"
/// fault site so crash tests can kill the run exactly after a durable
/// checkpoint. `*out_retries` (optional) accumulates transient write
/// retries — the runners feed LloydResult::checkpoint_write_retries.
Status CheckpointLloydIteration(const LloydCheckpointPlan& plan,
                                const Matrix& prev_centers,
                                const LloydResult& result,
                                int64_t* out_retries = nullptr);

/// Removes a completed run's checkpoint (best-effort).
void RemoveLloydCheckpoint(const LloydCheckpointPlan& plan);

}  // namespace internal
}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_LLOYD_INTERNAL_H_
