// Lloyd's iteration (the "k-means algorithm" proper): alternate
// nearest-center assignment and centroid recomputation until a fixed
// point. Supports weighted datasets, so the same routine refines the
// weighted coresets produced by k-means|| reclustering and the Partition
// baseline.

#ifndef KMEANSLL_CLUSTERING_LLOYD_H_
#define KMEANSLL_CLUSTERING_LLOYD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace kmeansll {

/// Options for RunLloyd.
struct LloydOptions {
  /// Hard iteration cap. The paper caps parallel Random at 20 (§4.2) and
  /// lets sequential runs converge; Table 6 counts iterations to the
  /// assignment fixed point.
  int64_t max_iterations = 100;
  /// Early stop when the relative cost improvement falls below this
  /// (0 disables; convergence is then the assignment fixed point only).
  double relative_tolerance = 0.0;
  /// Record φ after every iteration in LloydResult::cost_history.
  bool track_history = false;
  /// When non-empty, a KMLLCKPT training checkpoint (see
  /// data/checkpoint_io.h) is written atomically at this path every
  /// `checkpoint_every` iterations, and a run finding a valid checkpoint
  /// for the same job here resumes from it with bitwise-identical
  /// results to an uninterrupted run. Stale or corrupt checkpoints are
  /// ignored; the file is removed when the run completes.
  std::string checkpoint_path;
  /// Iterations between checkpoint saves (used when checkpoint_path is
  /// set; values < 1 behave as 1).
  int64_t checkpoint_every = 1;
};

/// Outcome of Lloyd's iteration.
struct LloydResult {
  Matrix centers;            ///< final k × d centers
  Assignment assignment;     ///< final assignment and cost
  int64_t iterations = 0;    ///< iterations actually executed
  bool converged = false;    ///< reached a fixed point before the cap
  std::vector<double> cost_history;  ///< φ after each iteration (optional)
  int64_t empty_cluster_repairs = 0; ///< centers reseeded (see below)
  /// Transient write retries burned saving iteration checkpoints (0 when
  /// checkpointing is off or every save landed first try).
  int64_t checkpoint_write_retries = 0;
};

/// Runs Lloyd's iteration from `initial_centers`.
///
/// Empty-cluster repair: when a cluster receives no (weighted) points, its
/// center is reseeded to the point with the largest current cost
/// contribution not already claimed by another repair — a deterministic
/// policy; the paper does not specify one (DESIGN.md §5.5).
///
/// `point_norms` (RowSquaredNorms of data.points(), length n) may be
/// null, in which case the norms are computed here once per run; callers
/// that already hold them (KMeans::Fit) pass them through so the O(n·d)
/// pass is not repeated. Results are bitwise identical either way.
///
/// Fails if `initial_centers` is empty or dimensions mismatch.
///
/// The DatasetSource overload is the primary implementation: every
/// assignment, centroid accumulation, repair, and cost pass streams
/// pinned row blocks, so the same iteration runs over in-memory data and
/// disk-resident shard stores with bitwise-identical results for the
/// same rows.
Result<LloydResult> RunLloyd(const DatasetSource& data,
                             const Matrix& initial_centers,
                             const LloydOptions& options,
                             ThreadPool* pool = nullptr,
                             const double* point_norms = nullptr);
Result<LloydResult> RunLloyd(const Dataset& data,
                             const Matrix& initial_centers,
                             const LloydOptions& options,
                             ThreadPool* pool = nullptr,
                             const double* point_norms = nullptr);

/// One assignment + centroid-update step of RunLloyd (exposed for tests
/// and benchmarks): given centers, produces the new centroids and the
/// assignment that generated them. Returns the number of empty clusters
/// repaired. `point_norms` (RowSquaredNorms of data.points(), length n)
/// may be null; RunLloyd computes it once per run and threads it through
/// every iteration so the O(n·d) norm pass is not redone per step.
int64_t LloydStep(const DatasetSource& data, const Matrix& centers,
                  Matrix* new_centers, Assignment* assignment,
                  ThreadPool* pool, const double* point_norms = nullptr);
int64_t LloydStep(const Dataset& data, const Matrix& centers,
                  Matrix* new_centers, Assignment* assignment,
                  ThreadPool* pool, const double* point_norms = nullptr);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_LLOYD_H_
