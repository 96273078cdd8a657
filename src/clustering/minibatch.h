// Mini-batch k-means (Sculley, WWW 2010) — implemented as the extension
// the paper's conclusion points at ("several modifications to the basic
// k-means algorithm… can also be efficiently parallelized"). Pairs
// naturally with k-means|| seeding: initialize with k-means||, then refine
// with cheap stochastic updates instead of full Lloyd passes.

#ifndef KMEANSLL_CLUSTERING_MINIBATCH_H_
#define KMEANSLL_CLUSTERING_MINIBATCH_H_

#include <cstdint>

#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"
#include "rng/rng.h"

namespace kmeansll {

/// Options for mini-batch refinement.
struct MiniBatchOptions {
  int64_t batch_size = 1024;
  int64_t iterations = 100;
  /// Stop when the max squared center movement in an iteration falls
  /// below this (0 disables early stopping).
  double movement_tolerance = 0.0;
};

/// Outcome of mini-batch k-means.
struct MiniBatchResult {
  Matrix centers;
  double final_cost = 0;       ///< φ on the full dataset, computed once
  int64_t iterations = 0;
  bool converged = false;
};

/// Refines `initial_centers` with per-center-learning-rate stochastic
/// updates on uniformly sampled batches (Sculley's Algorithm 1).
Result<MiniBatchResult> RunMiniBatch(const Dataset& data,
                                     const Matrix& initial_centers,
                                     const MiniBatchOptions& options,
                                     rng::Rng rng);

/// As above over a DatasetSource: each iteration gathers its sampled
/// batch (points + weights) from pinned blocks, so minibatch SGD runs
/// over disk-resident shard stores with the in-memory behavior.
Result<MiniBatchResult> RunMiniBatch(const DatasetSource& data,
                                     const Matrix& initial_centers,
                                     const MiniBatchOptions& options,
                                     rng::Rng rng);

/// RunMiniBatch's SGD steps alone: every field of the result but
/// final_cost (left 0), with no full pass over the data and no check of
/// data.status(). RunMiniBatch is this plus one ComputeCost pass and
/// that check; a caller that runs its own cost pass (on a pool, or
/// recording per-row costs) calls this and then does both itself.
Result<MiniBatchResult> RunMiniBatchSteps(const DatasetSource& data,
                                          const Matrix& initial_centers,
                                          const MiniBatchOptions& options,
                                          rng::Rng rng);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_MINIBATCH_H_
