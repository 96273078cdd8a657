// Clustering cost φ_X(C) = Σ_x w_x · min_c ||x - c||² and full
// point-to-center assignment. These are the primitives shared by every
// initializer, Lloyd's iteration, and the evaluation harness; both have a
// sequential path and a deterministic thread-pool path.
//
// Both accept optional precomputed point norms (RowSquaredNorms of
// data.points(), length n). The norms only feed the expanded kernel and
// are a pure function of the immutable dataset, so callers that evaluate
// several center sets against the same data — Lloyd iterations, the
// best-of-num_runs seeding loop — compute them once and pass them to
// every call instead of paying the O(n·d) norm pass each time. Passing
// null keeps the self-contained behavior (norms derived internally);
// results are bitwise identical either way.

#ifndef KMEANSLL_CLUSTERING_COST_H_
#define KMEANSLL_CLUSTERING_COST_H_

#include <cstdint>
#include <functional>

#include "clustering/types.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace kmeansll {

/// Nearest-center evaluator over a row range of a pinned block, with
/// NearestCenterSearch::FindRange's contract: writes out_d2 (and
/// out_index when non-null) indexed i - rows.begin. `point_norms` may be
/// null.
using NearestRangeFn =
    std::function<void(ConstMatrixView points, IndexRange rows,
                       const double* point_norms, int32_t* out_index,
                       double* out_d2)>;

/// The reduction skeleton shared by ReduceNearestWithSearch and the
/// pruned CenterIndex::AssignBatch: evaluates `find` over every row of
/// `data` and folds w_x · d² into per-chunk Kahan partials on the fixed
/// kDeterministicChunks grid, combined in chunk order. When every chunk
/// holds at least kPointTile rows, rows are evaluated chunk by chunk.
/// Smaller inputs are evaluated in tiles of at least kPointTile rows
/// (the whole input without a pool) before the same fold, so a short
/// request reaches the engine as one block rather than as one-row
/// slivers. `find` must give each row a value that depends only on the
/// row, which makes both schedules bitwise identical at any pool size.
/// `out_cluster` (length n) and `point_norms` (length n) may be null.
double ReduceNearest(const DatasetSource& data, const NearestRangeFn& find,
                     ThreadPool* pool, const double* point_norms,
                     int32_t* out_cluster);

/// The reduction behind ComputeCost / ComputeAssignment, over a
/// caller-provided frozen search: one panel scan of `search`'s centers
/// across `data`, folding w_x · d²(x, C) into per-chunk Kahan partials
/// (combined in chunk order) and, when `out_cluster` is non-null (length
/// n, any initial contents), writing each point's nearest-center index.
/// Returns φ_X(C).
///
/// `search` must be frozen (panels packed). Results are bitwise identical
/// to ComputeCost/ComputeAssignment over the same centers at any pool
/// size — that is the point: a serving-layer CenterIndex holds one frozen
/// search for its snapshot's lifetime and calls this with zero per-query
/// packing cost, yet answers exactly like the training-side evaluators
/// (the AssignBatch ≡ ComputeAssignment contract in
/// docs/ARCHITECTURE.md "Serving layer"). `point_norms` (length n) may
/// be null.
double ReduceNearestWithSearch(const DatasetSource& data,
                               const NearestCenterSearch& search,
                               ThreadPool* pool, const double* point_norms,
                               int32_t* out_cluster);

/// φ_X(C); `pool` may be null for sequential execution. Centers must be
/// non-empty and match the data dimension. `point_norms` (length n) may
/// be null.
///
/// The DatasetSource overloads are the primary implementation: they
/// stream pinned row blocks through the frozen-panel engine, so the same
/// reduction serves in-memory datasets and disk-resident shard stores.
/// Results are bitwise identical between the two for the same rows (the
/// per-chunk Kahan chains fold rows in ascending order regardless of how
/// the chunk splits across blocks).
double ComputeCost(const DatasetSource& data, const Matrix& centers,
                   ThreadPool* pool = nullptr,
                   const double* point_norms = nullptr);
double ComputeCost(const Dataset& data, const Matrix& centers,
                   ThreadPool* pool = nullptr,
                   const double* point_norms = nullptr);

/// Nearest-center assignment for every point plus the implied cost.
/// `point_norms` (length n) may be null.
Assignment ComputeAssignment(const DatasetSource& data,
                             const Matrix& centers,
                             ThreadPool* pool = nullptr,
                             const double* point_norms = nullptr);
Assignment ComputeAssignment(const Dataset& data, const Matrix& centers,
                             ThreadPool* pool = nullptr,
                             const double* point_norms = nullptr);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_COST_H_
