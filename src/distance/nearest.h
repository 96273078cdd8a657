// Nearest-center search and incremental min-distance maintenance.
//
// NearestCenterSearch answers "which center is closest to x, and at what
// squared distance" for a frozen center set. The single-point Find is the
// scalar reference path; FindRange/FindAll (and the top-m and
// all-distances queries serving uses) route whole blocks of points
// through the blocked batch engine (distance/batch.h), which is what
// every O(n·k·d) consumer in the library uses. Freeze() additionally
// caches the engine's packed center panels inside the search, so
// repeated batch queries against the same centers — chunked parallel
// passes, minibatch iterations — stop re-packing the panels per call.
//
// MinDistanceTracker maintains d²(x, C) for every point x while C grows —
// the data structure behind both k-means++ (Algorithm 1) and each round of
// k-means|| (Algorithm 2): after centers are added, one blocked pass
// updates min(d_old², d²(x, c_new)) instead of rescanning all of C. This
// is what keeps the total initializer cost at O(nkd) as the paper states.
// The pass runs on an optional thread pool with fixed deterministic
// chunking, folds the potential φ into the scan's per-chunk partials, and
// caches per-point norms across rounds for the expanded kernel.

#ifndef KMEANSLL_DISTANCE_NEAREST_H_
#define KMEANSLL_DISTANCE_NEAREST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <optional>

#include "distance/batch.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace kmeansll {

/// Result of a nearest-center query.
struct NearestResult {
  int64_t index = -1;    ///< row of the closest center
  double distance2 = 0;  ///< squared distance to it
};

/// Search over a frozen k × d center matrix.
///
/// Determinism: the scalar Find path and every batched path evaluate
/// distances with the engine's per-pair accumulation chains
/// (PairSquaredL2 / PairDotProduct match the panel kernels bitwise), so
/// Find, FindRange, FindAll, and the top-m/all-distances queries agree
/// bitwise on values and argmin ties for the same kernel choice.
class NearestCenterSearch {
 public:
  /// Kernel selection; kAuto picks expanded for
  /// d >= kExpandedKernelMinDim (where the dot-product formulation wins;
  /// threshold measured in bench/bm_batch_distance).
  enum class Kernel { kAuto, kPlain, kExpanded };

  /// Binds the search to `centers` (not owned; must outlive the search
  /// and stay unchanged between queries unless Freeze() is re-run — see
  /// below). Computes the k center norms when the expanded kernel is
  /// selected; does not pack panels (see Freeze).
  explicit NearestCenterSearch(const Matrix& centers,
                               Kernel kernel = Kernel::kAuto);

  /// Packs the center panels (and refreshes the center norms) once, so
  /// every subsequent batch query reuses them instead of re-packing per
  /// call. Call before handing the search to concurrent FindRange
  /// callers (Freeze itself is not thread-safe; the frozen queries are).
  /// Under the expanded kernel it also keeps the panels' fp32 copy
  /// (CenterPanels::PackScreen, k·d·4 more bytes) that one-row FindRange
  /// and FindTopMRange calls screen against (see ScreenedTopM).
  ///
  /// Invalidation contract: the panels are a bitwise snapshot. After
  /// mutating the bound center matrix in place, call Freeze() again to
  /// re-validate (or Unfreeze() to fall back to per-call packing);
  /// queries between the mutation and the re-Freeze see the stale
  /// snapshot.
  void Freeze();

  /// Freeze() variant for callers holding externally validated row norms
  /// of the bound centers — e.g. a LoadModel-checked artifact's, which
  /// are already proven bitwise equal to RowSquaredNorms of the stored
  /// rows. Adopts `norms` and packs the panels without the O(k·d)
  /// norm recomputation Freeze() pays; the adopted values are
  /// bitwise-asserted against the constructor's snapshot (so the centers
  /// must be unchanged since construction — unlike Freeze(), this is NOT
  /// a re-validation point after in-place mutation). Under the plain
  /// kernel the norms are unused and simply discarded.
  void FreezeWithNorms(std::vector<double> norms);

  /// Drops the cached panels; batch queries pack per call again.
  void Unfreeze();

  /// True while a packed-panel snapshot is cached.
  bool frozen() const { return frozen_; }

  /// Closest center to `point` (dim must match). Centers must be
  /// non-empty. Scalar reference path — one point, one center at a time,
  /// bitwise-consistent with the batched paths (see class comment).
  NearestResult Find(const double* point) const;

  /// Closest center given the caller-precomputed ||point||² (only used by
  /// the expanded kernel; ignored otherwise). The norm must come from
  /// SquaredNorm/RowSquaredNorms to stay bitwise-consistent with the
  /// batched paths.
  NearestResult FindWithNorm(const double* point, double point_norm2) const;

  /// Batched: nearest center for rows [rows.begin, rows.end) of `points`
  /// via the blocked engine. Writes out_index[i - rows.begin] (center row)
  /// and out_d2[i - rows.begin]; the output arrays need no
  /// initialization. `point_norms` (indexed i - rows.begin) may be null,
  /// as may `out_index` for distance-only callers. Uses the frozen panel
  /// snapshot when present, else packs per call. A one-row call on a
  /// frozen expanded-kernel search goes through the fp32 screen
  /// (ScreenedTopM) where it can, with the same bits.
  void FindRange(ConstMatrixView points, IndexRange rows,
                 const double* point_norms, int32_t* out_index,
                 double* out_d2) const;
  void FindRange(const Matrix& points, IndexRange rows,
                 const double* point_norms, int32_t* out_index,
                 double* out_d2) const {
    FindRange(points.view(), rows, point_norms, out_index, out_d2);
  }

  /// Batched over a (possibly disk-resident) source: nearest center for
  /// global rows [rows.begin, rows.end), pinning and scanning each
  /// resident block in ascending row order. Output arrays and
  /// `point_norms` are indexed i - rows.begin exactly as above; per-row
  /// results are bitwise identical to scanning the same rows in memory
  /// (engine values do not depend on block placement).
  void FindRange(const DatasetSource& data, IndexRange rows,
                 const double* point_norms, int32_t* out_index,
                 double* out_d2) const;

  /// Batched: nearest center for every row of `points`, chunked over
  /// `pool` (null runs inline). Results are bitwise identical at any
  /// thread count (fixed kDeterministicChunks chunking). `out_index` may
  /// be null for distance-only callers; `point_norms` (indexed by row of
  /// `points`, length points.rows()) may be null. Packs panels at most
  /// once per call even when not frozen.
  void FindAll(const Matrix& points, std::vector<int32_t>* out_index,
               std::vector<double>* out_d2, ThreadPool* pool = nullptr,
               const double* point_norms = nullptr) const;

  /// FindAll over a source: every row of `data`, chunked on the same
  /// deterministic grid (results bitwise identical to the in-memory
  /// FindAll over the same rows at any thread count).
  void FindAll(const DatasetSource& data, std::vector<int32_t>* out_index,
               std::vector<double>* out_d2, ThreadPool* pool = nullptr,
               const double* point_norms = nullptr) const;

  /// Batched top-m (fresh scan): for rows [rows.begin, rows.end) writes
  /// each point's m nearest centers in ascending distance order —
  /// out_index[(i - rows.begin) · m + s] / out_d2[...] are the
  /// (s+1)-th nearest center row and its squared distance. Slot 0 is
  /// bitwise the FindRange result; exact ties sort by ascending center
  /// index; m > k leaves trailing slots at index -1 / +infinity. This is
  /// the serving layer's AssignTopM primitive (see BatchTopM); one row is
  /// screened as in FindRange.
  void FindTopMRange(ConstMatrixView points, IndexRange rows,
                     const double* point_norms, int64_t m,
                     int32_t* out_index, double* out_d2) const;
  void FindTopMRange(const Matrix& points, IndexRange rows,
                     const double* point_norms, int64_t m,
                     int32_t* out_index, double* out_d2) const {
    FindTopMRange(points.view(), rows, point_norms, m, out_index, out_d2);
  }

  /// Batched dense distances: out_d2[(i - rows.begin) · k + c] =
  /// d²(points row i, center c) for every center, with the engine's
  /// values (expanded results clamped at zero). This feeds the pruned
  /// index's coarse-group bounds (serving/center_index.h).
  void DistancesRange(ConstMatrixView points, IndexRange rows,
                      const double* point_norms, double* out_d2) const;
  void DistancesRange(const Matrix& points, IndexRange rows,
                      const double* point_norms, double* out_d2) const {
    DistancesRange(points.view(), rows, point_norms, out_d2);
  }

  int64_t num_centers() const { return centers_.rows(); }
  bool uses_expanded_kernel() const { return use_expanded_; }

  /// The cached ||center||² row norms (empty under the plain kernel).
  /// Computed with RowSquaredNorms, so callers that need the same values
  /// (the pruned index's bounds) can share this vector instead of
  /// recomputing it. Refreshed by Freeze().
  const std::vector<double>& center_norms() const { return center_norms_; }

 private:
  /// Engine kernel matching use_expanded_.
  BatchKernel batch_kernel() const {
    return use_expanded_ ? BatchKernel::kExpanded : BatchKernel::kPlain;
  }
  const double* center_norms_or_null() const {
    return use_expanded_ ? center_norms_.data() : nullptr;
  }
  /// Packs panels_ (and its fp32 copy under the expanded kernel); the
  /// shared tail of Freeze and FreezeWithNorms.
  void PackPanels();

  const Matrix& centers_;  // not owned; must outlive the search
  std::vector<double> center_norms_;
  CenterPanels panels_;  // packed snapshot (+ fp32 copy); valid iff frozen_
  bool frozen_ = false;
  bool use_expanded_;
};

/// Maintains per-point d²(x, C) and the index of the closest center while
/// C grows. All costs are weighted by the dataset's point weights, so the
/// same tracker drives the weighted reclustering step.
class MinDistanceTracker {
 public:
  /// Starts with an empty center set: all distances are +infinity and the
  /// potential is undefined until the first center is added. `pool` (may
  /// be null — the sequential initializers pass none and every internal
  /// pass handles that uniformly; no ThreadPool is ever dereferenced on
  /// the null path) parallelizes AddCenters; the fixed chunking keeps
  /// results bitwise identical across thread counts.
  explicit MinDistanceTracker(const Dataset& data,
                              ThreadPool* pool = nullptr);

  /// As above over a DatasetSource — the same tracker streams
  /// disk-resident shards (the source must outlive the tracker).
  /// `point_norms` (may be null; must outlive the tracker) is
  /// RowSquaredNorms of the source, read by the expanded kernel; null
  /// computes them on the first AddCenters, bitwise the same values.
  explicit MinDistanceTracker(const DatasetSource& data,
                              ThreadPool* pool = nullptr,
                              const double* point_norms = nullptr);

  /// Non-copyable/non-movable: the Dataset constructor points data_ at
  /// the tracker's own owned_source_ member, so a byte-wise copy or
  /// move would leave the new object referencing the old one's storage.
  MinDistanceTracker(const MinDistanceTracker&) = delete;
  MinDistanceTracker& operator=(const MinDistanceTracker&) = delete;

  /// Accounts rows [first, centers.rows()) of `centers` as newly added,
  /// updating every point's min distance in one blocked parallel pass that
  /// also folds the new potential into per-chunk partials (no separate
  /// O(n) re-summation). The new rows are packed into panels once per
  /// call (not once per chunk) and shared by all chunks. Returns the new
  /// potential φ_X(C) = Σ_x w_x · d²(x, C).
  double AddCenters(const Matrix& centers, int64_t first);

  /// Squared distance from point i to the current center set.
  double Distance2(int64_t i) const {
    return min_d2_[static_cast<size_t>(i)];
  }
  /// Index (into the accumulated center matrix) of point i's closest
  /// center; -1 before any center is added.
  int64_t ClosestCenter(int64_t i) const {
    return closest_[static_cast<size_t>(i)];
  }

  /// Current potential φ_X(C) (weighted).
  double Potential() const { return potential_; }

  /// Vector of weighted contributions w_x · d²(x, C) — the D² sampling
  /// weights of Algorithms 1 and 2.
  std::vector<double> WeightedContributions() const;

  const std::vector<double>& distances2() const { return min_d2_; }

  int64_t n() const { return static_cast<int64_t>(min_d2_.size()); }

 private:
  std::optional<InMemorySource> owned_source_;  // backs the Dataset ctor
  const DatasetSource* data_;  // not owned; must outlive the tracker
  ThreadPool* pool_;           // not owned; may be null (sequential pass)
  const double* point_norms_ = nullptr;  // the caller's, or owned_norms_
  std::vector<double> min_d2_;
  std::vector<int32_t> closest_;
  std::vector<double> owned_norms_;  // computed on first use when not given
  double potential_ = 0.0;
};

/// Per-row squared norms of a matrix (used by the expanded kernel),
/// computed in parallel over `pool` (null runs inline; results identical).
/// Uses the SquaredNorm chain, so these norms are the ones every engine
/// entry point expects (and computes itself when passed null).
std::vector<double> RowSquaredNorms(const Matrix& m,
                                    ThreadPool* pool = nullptr);

/// Per-row squared norms of every point in a source (same SquaredNorm
/// chain and deterministic chunking as the Matrix overload, so the values
/// are bitwise those of the in-memory pass over the same rows).
std::vector<double> RowSquaredNorms(const DatasetSource& data,
                                    ThreadPool* pool = nullptr);

}  // namespace kmeansll

#endif  // KMEANSLL_DISTANCE_NEAREST_H_
