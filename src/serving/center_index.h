// CenterIndex: an immutable, shareable snapshot of a fitted center set,
// prepared for online nearest-center queries.
//
// Training produces centers; serving answers "which cluster is this
// point in" at high QPS. The index is the bridge: it owns a bitwise copy
// of the k × d centers together with everything the batch distance
// engine (distance/batch.h) needs precomputed — the packed CenterPanels,
// their fp32 copy for one-row screens (k·d·4 bytes, expanded kernel only)
// and the center squared norms — so per-query work is pure scanning with
// zero packing or norm cost. Once built, a CenterIndex never changes;
// every query method is const and safe to call from any number of
// threads concurrently, which is what lets ModelServer publish snapshots
// RCU-style (readers hold a shared_ptr, writers build-then-swap — see
// serving/model_server.h).
//
// Two-level pruned index (opt-in, CenterIndexOptions::enable_pruning):
// a flat scan pays exact O(k) per query, which collapses QPS linearly as
// k grows into the tens of thousands. The pruned build runs a coarse
// k-means over the k centers themselves (the repo's own k-means||
// seeding + Lloyd, fixed seed, deterministic by construction), permutes
// the centers group-contiguously into ONE packed panel set, and caches
// per-group member radii R_j = max_{c in group j} ||c − coarse_j||. A
// query computes its g ≈ √k coarse distances D_j, visits groups in
// ascending lower-bound order lb_j = D_j − R_j, and skips every group
// whose bound proves (triangle inequality, the same algebra as Elkan's
// Lloyd bounds) that no member can strictly beat
// the running best — so most groups never reach the engine, yet the
// surviving ones go through the exact same frozen-panel scans
// (BatchNearestMergeSubset / BatchTopMSubset).
//
// Determinism contract (extends distance/batch.h): AssignBatch runs the
// exact reduction ComputeAssignment runs (clustering/cost.h,
// ReduceNearestWithSearch) over this index's frozen panels, so its
// Assignment — indices, cost, and tie resolution — is bitwise identical
// to ComputeAssignment on the same centers at any pool size. AssignOne
// is AssignRange on one row, and AssignTopM's slot 0 is bitwise the
// AssignOne result. A one-row flat scan under the expanded kernel scores
// every center in float first and re-ranks only the centers a certified
// bound keeps, with the engine's per-pair values and merge (ScreenedTopM
// in distance/batch.h), so its answer is the full scan's bit for bit. The
// pruned
// path PRESERVES all of this bitwise: per-pair engine values never
// depend on panel placement, the in-group permutation keeps ascending
// original order (so in-group strict-< ties resolve like the flat scan),
// cross-group winners merge lexicographically on (d², original index),
// and the skip test subtracts a conservative floating-point slack from
// the bound before comparing strictly — a skipped group's members are
// provably strictly farther than the running best, so neither values nor
// tie resolution can change. A tile (a single row included) whose own
// bounds cannot skip most groups is answered by the flat panels instead
// of the walk (see PrunedFindRange) — the flat scan is the same exact
// lexicographic minimum.

#ifndef KMEANSLL_SERVING_CENTER_INDEX_H_
#define KMEANSLL_SERVING_CENTER_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "clustering/types.h"
#include "common/result.h"
#include "data/model_io.h"
#include "distance/nearest.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"

namespace kmeansll::serving {

/// Build-time knobs for the two-level pruned index. The default is the
/// flat exact scan (pruning off); every knob is deterministic — two
/// builds from the same centers and options produce indexes that answer
/// every query identically.
struct CenterIndexOptions {
  /// Master switch for the two-level index. Off = flat panel scans.
  bool enable_pruning = false;
  /// Pruning below this k is overhead with nothing to win (the coarse
  /// pass alone costs ~√k of the flat scan); smaller center sets serve
  /// flat even when enable_pruning is set (counted as exact_fallbacks).
  int64_t min_prune_k = 512;
  /// Coarse group count; 0 picks ⌈√k⌉ (balances the g-distance coarse
  /// pass against the k/g-sized group scans).
  int64_t num_groups = 0;
};

/// Snapshot of the pruned-path effectiveness counters (wait-free relaxed
/// atomics, safe to read under concurrent traffic). Counters accumulate
/// over the snapshot's lifetime — a publish/swap starts fresh ones.
/// Invariant for pruned queries: groups_scanned + groups_pruned ==
/// queries × (non-empty group count); a row of a tile answered by the
/// flat panels counts as a pruned query that scanned every group.
struct PruneStats {
  int64_t queries = 0;          ///< queries answered via the pruned path
  int64_t groups_scanned = 0;   ///< groups that reached the engine
  int64_t groups_pruned = 0;    ///< groups skipped by the bounds
  int64_t exact_fallbacks = 0;  ///< queries served flat although pruning
                                ///< was requested (k < min_prune_k or
                                ///< coarse build unavailable)
};

class CenterIndex {
 public:
  /// Builds a snapshot from `centers` (copied/moved in; k >= 1, d >= 1).
  /// Packs the panels and computes the norms once, up front. `version`
  /// tags the snapshot (ModelServer bumps it per publish; it never
  /// affects results).
  static std::shared_ptr<const CenterIndex> Build(Matrix centers,
                                                  uint64_t version = 0);

  /// As above with explicit options; `pool` (may be null) parallelizes
  /// the coarse k-means of a pruned build — the resulting index is
  /// identical at any pool size.
  static std::shared_ptr<const CenterIndex> Build(
      Matrix centers, const CenterIndexOptions& options,
      uint64_t version = 0, ThreadPool* pool = nullptr);

  /// Builds from a loaded model artifact, adopting its metadata and
  /// REUSING its stored center norms: data::LoadModel has already proven
  /// them bitwise equal to the local RowSquaredNorms chain, so the build
  /// adopts them (re-asserted bitwise, see
  /// NearestCenterSearch::FreezeWithNorms) instead of recomputing. A
  /// FromModel index serves bitwise like a Build index over the same
  /// centers. Fails on an empty artifact.
  static Result<std::shared_ptr<const CenterIndex>> FromModel(
      const data::ModelArtifact& artifact, uint64_t version = 0);
  static Result<std::shared_ptr<const CenterIndex>> FromModel(
      const data::ModelArtifact& artifact,
      const CenterIndexOptions& options, uint64_t version = 0,
      ThreadPool* pool = nullptr);

  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(CenterIndex);

  int64_t k() const { return centers_.rows(); }
  int64_t dim() const { return centers_.cols(); }
  uint64_t version() const { return version_; }
  const Matrix& centers() const { return centers_; }
  /// Training provenance (empty for Build-from-Matrix snapshots).
  const data::ModelMetadata& metadata() const { return metadata_; }

  /// The options this snapshot was built with. ModelServer threads them
  /// through Refine/PublishFromFile so a pruned tenant stays pruned
  /// across hot swaps.
  const CenterIndexOptions& options() const { return options_; }
  /// True when the two-level index is live (enable_pruning, k >=
  /// min_prune_k, and the coarse build succeeded).
  bool pruned() const { return pruned_ != nullptr; }
  /// Coarse group count of the live pruned index (0 when not pruned).
  int64_t num_groups() const;
  /// Current prune-effectiveness counters (see PruneStats).
  PruneStats prune_stats() const;

  /// Nearest center for one point (`point` has dim() coordinates):
  /// AssignRange on one row — under the expanded kernel a flat row
  /// goes through the fp32 screen and its exact re-rank, with the panel
  /// engine's bits. Concurrent callers scan in parallel (the screen's
  /// scratch is per call); serving::RequestBatcher puts admission
  /// control in front of this call.
  NearestResult AssignOne(const double* point) const;

  /// Nearest center + squared distance for rows [rows.begin, rows.end)
  /// of a borrowed contiguous block. Output arrays
  /// are range-relative; `out_d2` may be null when only indices matter.
  void AssignRange(ConstMatrixView points, IndexRange rows,
                   int32_t* out_index, double* out_d2) const;

  /// Full-dataset assignment: bitwise identical to
  /// ComputeAssignment(data, centers(), pool, point_norms) — same
  /// reduction, same chunk grid, same Kahan fold — with the packing cost
  /// already paid at Build. `point_norms` (length data.n()) may be null.
  /// The pruned path preserves this bitwise (identical per-row d² feed
  /// the identical per-chunk Kahan chains).
  Assignment AssignBatch(const DatasetSource& data,
                         ThreadPool* pool = nullptr,
                         const double* point_norms = nullptr) const;
  Assignment AssignBatch(const Dataset& data, ThreadPool* pool = nullptr,
                         const double* point_norms = nullptr) const;

  /// The m nearest centers of one point, ascending by distance (exact
  /// ties: ascending center index). Writes min(m, k) entries and returns
  /// that count; slot 0 matches AssignOne bitwise. m >= 1.
  int64_t AssignTopM(const double* point, int64_t m,
                     std::vector<int32_t>* out_index,
                     std::vector<double>* out_d2) const;

  /// Batched top-m over a borrowed block: out_index/out_d2 hold m slots
  /// per row, row-major (see NearestCenterSearch::FindTopMRange; slots
  /// beyond k hold -1 / +infinity).
  void AssignTopMRange(ConstMatrixView points, IndexRange rows, int64_t m,
                       int32_t* out_index, double* out_d2) const;

 private:
  // The two-level index state: one permuted, group-contiguous packed
  // panel set plus the coarse search and per-group bounds. Immutable
  // after build (heap-allocated so the coarse NearestCenterSearch's
  // reference to coarse_centers stays stable).
  struct PrunedIndex {
    CenterPanels panels;          // permuted centers, group-contiguous
    std::vector<double> norms;    // permuted ||c||² (expanded kernel only)
    std::vector<int32_t> perm_to_orig;  // permuted row -> original row
    std::vector<int64_t> group_begin;   // g+1 offsets in permuted space
    std::vector<double> group_radius;   // R_j (unsquared / sqrt space)
    std::vector<int32_t> active_groups;  // non-empty groups, ascending
    Matrix coarse_centers;              // g × d
    std::unique_ptr<NearestCenterSearch> coarse;  // frozen
    BatchKernel kernel = BatchKernel::kAuto;
    double max_center_len = 0.0;  // slack scale, see PrunedScanRow
  };

  CenterIndex(Matrix centers, data::ModelMetadata metadata,
              CenterIndexOptions options,
              std::vector<double> validated_norms, uint64_t version,
              ThreadPool* pool);

  /// Runs the coarse k-means over the centers and assembles PrunedIndex;
  /// leaves pruned_ null (flat serving) if the coarse build fails.
  void BuildPruned(ThreadPool* pool);

  /// Pruned-path FindRange: per-row adaptive group scans, bitwise equal
  /// to the flat FindRange. Every tile first scans each row's
  /// nearest-coarse group; if more than half of the tile's row × group
  /// slots survive that best's bounds, the tile is answered by search_
  /// in one FindRange (a single row through the fp32 screen), otherwise
  /// the walk resumes from the seeded best.
  /// `point_norms` (range-relative, SquaredNorm chain) may be null.
  void PrunedFindRange(ConstMatrixView points, IndexRange rows,
                       const double* point_norms, int32_t* out_index,
                       double* out_d2) const;

  /// Pruned-path FindTopMRange (same slot semantics as the flat path).
  void PrunedFindTopMRange(ConstMatrixView points, IndexRange rows,
                           const double* point_norms, int64_t m,
                           int32_t* out_index, double* out_d2) const;

  const Matrix centers_;  // declared before search_: search_ borrows it
  const data::ModelMetadata metadata_;
  const CenterIndexOptions options_;
  const uint64_t version_;
  NearestCenterSearch search_;  // frozen in the constructor, never again
  std::unique_ptr<const PrunedIndex> pruned_;  // null = flat serving

  // Wait-free telemetry cells (the one mutable corner of an otherwise
  // immutable snapshot; same idiom as serving/telemetry.h). Relaxed is
  // enough: these are monotone counters, never synchronization.
  mutable std::atomic<int64_t> stat_queries_{0};
  mutable std::atomic<int64_t> stat_groups_scanned_{0};
  mutable std::atomic<int64_t> stat_groups_pruned_{0};
  mutable std::atomic<int64_t> stat_exact_fallbacks_{0};
};

/// Serving-side Predict: the facade spelling of AssignBatch. Lives here
/// (not core/kmeans.h) so the training facade never depends upward on
/// the serving layer; unqualified calls resolve via ADL on CenterIndex.
Assignment Predict(const CenterIndex& index, const Dataset& data);
Assignment Predict(const CenterIndex& index, const DatasetSource& data);

}  // namespace kmeansll::serving

#endif  // KMEANSLL_SERVING_CENTER_INDEX_H_
