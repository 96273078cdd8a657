// Blocked batch-distance engine: the shared O(n·k·d) kernel layer.
//
// Every hot path in the library — k-means|| round updates, k-means++
// seeding, Lloyd assignment, cost evaluation, minibatch, the Partition
// baseline's k-means#, the MapReduce map phases and serving — reduces to
// the same scan: "for a block of points and a block of centers, compute
// each point's distances and reduce them". This header provides that scan
// once, tiled for cache reuse and register-blocked for ILP, instead of
// the one-point × one-center loops each call site used to carry. Three
// reductions share one loop nest and one set of micro-kernels: nearest
// (argmin merge), top-m (serving's AssignTopM), and store-all (the
// pruned index's coarse-group scan).
//
// Design (see docs/ARCHITECTURE.md and README.md "Distance engine" for
// the full rationale):
//  * Norm-expanded arithmetic: ||x - c||² = ||x||² + ||c||² - 2·x·c with
//    precomputed row norms turns the inner loop into dot products — one
//    load per operand instead of load+subtract — at the price of
//    catastrophic cancellation for near-identical points, so results are
//    clamped at zero (SquaredL2Expanded). A plain tiled kernel remains
//    for small dimensions where the expansion does not pay.
//  * Two-level blocking: every kCenterTile center rows are packed into a
//    t-major panel that is revisited for each point in a kPointTile row
//    block, so panels stay L1-resident while points stream through
//    exactly once per panel. Panels can be packed once and reused across
//    calls (CenterPanels) — the packing cost matters when callers scan
//    few rows per call (minibatch batches, the per-chunk ranges of a
//    parallel pass).
//  * Register micro-kernel: kMicroPoints points × one panel of
//    kCenterTile centers are accumulated simultaneously in independent
//    chains (explicit AVX2+FMA on capable x86-64, selected once at
//    startup; portable scalar otherwise), giving the FMA units enough
//    ILP to run at throughput instead of latency. On AVX-512 machines the
//    nearest merges score blocks of 8 rows per panel step and keep each
//    lane's running argmin in registers across panels, with the same
//    per-pair values (see BatchKernelIsa).
//
// Determinism contract: each (point, center) distance is accumulated in a
// single chain in coordinate order, identical in the micro-kernel and in
// the edge/tail paths, and center blocks are visited in ascending index
// order with strict-< argmin updates. A point's result therefore depends
// only on its own row and the center set — never on tile placement or
// thread count — so parallel callers chunking by kDeterministicChunks get
// bitwise-identical outputs at any parallelism. PairSquaredL2 and
// PairDotProduct reproduce that per-pair chain (including the FMA
// contraction of the AVX2 kernels) one pair at a time, so the scalar
// reference search (NearestCenterSearch::Find) stays bitwise-consistent
// with the engine.

#ifndef KMEANSLL_DISTANCE_BATCH_H_
#define KMEANSLL_DISTANCE_BATCH_H_

#include <cstdint>
#include <vector>

#include "matrix/matrix.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

// --- Tiling constants (fixed: results must not depend on tuning) -----------
//
// kCenterTile is the packed-panel width: each block of 16 center rows is
// transposed into a t-major panel so the innermost step updates 16
// contiguous per-center accumulators. At 4 doubles per AVX2 register
// that is 4 accumulator vectors per point; the micro-kernel processes
// kMicroPoints = 2 point rows at once, giving 8 independent FMA chains —
// enough to hide the ~4-cycle FMA latency at 2 ops/cycle — while the
// live set (8 accumulators + 4 panel loads + 2 broadcasts) stays within
// the 16 SIMD registers of x86-64 without spilling.
//
// kPointTile bounds the rows streamed per panel visit: one panel
// (kCenterTile · d doubles, 16 KiB at d = 128) stays L1-resident across
// the whole point tile, and each point tile re-reads panels from L2 at
// worst. Larger point tiles stopped helping in bench/bm_batch_distance;
// larger panels double the merge state without speeding up the dot loop.
inline constexpr int64_t kPointTile = 64;
inline constexpr int64_t kCenterTile = 16;
inline constexpr int64_t kMicroPoints = 2;

// Dimension at which the norm-expanded kernels overtake the plain
// subtract-square kernels (shared by the batch engine and
// NearestCenterSearch::Kernel::kAuto). Measured with
// bench/bm_batch_distance (4096 points, k ∈ {64, 256}) on the build
// machine: blocked-plain wins up to d = 24 (the per-center norm
// bookkeeping in the merge step outweighs the saved subtractions when the
// dot loop is short), the two are within noise for d ∈ [32, 48], and
// expanded pulls ahead from d = 64 (91 vs 79 Mpairs/s at d = 128).
// Expanded is preferred at the tie because its callers additionally reuse
// cached point norms across k-means|| rounds, which this microbenchmark
// does not credit.
inline constexpr int64_t kExpandedKernelMinDim = 32;

/// Kernel selection for the batch engine. kAuto picks expanded when
/// cols >= kExpandedKernelMinDim.
enum class BatchKernel { kAuto, kPlain, kExpanded };

/// Center rows packed into the engine's t-major panel layout, reusable
/// across scans while the packed centers are unchanged.
///
/// Packing is O(k·d) — trivial next to one n·k·d scan, but a scan that
/// covers only a small row range pays it in full, and a chunked parallel
/// pass used to pay it once per chunk (~kDeterministicChunks times per
/// pass). Callers with a frozen center set (Lloyd assignment, minibatch)
/// pack once and hand the panels to every FindRange-style call;
/// NearestCenterSearch::Freeze wraps exactly that.
///
/// Panels hold bitwise copies of the center coordinates, so scanning via
/// packed panels is bitwise identical to scanning the source matrix.
/// The panels do NOT track the source matrix: mutating or destroying the
/// packed rows leaves the panels stale, and it is the caller's job to
/// Pack() again (see NearestCenterSearch::Freeze on invalidation).
class CenterPanels {
 public:
  CenterPanels() = default;

  /// Packs rows [first_center, centers.rows()) of `centers`. Full panels
  /// use stride kCenterTile; the final residue panel (k mod kCenterTile
  /// rows) is packed at its own width so small-k callers pay exact flops.
  /// Repacking an already-packed object replaces its contents and drops
  /// the fp32 copy (see PackScreen).
  void Pack(const Matrix& centers, int64_t first_center = 0);

  /// Adds the fp32 copy of the packed panels that the one-row screen
  /// (ScreenedTopM) scores against: one linear conversion of data(), in
  /// the same layout, k·d·4 bytes. Stays empty where the screen cannot
  /// certify this set: a CPU without AVX2+FMA, or a packed coordinate
  /// that is neither 0 nor of magnitude in [2^-50, 2^50].
  void PackScreen();

  /// Returns to the empty (unpacked) state.
  void Clear();

  /// True when nothing is packed (also the state after Clear()).
  bool empty() const { return num_centers_ == 0; }

  /// Number of packed center rows.
  int64_t num_centers() const { return num_centers_; }
  /// Coordinate count of each packed row.
  int64_t dim() const { return dim_; }
  /// Row index (in the source matrix) of the first packed center; merged
  /// argmin indices are absolute, i.e. offset by this.
  int64_t first_center() const { return first_center_; }

  /// Raw panel storage (layout documented in Pack); kernel use only.
  const double* data() const { return packed_.data(); }

  /// True while the fp32 copy is present (see PackScreen).
  bool has_screen() const { return !screen_.empty(); }
  /// The fp32 copy (layout of data()); kernel use only.
  const float* screen_data() const { return screen_.data(); }

 private:
  std::vector<double> packed_;
  std::vector<float> screen_;  // fp32 copy of packed_, or empty
  int64_t num_centers_ = 0;
  int64_t dim_ = 0;
  int64_t first_center_ = 0;
};

/// Merges "nearest of centers rows [first_center, centers.rows())" into
/// (best_d2, best_index) for every point row in [rows.begin, rows.end).
///
/// Output/input arrays are indexed relative to the range: entry
/// i - rows.begin describes point row i. Callers start a fresh query by
/// pre-filling best_d2 with +infinity (and best_index with -1); passing
/// arrays that already hold a previous scan's results performs the
/// incremental min-merge that MinDistanceTracker relies on. best_index
/// receives absolute center row indices; distance-only callers may pass
/// null to skip the argmin bookkeeping. Ties keep the existing value
/// (strict-< update), matching a sequential ascending scan.
///
/// `point_norms` (entry i - rows.begin = ||row i||²) and `center_norms`
/// (entry c - first_center = ||center c||²) are only read by the expanded
/// kernel and may be null, in which case they are computed internally
/// with SquaredNorm (so provided and internally-computed norms are
/// bitwise interchangeable).
///
/// Packs the centers on every call; callers that reuse a frozen center
/// set should pack once into CenterPanels and use the overload below.
void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms, const Matrix& centers,
                       int64_t first_center, const double* center_norms,
                       BatchKernel kernel, double* best_d2,
                       int32_t* best_index);

/// As above, but scanning pre-packed panels. Bitwise identical to the
/// matrix overload for the same centers and kernel.
///
/// Preconditions: panels.dim() == points.cols(); when the resolved
/// kernel is expanded, `center_norms` must be non-null (entry c =
/// ||panel center c||², i.e. indexed relative to panels.first_center()) —
/// panels store coordinates t-major, so norms cannot be recomputed here
/// with the caller-visible SquaredNorm chain.
void BatchNearestMerge(ConstMatrixView points, IndexRange rows,
                       const double* point_norms,
                       const CenterPanels& panels,
                       const double* center_norms, BatchKernel kernel,
                       double* best_d2, int32_t* best_index);

/// Panel-subset variant of the panels overload: merges only packed
/// centers [centers.begin, centers.end) (packed-relative, i.e. offsets
/// into panels.num_centers()) instead of the whole packed set. This is
/// the pruned-index primitive (serving/center_index.h): a two-level
/// index keeps ONE packed panel set whose rows are grouped contiguously
/// and scans only the groups its bounds could not eliminate.
///
/// Panels that straddle the subset boundary are computed at full panel
/// width and clipped at the merge — bitwise-free under the engine
/// contract, since a (point, center) value never depends on which other
/// centers share its panel. Merge semantics, tie resolution, norm
/// indexing (packed-relative), and the absolute best_index values are
/// exactly the full-set overload's; scanning {0, panels.num_centers()}
/// is bitwise the full scan.
void BatchNearestMergeSubset(ConstMatrixView points, IndexRange rows,
                             const double* point_norms,
                             const CenterPanels& panels,
                             const double* center_norms, BatchKernel kernel,
                             IndexRange centers, double* best_d2,
                             int32_t* best_index);

/// Small-m top-m merge over pre-packed panels: for every point row in
/// [rows.begin, rows.end) writes its m nearest packed centers in
/// ascending distance order — out_index[(i - rows.begin) · m + s] is the
/// absolute index of the (s+1)-th nearest center and out_d2[...] its
/// squared distance. Output arrays are range-relative and need no
/// initialization; when m > panels.num_centers() the unused trailing
/// slots hold index -1 and distance +infinity.
///
/// Merge semantics extend the engine's argmin contract to m slots:
/// centers are visited in ascending index order and inserted with
/// strict-< comparisons, so among exactly-tied distances the
/// lowest-index center sorts first and slot 0 is bitwise the
/// BatchNearestMerge result (value and argmin). The per-center insertion
/// is O(m) — this is the serving-layer primitive ("give me the m best
/// clusters for this query"), meant for small m, not a full sort
/// (m == k degenerates to insertion sort; use BatchDistances + sort
/// instead). Same kernel/norm preconditions as the panels overload of
/// BatchNearestMerge.
void BatchTopM(ConstMatrixView points, IndexRange rows,
               const double* point_norms, const CenterPanels& panels,
               const double* center_norms, BatchKernel kernel, int64_t m,
               int32_t* out_index, double* out_d2);

/// Panel-subset variant of BatchTopM: the m nearest among packed centers
/// [centers.begin, centers.end) only (packed-relative), with the same
/// initialization, slot, and tie semantics — slot 0 is bitwise the
/// BatchNearestMergeSubset result over the same subset, and trailing
/// slots beyond the subset size hold -1 / +infinity. See
/// BatchNearestMergeSubset for the boundary-panel clipping rationale.
void BatchTopMSubset(ConstMatrixView points, IndexRange rows,
                     const double* point_norms, const CenterPanels& panels,
                     const double* center_norms, BatchKernel kernel,
                     IndexRange centers, int64_t m, int32_t* out_index,
                     double* out_d2);

/// One-row top-m through the fp32 screen: writes exactly the m slots that
/// BatchTopM writes for the row `x` over `panels` (slot 0 is bitwise the
/// BatchNearestMerge result), from half the bytes. Every center is scored
/// in float against panels' fp32 copy (PackScreen), and a certified bound
/// on the gap between that score and the engine's double value (derived
/// at ScreenKappa in batch.cc) keeps only the centers that could still be
/// among the m nearest. Those are re-ranked in ascending index with the
/// engine's per-pair values and BatchTopM's strict-< merge.
///
/// `point_norm` (null computes it with SquaredNorm) and `center_norms`
/// (packed-relative) are the expanded kernel's norms; the result is the
/// expanded kernel's. Returns false, leaving the outputs untouched, when
/// the row must take the engine scan instead: panels without an fp32
/// copy, a coordinate of `x` outside the certified range, or more
/// surviving centers than re-ranking one pair at a time can beat the
/// scan on (m > k/16 included). Safe to call concurrently: the scratch
/// is per call.
bool ScreenedTopM(const double* x, const double* point_norm,
                  const CenterPanels& panels, const double* center_norms,
                  int64_t m, int32_t* out_index, double* out_d2);

/// Dense distance rows over pre-packed panels: out_d2[(i - rows.begin) ·
/// panels.num_centers() + c] = ||points row i − packed center c||² for
/// every point row in the range and every packed center. The values are
/// the engine's (expanded results clamped at zero), bitwise identical to
/// what the merge entry points reduce over. The pruned index
/// (serving/center_index.h) bounds its groups with these coarse-center
/// distances. Same kernel/norm preconditions as the panels overload of
/// BatchNearestMerge.
void BatchDistances(ConstMatrixView points, IndexRange rows,
                    const double* point_norms, const CenterPanels& panels,
                    const double* center_norms, BatchKernel kernel,
                    double* out_d2);

/// Single-pair ||a − b||² evaluated with the engine's plain-kernel
/// accumulation chain: one accumulator, coordinate order, fused
/// multiply-add on machines where the AVX2+FMA micro-kernels are
/// dispatched. Bitwise identical to the plain batch kernels' per-pair
/// values — unlike SquaredL2 (distance/l2.h), whose 4-way unrolled chains
/// differ in final ulps. Use this (not SquaredL2) wherever a single
/// distance must agree exactly with a batched scan, e.g. the scalar
/// reference search NearestCenterSearch::Find.
double PairSquaredL2(const double* a, const double* b, int64_t dim);

/// Single-pair dot product with the engine's expanded-kernel chain (see
/// PairSquaredL2). SquaredL2Expanded(||a||², ||b||², PairDotProduct(a, b,
/// d)) reproduces the expanded batch kernels' per-pair value bitwise,
/// provided the norms come from SquaredNorm/RowSquaredNorms like the
/// engine's.
double PairDotProduct(const double* a, const double* b, int64_t dim);

/// Matrix conveniences: the engine scans any contiguous row-major block
/// (ConstMatrixView) so memory-mapped shard views and owned matrices take
/// the same path; these shims keep Matrix call sites terse.
inline void BatchNearestMerge(const Matrix& points, IndexRange rows,
                              const double* point_norms,
                              const Matrix& centers, int64_t first_center,
                              const double* center_norms, BatchKernel kernel,
                              double* best_d2, int32_t* best_index) {
  BatchNearestMerge(points.view(), rows, point_norms, centers, first_center,
                    center_norms, kernel, best_d2, best_index);
}
inline void BatchNearestMerge(const Matrix& points, IndexRange rows,
                              const double* point_norms,
                              const CenterPanels& panels,
                              const double* center_norms, BatchKernel kernel,
                              double* best_d2, int32_t* best_index) {
  BatchNearestMerge(points.view(), rows, point_norms, panels, center_norms,
                    kernel, best_d2, best_index);
}
inline void BatchDistances(const Matrix& points, IndexRange rows,
                           const double* point_norms,
                           const CenterPanels& panels,
                           const double* center_norms, BatchKernel kernel,
                           double* out_d2) {
  BatchDistances(points.view(), rows, point_norms, panels, center_norms,
                 kernel, out_d2);
}
inline void BatchTopM(const Matrix& points, IndexRange rows,
                      const double* point_norms, const CenterPanels& panels,
                      const double* center_norms, BatchKernel kernel,
                      int64_t m, int32_t* out_index, double* out_d2) {
  BatchTopM(points.view(), rows, point_norms, panels, center_norms, kernel,
            m, out_index, out_d2);
}

/// The instruction set the engine's kernels were dispatched to, chosen
/// once per process from the CPU: "avx512" (AVX-512F blocks for the
/// nearest merges, AVX2+FMA panels elsewhere), "avx2" (AVX2+FMA panels),
/// or "scalar" (portable kernels). "avx512" and "avx2" give identical
/// bits; only "scalar", which has no FMA, differs.
const char* BatchKernelIsa();

/// Resolves kAuto against the dimension: expanded iff
/// dim >= kExpandedKernelMinDim. All engine entry points and
/// NearestCenterSearch share this rule.
inline bool ResolveExpandedKernel(BatchKernel kernel, int64_t dim) {
  return kernel == BatchKernel::kExpanded ||
         (kernel == BatchKernel::kAuto && dim >= kExpandedKernelMinDim);
}

}  // namespace kmeansll

#endif  // KMEANSLL_DISTANCE_BATCH_H_
