// k-means|| initialization — Algorithm 2 of the paper, the central
// contribution of "Scalable K-Means++" (Bahmani et al., VLDB 2012).
//
// Instead of k strictly sequential D² draws (k-means++), k-means|| runs r
// rounds; each round samples ~ℓ points simultaneously with probability
// p_x = ℓ·d²(x, C)/φ_X(C), then the O(ℓ·r) chosen candidates are weighted
// by the number of points they attract and reclustered down to k with
// weighted k-means++ (Steps 7–8).
//
// Two sampling modes (paper §5.3):
//  * Bernoulli (Algorithm 2 as stated): each point tossed independently,
//    E[#chosen per round] = ℓ.
//  * Exact-ℓ: exactly ℓ points drawn from the joint D² distribution per
//    round (used for the Figure 5.1 variance-controlled sweeps). We
//    realize it with an Efraimidis–Spirakis weighted reservoir, which is
//    one-pass and partition-mergeable.
//
// Per-point randomness is derived by hashing (seed, round, point index),
// so results are identical for any thread/partition count.

#ifndef KMEANSLL_CLUSTERING_INIT_KMEANSLL_H_
#define KMEANSLL_CLUSTERING_INIT_KMEANSLL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "clustering/init_kmeanspp.h"
#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {

/// How Step 8 reduces the candidate set to k centers.
enum class ReclusterMethod {
  /// Weighted k-means++ seeding only — the paper's choice ("we use
  /// k-means++ for reclustering in Step 8").
  kWeightedKMeansPP,
  /// Weighted k-means++ followed by 30 iterations of weighted Lloyd
  /// refinement on the coreset (the Spark MLlib practice); never hurts,
  /// costs O(coreset·k) per iteration.
  kWeightedKMeansPPPlusLloyd,
};

/// Options for k-means||.
struct KMeansLLOptions {
  /// Oversampling factor ℓ. The paper recommends Θ(k) and evaluates
  /// ℓ/k ∈ {0.1, 0.5, 1, 2, 10}; <= 0 selects the default 2k.
  double oversampling = -1.0;
  /// Number of sampling rounds r. The analysis uses O(log ψ); §5
  /// shows r = 5 suffices in practice (the default). Use
  /// kAutoRounds for the ⌈ln ψ⌉ theoretical schedule.
  int64_t rounds = 5;
  /// Sentinel for `rounds`: run ⌈ln ψ⌉ rounds (capped at 40).
  static constexpr int64_t kAutoRounds = -1;
  /// Exact-ℓ joint sampling instead of independent Bernoulli tosses.
  bool exact_ell = false;
  /// Step 8 reduction method. The default refines the weighted k-means++
  /// seed with weighted Lloyd on the coreset: this is what reproduces the
  /// paper's observation that k-means|| seed costs are *lower* than
  /// k-means++ (Tables 1–2), and matches the Spark MLlib realization.
  ReclusterMethod recluster = ReclusterMethod::kWeightedKMeansPPPlusLloyd;
  /// When non-empty, the sampling loop writes a KMLLCKPT seeding
  /// checkpoint (candidate set + round potentials — see
  /// data/checkpoint_io.h) atomically at this path every
  /// `checkpoint_every` rounds, and a run finding a valid checkpoint for
  /// the same job resumes the remaining rounds bitwise-identically (the
  /// distance tracker is rebuilt by replaying the stored candidates).
  /// Stale or corrupt checkpoints are ignored; the file is removed when
  /// seeding completes.
  std::string checkpoint_path;
  /// Rounds between checkpoint saves (values < 1 behave as 1).
  int64_t checkpoint_every = 1;
};

/// Runs k-means|| (Algorithm 2). Fails if k <= 0, k > n, or the options
/// are inconsistent. `pool` (may be null) parallelizes the per-round
/// distance scans through the batch engine; the deterministic chunking
/// keeps results bitwise identical at any thread count. `point_norms`
/// (may be null) is RowSquaredNorms of the data, which the round updates
/// read under the expanded kernel; null computes them in one more pass,
/// with bitwise the same result.
///
/// If after r rounds fewer than k candidates were selected (possible when
/// r·ℓ < k; see Figures 5.2/5.3), the candidate set is returned as-is
/// without reclustering — downstream Lloyd then runs with < k centers,
/// reproducing the degraded-quality regime the paper reports.
Result<InitResult> KMeansLLInit(const Dataset& data, int64_t k,
                                rng::Rng rng,
                                const KMeansLLOptions& options = {},
                                ThreadPool* pool = nullptr,
                                const double* point_norms = nullptr);

/// As above over a DatasetSource: every data-wide pass (round updates,
/// sampling scans, the Step 7 weighting) streams pinned row blocks. This
/// is the paper's intended regime — k-means|| over partitioned,
/// disk-resident data — and produces bitwise-identical centers to the
/// in-memory overload for the same rows (tests/shard_store_test.cc).
Result<InitResult> KMeansLLInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng,
                                const KMeansLLOptions& options = {},
                                ThreadPool* pool = nullptr,
                                const double* point_norms = nullptr);

namespace internal {

/// Resolves ℓ (<=0 -> 2k) and validates; exposed for the MapReduce driver.
Result<double> ResolveOversampling(double oversampling, int64_t k);

/// Resolves the round count, applying the kAutoRounds schedule given the
/// initial potential ψ.
int64_t ResolveRounds(int64_t rounds, double psi);

/// Output of Steps 1–7: the oversampled candidates and their weights.
struct OversampledCandidates {
  /// Data rows in selection order: the Step-1 point, then each round's
  /// picks in ascending row order.
  Matrix candidates;
  /// Step 7: weights[c] is the total weight of the points whose closest
  /// candidate is c, so the weights partition the data's total weight.
  /// With `candidates` this is the weighted set Step 8 reclusters, a
  /// small stand-in for the data (Theorem 1).
  std::vector<double> weights;
  /// Everything KMeansLLInit reports except recluster_seconds.
  InitTelemetry telemetry;
};

/// Steps 1–7 of Algorithm 2, with the seeding checkpoint and resume of
/// KMeansLLOptions::checkpoint_path: KMeansLLInit is argument checks,
/// this routine, then Step 8. Expects 1 <= k <= data.n() and rounds >= 0
/// or kAutoRounds (KMeansLLInit checks both). `pool` and `point_norms`
/// are as for KMeansLLInit; the output is bitwise the same at any pool
/// size and for any source over the same rows.
Result<OversampledCandidates> OversampleCandidates(
    const DatasetSource& data, int64_t k, rng::Rng rng,
    const KMeansLLOptions& options, ThreadPool* pool = nullptr,
    const double* point_norms = nullptr);

/// Step 8: weight the candidates and recluster to k centers. `weights`
/// holds, for each candidate, the total point weight attracted to it.
Result<Matrix> ReclusterCandidates(const Matrix& candidates,
                                   const std::vector<double>& weights,
                                   int64_t k, rng::Rng rng,
                                   const KMeansLLOptions& options,
                                   InitTelemetry* telemetry);

}  // namespace internal
}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_INIT_KMEANSLL_H_
