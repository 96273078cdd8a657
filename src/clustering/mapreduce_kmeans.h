// MapReduce realizations of the paper's algorithms (§3.5).
//
// Each primitive is one MapReduce job over dataset partitions:
//   * cost:    mappers emit partial φ, one reducer sums — "each mapper
//              working on a partition X' can compute φ_X'(C) and the
//              reducer can simply add these values".
//   * sample:  map-only D² selection per partition (Step 4 "each mapper
//              can sample independently").
//   * weights: mappers emit (closest candidate, weight), combiner +
//              reducer sum (Step 7).
//   * Lloyd:   mappers emit (center, (Σwx, Σw)) with a combiner; the
//              reducers produce the new centroids.
//
// Drivers chain these jobs into the full k-means|| initialization and
// Lloyd's iteration. All randomness is hashed per (seed, round, point), so
// outputs are independent of the partition count up to floating-point
// summation order.

#ifndef KMEANSLL_CLUSTERING_MAPREDUCE_KMEANS_H_
#define KMEANSLL_CLUSTERING_MAPREDUCE_KMEANS_H_

#include <cstdint>

#include "clustering/init_kmeansll.h"
#include "clustering/init_partition.h"
#include "clustering/lloyd.h"
#include "clustering/types.h"
#include "common/result.h"
#include "mapreduce/counters.h"
#include "mapreduce/partition.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {

/// Execution context for the MapReduce drivers.
struct MRContext {
  /// Input splits per job (the "number of mappers").
  int64_t num_partitions = 8;
  /// Worker pool executing map tasks (null = inline).
  ThreadPool* pool = nullptr;
  /// Job counters (optional).
  mapreduce::Counters* counters = nullptr;
  /// Task-attempt budget per map task (see Job::WithTaskAttempts): a
  /// transient task failure is retried up to this many times before the
  /// driver returns its error as a Status. Retried runs are bitwise
  /// identical to fault-free runs (folds stay task-index-ordered).
  int max_task_attempts = 3;
};

/// φ_X(C) computed as one MapReduce job.
///
/// Every driver below has a DatasetSource overload — the primary
/// implementation: map tasks scan partitions as pinned row-block views,
/// so a partition of a data::ShardedDataset is a shard reference (the
/// task pins the mmap while it scans) instead of a copied sub-dataset.
/// The Dataset overloads wrap the data in an InMemorySource and
/// delegate.
///
/// Every driver is fault-aware: map-task failures are retried under
/// ctx.max_task_attempts and a task that exhausts its budget (or a
/// source that degraded — see DatasetSource::status()) surfaces as the
/// driver's error Status instead of aborting the process.
Result<double> MRComputeCost(const DatasetSource& data,
                             const Matrix& centers, const MRContext& ctx);
Result<double> MRComputeCost(const Dataset& data, const Matrix& centers,
                             const MRContext& ctx);

/// k-means|| (Algorithm 2) with every data-wide step expressed as a
/// MapReduce job; the reclustering of the small candidate set runs on
/// "a single machine" exactly as §3.5 prescribes.
Result<InitResult> MRKMeansLLInit(const DatasetSource& data, int64_t k,
                                  rng::Rng rng,
                                  const KMeansLLOptions& options,
                                  const MRContext& ctx);
Result<InitResult> MRKMeansLLInit(const Dataset& data, int64_t k,
                                  rng::Rng rng,
                                  const KMeansLLOptions& options,
                                  const MRContext& ctx);

/// Lloyd's iteration, one job per iteration.
Result<LloydResult> MRRunLloyd(const DatasetSource& data,
                               const Matrix& initial_centers,
                               const LloydOptions& options,
                               const MRContext& ctx);
Result<LloydResult> MRRunLloyd(const Dataset& data,
                               const Matrix& initial_centers,
                               const LloydOptions& options,
                               const MRContext& ctx);

/// Random initialization as one map-only job: every point gets the hashed
/// key Mix64(seed, index) and the k smallest keys win — an exactly
/// uniform without-replacement sample whose outcome is independent of the
/// partitioning (each mapper only forwards its local top-k).
Result<InitResult> MRRandomInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng, const MRContext& ctx);
Result<InitResult> MRRandomInit(const Dataset& data, int64_t k,
                                rng::Rng rng, const MRContext& ctx);

/// The Partition baseline on the engine: each input split is one of the
/// algorithm's m groups (a map task runs k-means# plus the group-local
/// weighting), and the reducer hands the weighted union to the
/// sequential reclustering — the two-round structure of §4.2.1. Note
/// that ctx.num_partitions doubles as the algorithm parameter m here;
/// pass options.num_groups <= 0 to accept that.
Result<InitResult> MRPartitionInit(const DatasetSource& data, int64_t k,
                                   rng::Rng rng,
                                   const PartitionOptions& options,
                                   const MRContext& ctx);
Result<InitResult> MRPartitionInit(const Dataset& data, int64_t k,
                                   rng::Rng rng,
                                   const PartitionOptions& options,
                                   const MRContext& ctx);

}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_MAPREDUCE_KMEANS_H_
