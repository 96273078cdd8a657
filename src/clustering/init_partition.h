// The Partition baseline (paper §4.2.1): the one-pass streaming algorithm
// of Ailon, Jaiswal & Monteleoni (NIPS 2009), built on k-means#.
//
// The input is divided into m equal-sized groups. Each group runs
// k-means#: an over-seeded k-means++ variant that selects 3·ln k points in
// each of k iterations (first batch uniform, later batches D²-weighted).
// Every selected center is weighted by the group points it attracts, and
// k-means||'s Step 8 with default KMeansLLOptions reclusters the union of
// the ~3·m·k·ln k centers down to k: weighted k-means++, then 30 weighted
// Lloyd iterations.
//
// With the memory/time-optimal m = sqrt(n/k), the intermediate set has
// expected size 3·sqrt(nk)·ln k — orders of magnitude larger than
// k-means||'s r·ℓ, which is exactly the effect Table 5 measures.

#ifndef KMEANSLL_CLUSTERING_INIT_PARTITION_H_
#define KMEANSLL_CLUSTERING_INIT_PARTITION_H_

#include <cstdint>

#include "clustering/init_kmeanspp.h"
#include "clustering/types.h"
#include "common/result.h"
#include "matrix/dataset.h"
#include "rng/rng.h"

namespace kmeansll {

/// Options for the Partition baseline.
struct PartitionOptions {
  /// Number of groups m; <= 0 selects the paper's optimum round(sqrt(n/k))
  /// (at least 1).
  int64_t num_groups = 0;
  /// Batch size per k-means# iteration; <= 0 selects ceil(3·ln k).
  int64_t batch_size = 0;
  /// k-means# iterations per group; <= 0 selects k.
  int64_t iterations = 0;
};

/// Runs the Partition initializer. Fails if k <= 0 or k > n.
Result<InitResult> PartitionInit(const Dataset& data, int64_t k,
                                 rng::Rng rng,
                                 const PartitionOptions& options = {});

/// As above over a DatasetSource: each group's k-means# pass and
/// weighting scan stream pinned row blocks, so the baseline, too, runs
/// over disk-resident shard stores.
Result<InitResult> PartitionInit(const DatasetSource& data, int64_t k,
                                 rng::Rng rng,
                                 const PartitionOptions& options = {});

namespace internal {

/// Runs k-means# on rows [begin, end) of `data`; returns selected row
/// indices (global). Exposed for unit tests.
std::vector<int64_t> KMeansSharp(const DatasetSource& data, int64_t begin,
                                 int64_t end, int64_t batch,
                                 int64_t iterations, rng::Rng rng);

}  // namespace internal
}  // namespace kmeansll

#endif  // KMEANSLL_CLUSTERING_INIT_PARTITION_H_
