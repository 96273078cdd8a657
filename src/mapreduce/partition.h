// Input splits for MapReduce jobs over a dataset: each partition is a
// contiguous row range of the (logically distributed) point set, the
// in-memory analog of an HDFS block.
//
// A partition references a DatasetSource rather than holding rows: over
// an in-memory dataset it is a row-range view, and over a
// data::ShardedDataset the map task pins the shards its rows lie in, one
// at a time, while it scans, so partitioning never copies points.

#ifndef KMEANSLL_MAPREDUCE_PARTITION_H_
#define KMEANSLL_MAPREDUCE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "matrix/dataset_view.h"

namespace kmeansll::mapreduce {

/// One map task's slice of the dataset.
struct DataPartition {
  const DatasetSource* source = nullptr;  ///< not owned
  int64_t begin = 0;                      ///< first row (inclusive)
  int64_t end = 0;                        ///< last row (exclusive)

  int64_t size() const { return end - begin; }
};

/// Splits `source` into `num_partitions` near-equal contiguous
/// partitions (the same split Dataset::SplitRanges produces).
inline std::vector<DataPartition> MakePartitions(const DatasetSource& source,
                                                 int64_t num_partitions) {
  KMEANSLL_CHECK_GE(num_partitions, 1);
  std::vector<DataPartition> parts;
  parts.reserve(static_cast<size_t>(num_partitions));
  const int64_t total = source.n();
  const int64_t base = total / num_partitions;
  const int64_t extra = total % num_partitions;
  int64_t begin = 0;
  for (int64_t p = 0; p < num_partitions; ++p) {
    int64_t len = base + (p < extra ? 1 : 0);
    parts.push_back(DataPartition{&source, begin, begin + len});
    begin += len;
  }
  return parts;
}

}  // namespace kmeansll::mapreduce

#endif  // KMEANSLL_MAPREDUCE_PARTITION_H_
