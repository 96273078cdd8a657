// Input splits for MapReduce jobs over a dataset: each partition is a
// contiguous row range of the (logically distributed) point set, the
// in-memory analog of an HDFS block.
//
// A partition references a DatasetSource rather than holding rows: over
// an in-memory dataset it is a row-range view, and over a
// data::ShardedDataset it is effectively a shard reference — the map
// task pins the shard's mmap while it scans and releases it after, so
// partitioning never copies points.

#ifndef KMEANSLL_MAPREDUCE_PARTITION_H_
#define KMEANSLL_MAPREDUCE_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
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

/// Partitions aligned to a list of natural block boundaries (one
/// partition per [begin, end) range — e.g. the shard table of a
/// ShardedDataset), so each map task scans exactly one resident block.
inline std::vector<DataPartition> MakeAlignedPartitions(
    const DatasetSource& source,
    const std::vector<std::pair<int64_t, int64_t>>& ranges) {
  std::vector<DataPartition> parts;
  parts.reserve(ranges.size());
  for (const auto& [begin, end] : ranges) {
    parts.push_back(DataPartition{&source, begin, end});
  }
  return parts;
}

/// Exactly `num_partitions` partitions whose boundaries align with the
/// source's residency units even when the two counts differ: with fewer
/// partitions than shards each partition is a contiguous group of whole
/// shards; with more, shards are subdivided so no partition straddles a
/// shard boundary. Either way a map task's scan pins the minimum set of
/// shards and never shares a boundary shard with its neighbor. Falls
/// back to MakePartitions over uniformly resident sources.
///
/// Balance note: shards are distributed by count, not row count — exact
/// for the near-equal shards WriteShards/ShardWriter produce. Note that
/// per-task partial sums fold over different row groupings than
/// MakePartitions', so MR reductions over aligned partitions are
/// bitwise-comparable only to runs using the same partitioning (the
/// drivers default to MakePartitions for cross-source reproducibility).
inline std::vector<DataPartition> MakeAlignedPartitions(
    const DatasetSource& source, int64_t num_partitions) {
  KMEANSLL_CHECK_GE(num_partitions, 1);
  const std::vector<std::pair<int64_t, int64_t>> ranges =
      source.ResidencyRanges();
  const auto num_shards = static_cast<int64_t>(ranges.size());
  if (num_shards == 0) return MakePartitions(source, num_partitions);
  std::vector<DataPartition> parts;
  parts.reserve(static_cast<size_t>(num_partitions));
  if (num_partitions <= num_shards) {
    // Contiguous shard groups: shard s belongs to partition s·P/S.
    int64_t s = 0;
    for (int64_t p = 0; p < num_partitions; ++p) {
      const int64_t begin = ranges[static_cast<size_t>(s)].first;
      int64_t end = begin;
      while (s < num_shards && s * num_partitions / num_shards == p) {
        end = ranges[static_cast<size_t>(s)].second;
        ++s;
      }
      parts.push_back(DataPartition{&source, begin, end});
    }
    return parts;
  }
  // More partitions than shards: split every shard into its own
  // near-equal sub-ranges; the first P mod S shards carry one extra.
  const int64_t base = num_partitions / num_shards;
  const int64_t extra = num_partitions % num_shards;
  for (int64_t s = 0; s < num_shards; ++s) {
    const auto& [begin, end] = ranges[static_cast<size_t>(s)];
    const int64_t pieces = base + (s < extra ? 1 : 0);
    const int64_t rows = end - begin;
    for (int64_t q = 0; q < pieces; ++q) {
      parts.push_back(DataPartition{&source,
                                    begin + q * rows / pieces,
                                    begin + (q + 1) * rows / pieces});
    }
  }
  return parts;
}

/// Shard-aware map-task schedule for a job over `parts`: a submission
/// permutation (see Job::WithSubmissionOrder). Tasks are grouped into
/// min(workers, shards) contiguous shard spans — MakeScanSchedule's
/// policy for chunked passes — and submission round-robins across the
/// groups, so a pool's wave scans distinct shards even when the
/// partition count does not match the shard count (unscheduled FIFO
/// piles the first wave onto the first few shards when partitions
/// subdivide them).
///
/// The schedule changes only WHEN tasks run; emissions still fold in
/// task-index order inside Job::Run, so job outputs are bitwise
/// identical with and without it. Returns an empty order when there is
/// nothing to exploit (fewer than two residency units, trivial task
/// counts, or no pool).
struct MapTaskSchedule {
  std::vector<int64_t> order;  ///< submission order; empty = ascending
};

inline MapTaskSchedule MakeMapTaskSchedule(
    const DatasetSource& source, const std::vector<DataPartition>& parts,
    int64_t workers) {
  MapTaskSchedule schedule;
  const auto num_tasks = static_cast<int64_t>(parts.size());
  if (workers <= 1 || num_tasks < 2) return schedule;
  const std::vector<std::pair<int64_t, int64_t>> ranges =
      source.ResidencyRanges();
  const auto num_shards = static_cast<int64_t>(ranges.size());
  if (num_shards < 2) return schedule;

  // Shard owning a row (ranges are ascending and contiguous from 0).
  auto shard_of = [&](int64_t row) {
    int64_t lo = 0, hi = num_shards - 1;
    while (lo < hi) {
      const int64_t mid = (lo + hi + 1) / 2;
      if (ranges[static_cast<size_t>(mid)].first <= row) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  };

  const int64_t groups = std::min(workers, num_shards);
  std::vector<std::vector<int64_t>> sequences(
      static_cast<size_t>(groups));
  for (int64_t t = 0; t < num_tasks; ++t) {
    const int64_t g = shard_of(parts[static_cast<size_t>(t)].begin) *
                      groups / num_shards;
    sequences[static_cast<size_t>(g)].push_back(t);
  }

  // Round-robin submission across groups.
  schedule.order.reserve(static_cast<size_t>(num_tasks));
  std::vector<size_t> cursor(static_cast<size_t>(groups), 0);
  while (static_cast<int64_t>(schedule.order.size()) < num_tasks) {
    for (int64_t g = 0; g < groups; ++g) {
      const auto& seq = sequences[static_cast<size_t>(g)];
      size_t& c = cursor[static_cast<size_t>(g)];
      if (c < seq.size()) schedule.order.push_back(seq[c++]);
    }
  }
  return schedule;
}

}  // namespace kmeansll::mapreduce

#endif  // KMEANSLL_MAPREDUCE_PARTITION_H_
