#include "clustering/init_partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <cstring>

#include "clustering/init_kmeansll.h"
#include "common/timer.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "rng/discrete.h"

namespace kmeansll {

namespace internal {

std::vector<int64_t> KMeansSharp(const DatasetSource& data, int64_t begin,
                                 int64_t end, int64_t batch,
                                 int64_t iterations, rng::Rng rng) {
  KMEANSLL_CHECK(begin >= 0 && begin < end && end <= data.n());
  const int64_t group_size = end - begin;
  const int64_t dim = data.dim();
  rng::Rng gen = rng.Fork(rng::StreamPurpose::kPartitionGroup,
                          static_cast<uint64_t>(begin));

  std::vector<int64_t> selected;
  std::vector<bool> is_selected(static_cast<size_t>(group_size), false);
  // d²(x, C) restricted to this group's points.
  std::vector<double> min_d2(static_cast<size_t>(group_size),
                             std::numeric_limits<double>::infinity());

  // Batch-engine state: group-point norms are computed once and reused for
  // every center update (each center IS a group point, so its norm is the
  // cached one); the argmin indices are not needed here.
  const bool expanded = dim >= kExpandedKernelMinDim;
  std::vector<double> group_norms;
  if (expanded) {
    group_norms.resize(static_cast<size_t>(group_size));
    ForEachBlock(data, begin, end, [&](const DatasetView& v) {
      for (int64_t b = 0; b < v.rows(); ++b) {
        group_norms[static_cast<size_t>(v.first_row() + b - begin)] =
            SquaredNorm(v.Point(b), dim);
      }
    });
  }
  Matrix center_m(1, dim);

  auto add_center = [&](int64_t local) {
    if (is_selected[static_cast<size_t>(local)]) return;
    is_selected[static_cast<size_t>(local)] = true;
    selected.push_back(begin + local);
    {
      PinnedBlock pin = data.Pin(begin + local, begin + local + 1);
      std::memcpy(center_m.Row(0), pin.view().Point(0),
                  static_cast<size_t>(dim) * sizeof(double));
    }
    const double cnorm =
        expanded ? group_norms[static_cast<size_t>(local)] : 0.0;
    ForEachBlock(data, begin, end, [&](const DatasetView& v) {
      const int64_t off = v.first_row() - begin;
      BatchNearestMerge(v.points(), IndexRange{0, v.rows()},
                        expanded ? group_norms.data() + off : nullptr,
                        center_m,
                        /*first_center=*/0, expanded ? &cnorm : nullptr,
                        expanded ? BatchKernel::kExpanded
                                 : BatchKernel::kPlain,
                        min_d2.data() + off, /*best_index=*/nullptr);
    });
  };

  // Iteration 1: `batch` uniform draws (with replacement, dupes dropped).
  for (int64_t b = 0; b < batch && b < group_size; ++b) {
    add_center(static_cast<int64_t>(gen.NextBounded(group_size)));
  }

  // Iterations 2..iterations: `batch` independent D² draws each.
  std::vector<double> weights(static_cast<size_t>(group_size));
  for (int64_t it = 1; it < iterations; ++it) {
    if (static_cast<int64_t>(selected.size()) >= group_size) break;
    ForEachBlock(data, begin, end, [&](const DatasetView& v) {
      for (int64_t b = 0; b < v.rows(); ++b) {
        const int64_t local = v.first_row() + b - begin;
        weights[static_cast<size_t>(local)] =
            v.Weight(b) * min_d2[static_cast<size_t>(local)];
      }
    });
    auto sampler = rng::PrefixSumSampler::Build(weights);
    if (!sampler.ok()) break;  // all group points already selected
    for (int64_t b = 0; b < batch; ++b) {
      add_center(sampler->Sample(gen));
    }
  }
  return selected;
}

}  // namespace internal

Result<InitResult> PartitionInit(const DatasetSource& data, int64_t k,
                                 rng::Rng rng,
                                 const PartitionOptions& options) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }

  WallTimer timer;
  const int64_t n = data.n();
  int64_t m = options.num_groups;
  if (m <= 0) {
    m = static_cast<int64_t>(std::llround(
        std::sqrt(static_cast<double>(n) / static_cast<double>(k))));
    m = std::max<int64_t>(m, 1);
  }
  m = std::min<int64_t>(m, n);  // at least one point per group

  int64_t batch = options.batch_size;
  if (batch <= 0) {
    batch = static_cast<int64_t>(
        std::ceil(3.0 * std::log(std::max<double>(2.0, static_cast<double>(k)))));
  }
  int64_t iterations = options.iterations > 0 ? options.iterations : k;

  // Phase 1 (parallelizable across groups): k-means# per group, followed
  // by the group-local weighting pass — each group's points are assigned
  // to the nearest center selected within that group, exactly as the
  // streaming algorithm does (the group is the machine's whole world).
  std::vector<int64_t> all_selected;
  std::vector<double> weights;
  // Near-equal contiguous groups (the same split Dataset::SplitRanges
  // produces), each processed as a streamed row range of the source.
  const int64_t base_size = n / m;
  const int64_t extra = n % m;
  int64_t begin = 0;
  for (int64_t g = 0; g < m; ++g) {
    const int64_t end = begin + base_size + (g < extra ? 1 : 0);
    if (begin >= end) {
      begin = end;
      continue;
    }
    std::vector<int64_t> group_selected =
        internal::KMeansSharp(data, begin, end, batch, iterations, rng);
    KMEANSLL_CHECK(!group_selected.empty());
    Matrix group_centers = GatherPoints(data, group_selected);
    NearestCenterSearch search(group_centers);
    std::vector<int32_t> nearest(static_cast<size_t>(end - begin));
    std::vector<double> nearest_d2(static_cast<size_t>(end - begin));
    search.FindRange(data, IndexRange{begin, end}, nullptr,
                     nearest.data(), nearest_d2.data());
    std::vector<double> group_weights(group_selected.size(), 0.0);
    ForEachBlock(data, begin, end, [&](const DatasetView& v) {
      for (int64_t b = 0; b < v.rows(); ++b) {
        group_weights[static_cast<size_t>(nearest[static_cast<size_t>(
            v.first_row() + b - begin)])] += v.Weight(b);
      }
    });
    all_selected.insert(all_selected.end(), group_selected.begin(),
                        group_selected.end());
    weights.insert(weights.end(), group_weights.begin(),
                   group_weights.end());
    begin = end;
  }
  KMEANSLL_CHECK(!all_selected.empty());

  InitResult result;
  result.telemetry.rounds = 2;  // two parallel rounds (paper §4.2.1)
  result.telemetry.intermediate_centers =
      static_cast<int64_t>(all_selected.size());
  // Per-group scans ≈ k-means# iterations plus the weighting scan.
  result.telemetry.data_passes = iterations + 1;

  Matrix candidates = GatherPoints(data, all_selected);
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();

  // Phase 2 (sequential): recluster the weighted union to k.
  if (candidates.rows() <= k) {
    result.centers = std::move(candidates);
    return result;
  }
  // Defaults: weighted k-means++, then 30 weighted Lloyd iterations.
  KMeansLLOptions recluster_options;
  KMEANSLL_ASSIGN_OR_RETURN(
      result.centers,
      internal::ReclusterCandidates(candidates, weights, k, rng,
                                    recluster_options, &result.telemetry));
  return result;
}

Result<InitResult> PartitionInit(const Dataset& data, int64_t k,
                                 rng::Rng rng,
                                 const PartitionOptions& options) {
  InMemorySource source = data.AsSource();
  return PartitionInit(source, k, rng, options);
}

}  // namespace kmeansll
