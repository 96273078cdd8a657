#include "clustering/minibatch.h"

#include <algorithm>
#include <vector>

#include "clustering/cost.h"
#include "distance/l2.h"
#include "distance/nearest.h"

namespace kmeansll {

Result<MiniBatchResult> RunMiniBatchSteps(const DatasetSource& data,
                                          const Matrix& initial_centers,
                                          const MiniBatchOptions& options,
                                          rng::Rng rng) {
  if (initial_centers.rows() == 0) {
    return Status::InvalidArgument("initial center set is empty");
  }
  if (initial_centers.cols() != data.dim()) {
    return Status::InvalidArgument("center dimension mismatch");
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (options.iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }

  rng::Rng gen = rng.Fork(rng::StreamPurpose::kGeneral, 0xB47C);
  MiniBatchResult result;
  result.centers = initial_centers;
  const int64_t d = data.dim();
  const int64_t batch =
      std::min<int64_t>(options.batch_size, data.n());
  // Per-center assignment counts drive the decaying learning rate 1/count.
  std::vector<double> counts(static_cast<size_t>(initial_centers.rows()),
                             0.0);

  std::vector<int64_t> members(static_cast<size_t>(batch));
  std::vector<double> member_weights;
  std::vector<int32_t> owner;
  std::vector<double> owner_d2;
  for (int64_t iter = 0; iter < options.iterations; ++iter) {
    // Sample the batch, then assign all members against this iteration's
    // centers in one blocked batch-engine pass (FindAll packs the center
    // panels once per call — at minibatch row counts the packing would
    // otherwise rival the scan). The gradient step below mutates the
    // centers, so each iteration builds a fresh search over them.
    NearestCenterSearch search(result.centers);
    for (int64_t b = 0; b < batch; ++b) {
      members[static_cast<size_t>(b)] =
          static_cast<int64_t>(gen.NextBounded(data.n()));
    }
    Matrix sampled =
        GatherPointsAndWeights(data, members, &member_weights);
    search.FindAll(sampled, &owner, &owner_d2);
    // Gradient step per member with per-center rate 1/count.
    double max_movement2 = 0.0;
    for (int64_t b = 0; b < batch; ++b) {
      int64_t c = owner[static_cast<size_t>(b)];
      double w = member_weights[static_cast<size_t>(b)];
      if (!(w > 0.0)) continue;
      counts[static_cast<size_t>(c)] += w;
      double eta = w / counts[static_cast<size_t>(c)];
      double* center = result.centers.Row(c);
      const double* point = sampled.Row(b);
      double movement2 = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        double delta = eta * (point[j] - center[j]);
        center[j] += delta;
        movement2 += delta * delta;
      }
      max_movement2 = std::max(max_movement2, movement2);
    }
    ++result.iterations;
    if (options.movement_tolerance > 0.0 &&
        max_movement2 < options.movement_tolerance *
                            options.movement_tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

Result<MiniBatchResult> RunMiniBatch(const DatasetSource& data,
                                     const Matrix& initial_centers,
                                     const MiniBatchOptions& options,
                                     rng::Rng rng) {
  KMEANSLL_ASSIGN_OR_RETURN(
      MiniBatchResult result,
      RunMiniBatchSteps(data, initial_centers, options, rng));
  result.final_cost = ComputeCost(data, result.centers);
  // A degraded source served fallback blocks above: report the root
  // cause instead of a result trained on synthetic zeros.
  KMEANSLL_RETURN_NOT_OK(data.status());
  return result;
}

Result<MiniBatchResult> RunMiniBatch(const Dataset& data,
                                     const Matrix& initial_centers,
                                     const MiniBatchOptions& options,
                                     rng::Rng rng) {
  InMemorySource source = data.AsSource();
  return RunMiniBatch(source, initial_centers, options, rng);
}

}  // namespace kmeansll
