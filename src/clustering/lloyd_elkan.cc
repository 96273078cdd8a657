#include "clustering/lloyd_elkan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "clustering/cost.h"
#include "clustering/lloyd_internal.h"
#include "common/trace.h"
#include "common/math_util.h"
#include "distance/batch.h"
#include "distance/nearest.h"
#include "parallel/parallel_for.h"

namespace kmeansll {

Result<LloydResult> RunLloydElkan(const DatasetSource& data,
                                  const Matrix& initial_centers,
                                  const LloydOptions& options,
                                  ElkanStats* stats,
                                  const double* point_norms) {
  if (initial_centers.rows() == 0) {
    return Status::InvalidArgument("initial center set is empty");
  }
  if (initial_centers.cols() != data.dim()) {
    return Status::InvalidArgument(
        "center dimension " + std::to_string(initial_centers.cols()) +
        " does not match data dimension " + std::to_string(data.dim()));
  }
  if (data.n() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }

  const int64_t n = data.n();
  const int64_t k = initial_centers.rows();
  const int64_t d = data.dim();

  // Shared-chain arithmetic (see RunLloydHamerly): every exact distance
  // here is an engine value, bitwise the one RunLloyd's scan computes.
  std::vector<double> norm_storage;
  bool expanded = false;
  const double* pn = internal::EnsurePointNorms(
      data, point_norms, &norm_storage, /*pool=*/nullptr, &expanded);

  LloydResult result;
  result.centers = initial_centers;

  std::vector<int32_t> assignment(static_cast<size_t>(n), -1);
  std::vector<int32_t> previous_assignment;
  // Unsquared distances throughout (triangle inequality is linear).
  std::vector<double> upper(static_cast<size_t>(n), 0.0);
  std::vector<double> lower(static_cast<size_t>(n * k), 0.0);
  bool bounds_valid = false;

  std::vector<double> center_dist(static_cast<size_t>(k * k), 0.0);
  std::vector<double> center_d2(static_cast<size_t>(k * k));
  std::vector<double> half_nearest(static_cast<size_t>(k), 0.0);
  std::vector<double> chunk_d2;  // scratch for the bound-init pass

  double previous_cost = std::numeric_limits<double>::quiet_NaN();
  bool have_previous_cost = false;

  // Checkpoint/resume (shared protocol, see lloyd_internal.h). The n × k
  // bound table is not persisted: the resumed iteration runs with
  // bounds_valid = false, i.e. the exact full-initialization pass, so
  // assignments — and therefore centers — stay bitwise the
  // uninterrupted run's. The previous assignment and cost are
  // reconstructed from the stored entering centers.
  const internal::LloydCheckpointPlan plan =
      internal::MakeLloydCheckpointPlan(data, initial_centers, options);
  int64_t start_iter = 0;
  {
    Matrix resume_prev;
    LloydResult resumed;
    if (internal::TryResumeLloyd(plan, &resumed, &resume_prev)) {
      result = std::move(resumed);
      start_iter = result.iterations;
      Assignment prev =
          ComputeAssignment(data, resume_prev, /*pool=*/nullptr, pn);
      previous_assignment = std::move(prev.cluster);
      if (options.track_history || options.relative_tolerance > 0.0) {
        previous_cost = prev.cost;
        have_previous_cost = true;
      }
    }
  }

  for (int64_t iter = start_iter; iter < options.max_iterations; ++iter) {
    KMEANSLL_TRACE_SPAN("lloyd_elkan.iteration");
    const bool will_checkpoint =
        internal::ShouldCheckpoint(plan, iter, options.max_iterations);
    Matrix entering_centers;
    if (will_checkpoint) entering_centers = result.centers;
    NearestCenterSearch search(result.centers);
    search.Freeze();
    // Scalar probes share the search's cached norms (same
    // RowSquaredNorms chain) rather than recomputing them.
    const double* cn =
        expanded ? search.center_norms().data() : nullptr;

    // Inter-center geometry: one blocked k × k scan; the diagonal is
    // pinned to zero (the engine's expanded self-distance can be a few
    // ulps of cancellation noise, and d(a, a) is zero by definition).
    search.DistancesRange(result.centers, IndexRange{0, k}, cn,
                          center_d2.data());
    for (int64_t a = 0; a < k; ++a) {
      double best = std::numeric_limits<double>::infinity();
      for (int64_t b = 0; b < k; ++b) {
        if (a == b) {
          center_dist[static_cast<size_t>(a * k + b)] = 0.0;
          continue;
        }
        double dist =
            std::sqrt(center_d2[static_cast<size_t>(a * k + b)]);
        center_dist[static_cast<size_t>(a * k + b)] = dist;
        best = std::min(best, dist);
      }
      half_nearest[static_cast<size_t>(a)] = k > 1 ? 0.5 * best : 0.0;
    }

    if (!bounds_valid) {
      // Full initialization: exact distances to every center, one
      // blocked pass chunked on the deterministic grid, written straight
      // into the n × k lower-bound table.
      for (const IndexRange& r : MakeChunks(n, kDeterministicChunks)) {
        chunk_d2.resize(static_cast<size_t>(r.size() * k));
        search.DistancesRange(data, r,
                              pn == nullptr ? nullptr : pn + r.begin,
                              chunk_d2.data());
        for (int64_t i = r.begin; i < r.end; ++i) {
          const double* row = chunk_d2.data() + (i - r.begin) * k;
          double* row_lower = lower.data() + i * k;
          // Argmin on the squared values: two distinct d² can round to
          // the same sqrt, and the tie must break exactly like the
          // standard scan's strict-< over d².
          double best_d2 = std::numeric_limits<double>::infinity();
          int64_t best_c = -1;
          for (int64_t c = 0; c < k; ++c) {
            row_lower[c] = std::sqrt(row[c]);
            if (row[c] < best_d2) {
              best_d2 = row[c];
              best_c = c;
            }
          }
          assignment[static_cast<size_t>(i)] =
              static_cast<int32_t>(best_c);
          upper[static_cast<size_t>(i)] = row_lower[best_c];
        }
      }
      if (stats != nullptr) stats->distance_evals += n * k;
      bounds_valid = true;
    } else {
      ForEachBlock(data, 0, n, [&](const DatasetView& v) {
        for (int64_t b = 0; b < v.rows(); ++b) {
          const int64_t i = v.first_row() + b;
          auto idx = static_cast<size_t>(i);
          auto a = static_cast<int64_t>(assignment[idx]);
          if (upper[idx] <= half_nearest[static_cast<size_t>(a)]) {
            if (stats != nullptr) ++stats->point_skips;
            continue;
          }
          bool upper_tight = false;
          for (int64_t c = 0; c < k; ++c) {
            if (c == a) continue;
            double l = lower[static_cast<size_t>(i * k + c)];
            double half_gap =
                0.5 * center_dist[static_cast<size_t>(a * k + c)];
            if (upper[idx] <= l || upper[idx] <= half_gap) {
              if (stats != nullptr) ++stats->center_prunes;
              continue;
            }
            if (!upper_tight) {
              upper[idx] = std::sqrt(internal::PairDistance2(
                  v.Point(b), expanded ? pn[i] : 0.0,
                  result.centers.Row(a), expanded ? cn[a] : 0.0, d,
                  expanded));
              lower[static_cast<size_t>(i * k + a)] = upper[idx];
              if (stats != nullptr) ++stats->distance_evals;
              upper_tight = true;
              if (upper[idx] <= l || upper[idx] <= half_gap) {
                if (stats != nullptr) ++stats->center_prunes;
                continue;
              }
            }
            double dist = std::sqrt(internal::PairDistance2(
                v.Point(b), expanded ? pn[i] : 0.0,
                result.centers.Row(c), expanded ? cn[c] : 0.0, d,
                expanded));
            lower[static_cast<size_t>(i * k + c)] = dist;
            if (stats != nullptr) ++stats->distance_evals;
            if (dist < upper[idx]) {
              a = c;
              assignment[idx] = static_cast<int32_t>(c);
              upper[idx] = dist;
              upper_tight = true;
            }
          }
        }
      });
    }

    // Centroid update (bitwise identical to LloydStep).
    internal::CentroidSums totals =
        internal::AccumulateCentroids(data, assignment, k, nullptr);
    Matrix new_centers;
    std::vector<int64_t> empty =
        internal::CentroidsFromSums(totals, k, d, &new_centers);
    bool repaired = !empty.empty();
    if (repaired) {
      result.empty_cluster_repairs += static_cast<int64_t>(empty.size());
      internal::RepairEmptyClusters(data, result.centers, empty,
                                    &new_centers, /*pool=*/nullptr, pn);
    }
    ++result.iterations;

    // Bound maintenance.
    if (repaired) {
      bounds_valid = false;  // teleported center: recompute next round
    } else {
      std::vector<double> movement(static_cast<size_t>(k));
      for (int64_t c = 0; c < k; ++c) {
        // Plain chain: the expanded form can cancel to zero for a
        // barely-moved center and understate movement (unsound for the
        // bound updates below).
        movement[static_cast<size_t>(c)] = std::sqrt(
            PairSquaredL2(result.centers.Row(c), new_centers.Row(c), d));
      }
      for (int64_t i = 0; i < n; ++i) {
        auto idx = static_cast<size_t>(i);
        upper[idx] += movement[static_cast<size_t>(assignment[idx])];
        double* row_lower = lower.data() + i * k;
        for (int64_t c = 0; c < k; ++c) {
          row_lower[c] =
              std::max(0.0, row_lower[c] - movement[static_cast<size_t>(c)]);
        }
      }
    }

    bool assignments_unchanged =
        iter > 0 && assignment == previous_assignment;

    if (options.track_history || options.relative_tolerance > 0.0) {
      // Bitwise the cost RunLloyd's history records (shared chunked
      // Kahan reduction over the same per-pair values).
      double current_cost = internal::AssignmentCost(
          data, result.centers, assignment, pn, cn, expanded);
      if (options.track_history) {
        result.cost_history.push_back(current_cost);
      }
      if (options.relative_tolerance > 0.0 && have_previous_cost &&
          previous_cost > 0.0) {
        double improvement = (previous_cost - current_cost) / previous_cost;
        if (improvement >= 0.0 &&
            improvement < options.relative_tolerance) {
          result.centers = std::move(new_centers);
          previous_assignment = assignment;
          result.converged = true;
          break;
        }
      }
      previous_cost = current_cost;
      have_previous_cost = true;
    }

    result.centers = std::move(new_centers);
    previous_assignment = assignment;

    if (assignments_unchanged) {
      result.converged = true;
      break;
    }

    if (will_checkpoint) {
      KMEANSLL_RETURN_NOT_OK(
          internal::CheckpointLloydIteration(
              plan, entering_centers, result,
              &result.checkpoint_write_retries));
    }
  }

  result.assignment = ComputeAssignment(data, result.centers, nullptr, pn);
  KMEANSLL_RETURN_NOT_OK(data.status());
  internal::RemoveLloydCheckpoint(plan);
  return result;
}

Result<LloydResult> RunLloydElkan(const Dataset& data,
                                  const Matrix& initial_centers,
                                  const LloydOptions& options,
                                  ElkanStats* stats,
                                  const double* point_norms) {
  InMemorySource source = data.AsSource();
  return RunLloydElkan(source, initial_centers, options, stats,
                       point_norms);
}

}  // namespace kmeansll
