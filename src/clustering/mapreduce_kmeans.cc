#include "clustering/mapreduce_kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "clustering/lloyd_internal.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "distance/batch.h"
#include "distance/l2.h"
#include "distance/nearest.h"
#include "mapreduce/job.h"
#include "rng/splitmix64.h"

namespace kmeansll {

namespace {

using mapreduce::DataPartition;
using mapreduce::Emitter;
using mapreduce::Job;
using mapreduce::MakePartitions;

void CountPass(const MRContext& ctx) {
  if (ctx.counters != nullptr) {
    ctx.counters->Add(mapreduce::kCounterDataPasses, 1);
  }
}

/// Installs the context's fault policy on a job: the attempt budget and
/// the error channel every driver checks right after Run (a terminal
/// task failure yields a Status, never an abort). Retrying a task that
/// writes shared per-row state (the k-means|| distance update, the Lloyd
/// assignment scatter) is idempotent: the retry runs after the failed
/// attempt is dead and rewrites the same rows with the same values.
template <typename JobT>
void ApplyFaultPolicy(JobT* job, const MRContext& ctx, Status* error_out) {
  job->WithTaskAttempts(ctx.max_task_attempts).WithErrorOut(error_out);
}

}  // namespace

Result<double> MRComputeCost(const DatasetSource& data,
                             const Matrix& centers, const MRContext& ctx) {
  KMEANSLL_CHECK_GT(centers.rows(), 0);
  NearestCenterSearch search(centers);
  search.Freeze();  // one packing shared by every map task
  Job<DataPartition, int, double, double> job;
  job.WithMap([&](int64_t, const DataPartition& part,
                  Emitter<int, double>* out) {
        // One streaming pass: scan each pinned block and fold its
        // weighted distances immediately (rows still fold in ascending
        // order, so the Kahan chain is unchanged). A scan pass plus a
        // separate weight pass would pin — and under a tight window,
        // map — every shard twice per task.
        KahanSum partial;
        std::vector<double> d2;
        ForEachBlock(*part.source, part.begin, part.end,
                     [&](const DatasetView& v) {
                       d2.resize(static_cast<size_t>(v.rows()));
                       search.FindRange(v.points(),
                                        IndexRange{0, v.rows()}, nullptr,
                                        /*out_index=*/nullptr, d2.data());
                       for (int64_t i = 0; i < v.rows(); ++i) {
                         partial.Add(v.Weight(i) *
                                     d2[static_cast<size_t>(i)]);
                       }
                     });
        out->Emit(0, partial.Total());
      })
      .WithCombine([](const double& a, const double& b) { return a + b; })
      .WithReduce([](const int&, std::vector<double>& values) {
        KahanSum sum;
        for (double v : values) sum.Add(v);
        return sum.Total();
      })
      .WithCounters(ctx.counters);
  Status job_error;
  ApplyFaultPolicy(&job, ctx, &job_error);
  auto outputs = job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());
  KMEANSLL_CHECK_EQ(outputs.size(), 1u);
  return outputs[0];
}

namespace {

/// Shared distributed state for the k-means|| driver: per-point min
/// squared distance, closest-candidate index, and the cached point norms
/// the expanded kernel reuses across rounds. Map tasks touch disjoint row
/// ranges, so lock-free writes are safe.
struct DistanceState {
  std::vector<double> min_d2;
  std::vector<int32_t> closest;
  std::vector<double> point_norms;  // empty when the plain kernel is used
};

/// Job 1: fold rows [first, |C|) of the candidate set into the distance
/// state via the blocked batch engine and return the updated potential φ.
Result<double> RunUpdateCostJob(const DatasetSource& data,
                                const Matrix& candidates, int64_t first,
                                DistanceState* state, const MRContext& ctx) {
  const bool expanded = data.dim() >= kExpandedKernelMinDim;
  // Norms for the newly added candidate rows only (indexed relative to
  // `first`, as the engine expects).
  std::vector<double> new_center_norms;
  if (expanded) {
    for (int64_t c = first; c < candidates.rows(); ++c) {
      new_center_norms.push_back(SquaredNorm(candidates.Row(c),
                                             data.dim()));
    }
  }
  // Pack the new candidate rows once; every map task (and every pinned
  // block within one) scans the same panels.
  CenterPanels panels;
  panels.Pack(candidates, first);
  Job<DataPartition, int, double, double> job;
  job.WithMap([&](int64_t, const DataPartition& part,
                  Emitter<int, double>* out) {
        KahanSum partial;
        ForEachBlock(*part.source, part.begin, part.end,
                     [&](const DatasetView& v) {
                       const int64_t fr = v.first_row();
                       BatchNearestMerge(
                           v.points(), IndexRange{0, v.rows()},
                           expanded ? state->point_norms.data() + fr
                                    : nullptr,
                           panels,
                           expanded ? new_center_norms.data() : nullptr,
                           expanded ? BatchKernel::kExpanded
                                    : BatchKernel::kPlain,
                           state->min_d2.data() + fr,
                           state->closest.data() + fr);
                       for (int64_t i = 0; i < v.rows(); ++i) {
                         partial.Add(
                             v.Weight(i) *
                             state->min_d2[static_cast<size_t>(fr + i)]);
                       }
                     });
        out->Emit(0, partial.Total());
      })
      .WithCombine([](const double& a, const double& b) { return a + b; })
      .WithReduce([](const int&, std::vector<double>& values) {
        KahanSum sum;
        for (double v : values) sum.Add(v);
        return sum.Total();
      })
      .WithCounters(ctx.counters);
  Status job_error;
  ApplyFaultPolicy(&job, ctx, &job_error);
  auto outputs = job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());
  return outputs[0];
}

/// One (key, index) candidate emitted by the exact-ℓ sampling job.
struct ExactCandidate {
  double key = 0;     // log(u)/w — larger is better
  int64_t index = 0;
};

/// Job 2: D² sampling. Bernoulli mode emits every selected index;
/// exact-ℓ mode emits per-point keys and the reducer keeps the top ℓ.
Result<std::vector<int64_t>> RunSamplingJob(
    const DatasetSource& data, const DistanceState& state, double phi,
    double ell, int64_t ell_int, bool exact_ell, uint64_t round_seed,
    const MRContext& ctx) {
  Status job_error;
  std::vector<int64_t> chosen;
  if (!exact_ell) {
    Job<DataPartition, int, std::vector<int64_t>, std::vector<int64_t>> job;
    job.WithMap([&](int64_t, const DataPartition& part,
                    Emitter<int, std::vector<int64_t>>* out) {
          std::vector<int64_t> local;
          ForEachBlock(*part.source, part.begin, part.end,
                       [&](const DatasetView& v) {
                         for (int64_t b = 0; b < v.rows(); ++b) {
                           const int64_t i = v.first_row() + b;
                           double p =
                               ell * v.Weight(b) *
                               state.min_d2[static_cast<size_t>(i)] / phi;
                           if (p <= 0.0) continue;
                           if (rng::UniformAtIndex(
                                   round_seed, static_cast<uint64_t>(i)) <
                               p) {
                             local.push_back(i);
                           }
                         }
                       });
          out->Emit(0, std::move(local));
        })
        .WithReduce([](const int&, std::vector<std::vector<int64_t>>& vs) {
          std::vector<int64_t> merged;
          for (auto& v : vs) {
            merged.insert(merged.end(), v.begin(), v.end());
          }
          std::sort(merged.begin(), merged.end());
          return merged;
        })
        .WithCounters(ctx.counters);
    ApplyFaultPolicy(&job, ctx, &job_error);
    auto outputs =
        job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
    if (job_error.ok()) chosen = std::move(outputs[0]);
  } else {
    Job<DataPartition, int, std::vector<ExactCandidate>,
        std::vector<int64_t>>
        job;
    job.WithMap([&](int64_t, const DataPartition& part,
                    Emitter<int, std::vector<ExactCandidate>>* out) {
          // Keep only the partition-local top ℓ (a combiner in spirit):
          // the global top ℓ is a subset of the per-partition top ℓ.
          std::vector<ExactCandidate> local;
          ForEachBlock(
              *part.source, part.begin, part.end,
              [&](const DatasetView& v) {
                for (int64_t b = 0; b < v.rows(); ++b) {
                  const int64_t i = v.first_row() + b;
                  double w =
                      v.Weight(b) * state.min_d2[static_cast<size_t>(i)];
                  if (!(w > 0.0)) continue;
                  double u = rng::UniformAtIndex(round_seed,
                                                 static_cast<uint64_t>(i));
                  while (u <= 0.0) {
                    u = rng::UniformAtIndex(round_seed ^ 0x5bf0,
                                            static_cast<uint64_t>(i));
                  }
                  local.push_back(ExactCandidate{std::log(u) / w, i});
                }
              });
          auto keep = static_cast<size_t>(
              std::min<int64_t>(ell_int,
                                static_cast<int64_t>(local.size())));
          std::partial_sort(local.begin(), local.begin() + keep,
                            local.end(),
                            [](const ExactCandidate& a,
                               const ExactCandidate& b) {
                              if (a.key != b.key) return a.key > b.key;
                              return a.index < b.index;
                            });
          local.resize(keep);
          out->Emit(0, std::move(local));
        })
        .WithReduce([&](const int&,
                        std::vector<std::vector<ExactCandidate>>& vs) {
          std::vector<ExactCandidate> merged;
          for (auto& v : vs) {
            merged.insert(merged.end(), v.begin(), v.end());
          }
          std::sort(merged.begin(), merged.end(),
                    [](const ExactCandidate& a, const ExactCandidate& b) {
                      if (a.key != b.key) return a.key > b.key;
                      return a.index < b.index;
                    });
          if (static_cast<int64_t>(merged.size()) > ell_int) {
            merged.resize(static_cast<size_t>(ell_int));
          }
          std::vector<int64_t> indices;
          indices.reserve(merged.size());
          for (const auto& c : merged) indices.push_back(c.index);
          std::sort(indices.begin(), indices.end());
          return indices;
        })
        .WithCounters(ctx.counters);
    ApplyFaultPolicy(&job, ctx, &job_error);
    auto outputs =
        job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
    if (job_error.ok()) chosen = std::move(outputs[0]);
  }
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());
  return chosen;
}

/// Job 3 (Step 7): weight of every candidate = total weight of the points
/// it attracts; (candidate, weight) pairs with a summing combiner.
Result<std::vector<double>> RunWeightJob(const DatasetSource& data,
                                         const DistanceState& state,
                                         int64_t num_candidates,
                                         const MRContext& ctx) {
  struct CenterWeight {
    int64_t center;
    double weight;
  };
  Job<DataPartition, int64_t, double, CenterWeight> job;
  job.WithMap([&](int64_t, const DataPartition& part,
                  Emitter<int64_t, double>* out) {
        // Local pre-aggregation keeps emissions at O(candidates), not O(n).
        std::vector<double> local(static_cast<size_t>(num_candidates), 0.0);
        ForEachBlock(*part.source, part.begin, part.end,
                     [&](const DatasetView& v) {
                       for (int64_t b = 0; b < v.rows(); ++b) {
                         const int64_t i = v.first_row() + b;
                         local[static_cast<size_t>(state.closest[
                             static_cast<size_t>(i)])] += v.Weight(b);
                       }
                     });
        for (int64_t c = 0; c < num_candidates; ++c) {
          double w = local[static_cast<size_t>(c)];
          if (w > 0.0) out->Emit(c, w);
        }
      })
      .WithCombine([](const double& a, const double& b) { return a + b; })
      .WithReduce([](const int64_t& center, std::vector<double>& values) {
        KahanSum sum;
        for (double v : values) sum.Add(v);
        return CenterWeight{center, sum.Total()};
      })
      .WithCounters(ctx.counters);
  Status job_error;
  ApplyFaultPolicy(&job, ctx, &job_error);
  auto outputs = job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());
  std::vector<double> weights(static_cast<size_t>(num_candidates), 0.0);
  for (const auto& cw : outputs) {
    weights[static_cast<size_t>(cw.center)] = cw.weight;
  }
  return weights;
}

}  // namespace

Result<InitResult> MRKMeansLLInit(const DatasetSource& data, int64_t k,
                                  rng::Rng rng,
                                  const KMeansLLOptions& options,
                                  const MRContext& ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  if (options.rounds != KMeansLLOptions::kAutoRounds && options.rounds < 0) {
    return Status::InvalidArgument("rounds must be >= 0 or kAutoRounds");
  }
  KMEANSLL_ASSIGN_OR_RETURN(
      double ell, internal::ResolveOversampling(options.oversampling, k));
  const auto ell_int = static_cast<int64_t>(std::llround(std::ceil(ell)));

  WallTimer timer;
  InitResult result;

  // Step 1: initial center (same stream as the sequential driver).
  rng::Rng init_rng = rng.Fork(rng::StreamPurpose::kInitialCenter);
  auto first = static_cast<int64_t>(init_rng.NextBounded(data.n()));
  Matrix candidates(data.dim());
  {
    PinnedBlock pin = data.Pin(first, first + 1);
    candidates.AppendRow(pin.view().Point(0));
  }

  DistanceState state;
  state.min_d2.assign(static_cast<size_t>(data.n()),
                      std::numeric_limits<double>::infinity());
  state.closest.assign(static_cast<size_t>(data.n()), -1);
  if (data.dim() >= kExpandedKernelMinDim) {
    // Computed once, reused by every round's update job.
    state.point_norms = RowSquaredNorms(data, ctx.pool);
  }

  // Step 2: ψ via the update+cost job.
  KMEANSLL_ASSIGN_OR_RETURN(double psi,
                            RunUpdateCostJob(data, candidates, 0, &state,
                                             ctx));
  result.telemetry.round_potentials.push_back(psi);
  result.telemetry.data_passes = 1;

  const int64_t rounds = internal::ResolveRounds(options.rounds, psi);
  double phi = psi;

  // Steps 3–6.
  for (int64_t round = 0; round < rounds; ++round) {
    if (!(phi > 0.0)) break;
    const uint64_t round_seed = rng::HashCombine(
        rng.Fork(rng::StreamPurpose::kRoundSampling, round).root_key(),
        static_cast<uint64_t>(round));
    KMEANSLL_ASSIGN_OR_RETURN(
        std::vector<int64_t> chosen,
        RunSamplingJob(data, state, phi, ell, ell_int, options.exact_ell,
                       round_seed, ctx));
    result.telemetry.data_passes += 1;

    int64_t previous = candidates.rows();
    // `chosen` is sorted: the gather pins each shard at most once.
    candidates.AppendRows(GatherPoints(data, chosen));
    KMEANSLL_ASSIGN_OR_RETURN(
        phi, RunUpdateCostJob(data, candidates, previous, &state, ctx));
    result.telemetry.data_passes += 1;
    result.telemetry.round_potentials.push_back(phi);
  }
  result.telemetry.rounds = rounds;
  result.telemetry.intermediate_centers = candidates.rows();

  // Step 7.
  KMEANSLL_ASSIGN_OR_RETURN(
      std::vector<double> weights,
      RunWeightJob(data, state, candidates.rows(), ctx));
  result.telemetry.data_passes += 1;
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();

  // Step 8 on a single machine (the candidate set is tiny).
  if (candidates.rows() <= k) {
    if (candidates.rows() < k) {
      KMEANSLL_LOG(Warning)
          << "MR k-means|| selected " << candidates.rows()
          << " candidates < k=" << k << "; skipping reclustering";
    }
    result.centers = std::move(candidates);
    return result;
  }
  KMEANSLL_ASSIGN_OR_RETURN(
      result.centers,
      internal::ReclusterCandidates(candidates, weights, k, rng, options,
                                    &result.telemetry));
  return result;
}

Result<InitResult> MRRandomInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng, const MRContext& ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  WallTimer timer;
  const uint64_t seed =
      rng.Fork(rng::StreamPurpose::kInitialCenter).root_key();

  struct Keyed {
    uint64_t key;
    int64_t index;
  };
  auto keep_smallest = [](std::vector<Keyed>& entries, int64_t count) {
    auto keep = static_cast<size_t>(std::min<int64_t>(
        count, static_cast<int64_t>(entries.size())));
    std::partial_sort(entries.begin(), entries.begin() + keep,
                      entries.end(), [](const Keyed& a, const Keyed& b) {
                        if (a.key != b.key) return a.key < b.key;
                        return a.index < b.index;
                      });
    entries.resize(keep);
  };

  Job<DataPartition, int, std::vector<Keyed>, std::vector<int64_t>> job;
  job.WithMap([&](int64_t, const DataPartition& part,
                  Emitter<int, std::vector<Keyed>>* out) {
        std::vector<Keyed> local;
        local.reserve(static_cast<size_t>(part.size()));
        for (int64_t i = part.begin; i < part.end; ++i) {
          local.push_back(Keyed{
              rng::HashCombine(seed, static_cast<uint64_t>(i)), i});
        }
        keep_smallest(local, k);
        out->Emit(0, std::move(local));
      })
      .WithReduce([&](const int&, std::vector<std::vector<Keyed>>& vs) {
        std::vector<Keyed> merged;
        for (auto& v : vs) merged.insert(merged.end(), v.begin(), v.end());
        keep_smallest(merged, k);
        std::vector<int64_t> indices;
        indices.reserve(merged.size());
        for (const Keyed& e : merged) indices.push_back(e.index);
        std::sort(indices.begin(), indices.end());
        return indices;
      })
      .WithCounters(ctx.counters);
  Status job_error;
  ApplyFaultPolicy(&job, ctx, &job_error);
  auto outputs = job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());

  InitResult result;
  result.centers = GatherPoints(data, outputs[0]);
  result.telemetry.rounds = 0;
  result.telemetry.data_passes = 1;
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();
  return result;
}

Result<InitResult> MRPartitionInit(const DatasetSource& data, int64_t k,
                                   rng::Rng rng,
                                   const PartitionOptions& options,
                                   const MRContext& ctx) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  if (options.num_groups > 0 &&
      options.num_groups != ctx.num_partitions) {
    return Status::InvalidArgument(
        "MRPartitionInit maps groups onto input splits: num_groups (" +
        std::to_string(options.num_groups) + ") must equal "
        "num_partitions (" + std::to_string(ctx.num_partitions) + ") "
        "or be <= 0");
  }
  WallTimer timer;

  int64_t batch = options.batch_size;
  if (batch <= 0) {
    batch = static_cast<int64_t>(std::ceil(
        3.0 * std::log(std::max<double>(2.0, static_cast<double>(k)))));
  }
  const int64_t iterations = options.iterations > 0 ? options.iterations : k;

  // Round 1: one map task per group — k-means# plus group-local weights.
  struct WeightedPick {
    int64_t index;
    double weight;
  };
  Job<DataPartition, int, std::vector<WeightedPick>,
      std::vector<WeightedPick>>
      job;
  job.WithMap([&](int64_t, const DataPartition& part,
                  Emitter<int, std::vector<WeightedPick>>* out) {
        if (part.size() == 0) return;
        std::vector<int64_t> selected = internal::KMeansSharp(
            data, part.begin, part.end, batch, iterations, rng);
        Matrix group_centers = GatherPoints(data, selected);
        NearestCenterSearch search(group_centers);
        search.Freeze();  // one packing for the whole partition scan
        // Single streaming pass: per-block nearest scan feeding the
        // weight fold directly (see MRComputeCost on why).
        std::vector<int32_t> nearest;
        std::vector<double> nearest_d2;
        std::vector<double> weights(selected.size(), 0.0);
        ForEachBlock(*part.source, part.begin, part.end,
                     [&](const DatasetView& v) {
                       nearest.resize(static_cast<size_t>(v.rows()));
                       nearest_d2.resize(static_cast<size_t>(v.rows()));
                       search.FindRange(v.points(),
                                        IndexRange{0, v.rows()}, nullptr,
                                        nearest.data(),
                                        nearest_d2.data());
                       for (int64_t b = 0; b < v.rows(); ++b) {
                         weights[static_cast<size_t>(
                             nearest[static_cast<size_t>(b)])] +=
                             v.Weight(b);
                       }
                     });
        std::vector<WeightedPick> picks;
        picks.reserve(selected.size());
        for (size_t s = 0; s < selected.size(); ++s) {
          picks.push_back(WeightedPick{selected[s], weights[s]});
        }
        out->Emit(0, std::move(picks));
      })
      .WithReduce([](const int&,
                     std::vector<std::vector<WeightedPick>>& vs) {
        std::vector<WeightedPick> merged;
        for (auto& v : vs) merged.insert(merged.end(), v.begin(), v.end());
        return merged;
      })
      .WithCounters(ctx.counters);
  Status job_error;
  ApplyFaultPolicy(&job, ctx, &job_error);
  auto outputs = job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
  CountPass(ctx);
  KMEANSLL_RETURN_NOT_OK(job_error);
  KMEANSLL_RETURN_NOT_OK(data.status());
  KMEANSLL_CHECK(!outputs.empty() && !outputs[0].empty());

  std::vector<int64_t> all_selected;
  std::vector<double> weights;
  all_selected.reserve(outputs[0].size());
  weights.reserve(outputs[0].size());
  for (const auto& pick : outputs[0]) {
    all_selected.push_back(pick.index);
    weights.push_back(pick.weight);
  }

  InitResult result;
  result.telemetry.rounds = 2;
  result.telemetry.intermediate_centers =
      static_cast<int64_t>(all_selected.size());
  result.telemetry.data_passes = iterations + 1;
  Matrix candidates = GatherPoints(data, all_selected);
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();

  // Round 2 on a single machine, as in the paper.
  if (candidates.rows() <= k) {
    result.centers = std::move(candidates);
    return result;
  }
  KMeansLLOptions recluster_options;
  KMEANSLL_ASSIGN_OR_RETURN(
      result.centers,
      internal::ReclusterCandidates(candidates, weights, k, rng,
                                    recluster_options,
                                    &result.telemetry));
  return result;
}

Result<LloydResult> MRRunLloyd(const DatasetSource& data,
                               const Matrix& initial_centers,
                               const LloydOptions& options,
                               const MRContext& ctx) {
  if (initial_centers.rows() == 0) {
    return Status::InvalidArgument("initial center set is empty");
  }
  if (initial_centers.cols() != data.dim()) {
    return Status::InvalidArgument("center dimension mismatch");
  }

  const int64_t k = initial_centers.rows();
  const int64_t d = data.dim();

  /// Per-center accumulator flowing through the job.
  struct CentroidAccum {
    std::vector<double> sum;
    double weight = 0;
    double cost = 0;  // partial φ contribution of the emitting partition
  };
  struct CentroidOut {
    int64_t center = 0;
    std::vector<double> centroid;
    double weight = 0;
    double cost = 0;
    bool empty = false;
  };

  LloydResult result;
  result.centers = initial_centers;
  std::vector<int32_t> previous_assignment;

  for (int64_t iter = 0; iter < options.max_iterations; ++iter) {
    NearestCenterSearch search(result.centers);
    search.Freeze();  // one packing shared by every map task and block
    std::vector<int32_t> assignment(static_cast<size_t>(data.n()), -1);

    Job<DataPartition, int64_t, CentroidAccum, CentroidOut> job;
    job.WithMap([&](int64_t, const DataPartition& part,
                    Emitter<int64_t, CentroidAccum>* out) {
          std::vector<CentroidAccum> local(static_cast<size_t>(k));
          // Single streaming pass: assign each pinned block and fold it
          // into the centroid accumulators before the pin drops (see
          // MRComputeCost on why).
          std::vector<double> d2;
          ForEachBlock(
              *part.source, part.begin, part.end,
              [&](const DatasetView& v) {
                d2.resize(static_cast<size_t>(v.rows()));
                search.FindRange(v.points(), IndexRange{0, v.rows()},
                                 nullptr,
                                 assignment.data() + v.first_row(),
                                 d2.data());
                for (int64_t b = 0; b < v.rows(); ++b) {
                  const int64_t i = v.first_row() + b;
                  auto owner = static_cast<size_t>(
                      assignment[static_cast<size_t>(i)]);
                  auto& acc = local[owner];
                  if (acc.sum.empty()) {
                    acc.sum.assign(static_cast<size_t>(d), 0.0);
                  }
                  double w = v.Weight(b);
                  const double* point = v.Point(b);
                  for (int64_t j = 0; j < d; ++j) {
                    acc.sum[static_cast<size_t>(j)] += w * point[j];
                  }
                  acc.weight += w;
                  acc.cost += w * d2[static_cast<size_t>(b)];
                }
              });
          for (int64_t c = 0; c < k; ++c) {
            auto& acc = local[static_cast<size_t>(c)];
            if (acc.weight > 0.0) out->Emit(c, std::move(acc));
          }
        })
        .WithCombine([](const CentroidAccum& a, const CentroidAccum& b) {
          CentroidAccum merged = a;
          if (merged.sum.empty()) {
            merged.sum = b.sum;
          } else if (!b.sum.empty()) {
            for (size_t j = 0; j < merged.sum.size(); ++j) {
              merged.sum[j] += b.sum[j];
            }
          }
          merged.weight += b.weight;
          merged.cost += b.cost;
          return merged;
        })
        .WithReduce([&](const int64_t& center,
                        std::vector<CentroidAccum>& values) {
          CentroidOut out;
          out.center = center;
          CentroidAccum total;
          for (auto& v : values) {
            if (total.sum.empty()) {
              total.sum = std::move(v.sum);
            } else if (!v.sum.empty()) {
              for (size_t j = 0; j < total.sum.size(); ++j) {
                total.sum[j] += v.sum[j];
              }
            }
            total.weight += v.weight;
            total.cost += v.cost;
          }
          out.weight = total.weight;
          out.cost = total.cost;
          if (total.weight > 0.0) {
            out.centroid.resize(static_cast<size_t>(d));
            for (int64_t j = 0; j < d; ++j) {
              out.centroid[static_cast<size_t>(j)] =
                  total.sum[static_cast<size_t>(j)] / total.weight;
            }
          } else {
            out.empty = true;
          }
          return out;
        })
        .WithCounters(ctx.counters);
    Status job_error;
    ApplyFaultPolicy(&job, ctx, &job_error);

    auto outputs =
        job.Run(ctx.pool, MakePartitions(data, ctx.num_partitions));
    CountPass(ctx);
    KMEANSLL_RETURN_NOT_OK(job_error);
    KMEANSLL_RETURN_NOT_OK(data.status());
    ++result.iterations;

    Matrix new_centers(k, d);
    std::vector<bool> seen(static_cast<size_t>(k), false);
    KahanSum cost;
    for (const auto& out : outputs) {
      seen[static_cast<size_t>(out.center)] = true;
      cost.Add(out.cost);
      double* row = new_centers.Row(out.center);
      for (int64_t j = 0; j < d; ++j) {
        row[j] = out.centroid[static_cast<size_t>(j)];
      }
    }
    // Empty-cluster repair: the function LloydStep calls.
    std::vector<int64_t> empty;
    for (int64_t c = 0; c < k; ++c) {
      if (!seen[static_cast<size_t>(c)]) empty.push_back(c);
    }
    if (!empty.empty()) {
      result.empty_cluster_repairs += static_cast<int64_t>(empty.size());
      internal::RepairEmptyClusters(data, result.centers, empty,
                                    &new_centers, ctx.pool);
    }

    bool assignments_unchanged =
        iter > 0 && assignment == previous_assignment;
    double previous_cost = result.assignment.cost;
    result.centers = std::move(new_centers);
    result.assignment.cluster = assignment;
    result.assignment.cost = cost.Total();
    previous_assignment = std::move(assignment);
    if (options.track_history) {
      result.cost_history.push_back(result.assignment.cost);
    }

    if (assignments_unchanged) {
      result.converged = true;
      break;
    }
    if (options.relative_tolerance > 0.0 && iter > 0 &&
        previous_cost > 0.0) {
      double improvement =
          (previous_cost - result.assignment.cost) / previous_cost;
      if (improvement >= 0.0 && improvement < options.relative_tolerance) {
        result.converged = true;
        break;
      }
    }
  }

  // Final cost must describe the final centers.
  KMEANSLL_ASSIGN_OR_RETURN(result.assignment.cost,
                            MRComputeCost(data, result.centers, ctx));
  return result;
}

// --- Dataset conveniences (wrap in an InMemorySource and delegate) ------

Result<double> MRComputeCost(const Dataset& data, const Matrix& centers,
                             const MRContext& ctx) {
  InMemorySource source = data.AsSource();
  return MRComputeCost(source, centers, ctx);
}

Result<InitResult> MRKMeansLLInit(const Dataset& data, int64_t k,
                                  rng::Rng rng,
                                  const KMeansLLOptions& options,
                                  const MRContext& ctx) {
  InMemorySource source = data.AsSource();
  return MRKMeansLLInit(source, k, rng, options, ctx);
}

Result<InitResult> MRRandomInit(const Dataset& data, int64_t k,
                                rng::Rng rng, const MRContext& ctx) {
  InMemorySource source = data.AsSource();
  return MRRandomInit(source, k, rng, ctx);
}

Result<InitResult> MRPartitionInit(const Dataset& data, int64_t k,
                                   rng::Rng rng,
                                   const PartitionOptions& options,
                                   const MRContext& ctx) {
  InMemorySource source = data.AsSource();
  return MRPartitionInit(source, k, rng, options, ctx);
}

Result<LloydResult> MRRunLloyd(const Dataset& data,
                               const Matrix& initial_centers,
                               const LloydOptions& options,
                               const MRContext& ctx) {
  InMemorySource source = data.AsSource();
  return MRRunLloyd(source, initial_centers, options, ctx);
}

}  // namespace kmeansll
