#include "clustering/init_kmeansll.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

#include "clustering/lloyd.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/checkpoint_io.h"
#include "distance/nearest.h"
#include "rng/reservoir.h"
#include "rng/splitmix64.h"

namespace kmeansll {

namespace internal {

Result<double> ResolveOversampling(double oversampling, int64_t k) {
  if (oversampling <= 0.0) return 2.0 * static_cast<double>(k);
  if (!std::isfinite(oversampling)) {
    return Status::InvalidArgument("oversampling must be finite");
  }
  return oversampling;
}

int64_t ResolveRounds(int64_t rounds, double psi) {
  if (rounds != KMeansLLOptions::kAutoRounds) return rounds;
  if (!(psi > 1.0)) return 1;
  auto r = static_cast<int64_t>(std::ceil(std::log(psi)));
  return std::clamp<int64_t>(r, 1, 40);
}

Result<Matrix> ReclusterCandidates(const Matrix& candidates,
                                   const std::vector<double>& weights,
                                   int64_t k, rng::Rng rng,
                                   const KMeansLLOptions& options,
                                   InitTelemetry* telemetry) {
  WallTimer timer;
  KMEANSLL_ASSIGN_OR_RETURN(
      Dataset coreset,
      Dataset::WithWeights(candidates, weights));

  KMEANSLL_ASSIGN_OR_RETURN(
      InitResult seeded,
      KMeansPPInit(coreset, k, rng.Fork(rng::StreamPurpose::kRecluster)));

  Matrix centers = std::move(seeded.centers);
  if (options.recluster == ReclusterMethod::kWeightedKMeansPPPlusLloyd) {
    constexpr int64_t kReclusterLloydIterations = 30;
    LloydOptions lloyd_options;
    lloyd_options.max_iterations = kReclusterLloydIterations;
    KMEANSLL_ASSIGN_OR_RETURN(
        LloydResult refined,
        RunLloyd(coreset, centers, lloyd_options, /*pool=*/nullptr));
    centers = std::move(refined.centers);
  }
  if (telemetry != nullptr) {
    telemetry->recluster_seconds += timer.ElapsedSeconds();
  }
  return centers;
}

Result<OversampledCandidates> OversampleCandidates(
    const DatasetSource& data, int64_t k, rng::Rng rng,
    const KMeansLLOptions& options, ThreadPool* pool,
    const double* point_norms) {
  KMEANSLL_ASSIGN_OR_RETURN(double ell,
                            ResolveOversampling(options.oversampling, k));

  WallTimer timer;
  OversampledCandidates result;

  // Checkpoint/resume: every draw below is a pure function of
  // (rng root, round, point index), so a seeding checkpoint needs only
  // the candidate set and round potentials — the distance tracker is
  // rebuilt by replaying the stored candidates, which is bitwise the
  // incremental update sequence (ascending candidate order both ways).
  const bool ckpt_enabled = !options.checkpoint_path.empty();
  const int64_t ckpt_every =
      std::max<int64_t>(1, options.checkpoint_every);
  uint64_t ckpt_fp = 0;
  if (ckpt_enabled) {
    ckpt_fp = rng::HashCombine(rng.root_key(),
                               static_cast<uint64_t>(data.n()));
    ckpt_fp = rng::HashCombine(ckpt_fp, static_cast<uint64_t>(data.dim()));
    ckpt_fp = rng::HashCombine(ckpt_fp, static_cast<uint64_t>(k));
    ckpt_fp = rng::HashCombine(ckpt_fp, std::bit_cast<uint64_t>(ell));
    ckpt_fp = rng::HashCombine(ckpt_fp,
                               static_cast<uint64_t>(options.rounds));
    ckpt_fp = rng::HashCombine(ckpt_fp, options.exact_ell ? 1u : 0u);
  }

  Matrix candidates(data.dim());
  int64_t start_round = 0;
  bool resumed = false;
  if (ckpt_enabled && FileExists(options.checkpoint_path)) {
    Result<data::TrainingCheckpoint> loaded =
        data::LoadCheckpoint(options.checkpoint_path);
    if (!loaded.ok()) {
      KMEANSLL_LOG(Warning)
          << "ignoring unreadable seeding checkpoint at '"
          << options.checkpoint_path
          << "': " << loaded.status().message();
    } else {
      data::TrainingCheckpoint ckpt = std::move(loaded).ValueOrDie();
      if (ckpt.phase == data::TrainingCheckpoint::Phase::kSeeding &&
          ckpt.fingerprint == ckpt_fp && ckpt.iteration > 0 &&
          ckpt.centers.cols() == data.dim() &&
          !ckpt.cost_history.empty()) {
        candidates = std::move(ckpt.centers);
        result.telemetry.round_potentials = std::move(ckpt.cost_history);
        result.telemetry.data_passes = ckpt.data_passes;
        start_round = ckpt.iteration;
        resumed = true;
      }
    }
  }

  if (!resumed) {
    // Step 1: one initial center, uniformly at random.
    rng::Rng init_rng = rng.Fork(rng::StreamPurpose::kInitialCenter);
    auto first = static_cast<int64_t>(init_rng.NextBounded(data.n()));
    PinnedBlock pin = data.Pin(first, first + 1);
    candidates.AppendRow(pin.view().Point(0));
  }

  // Step 2: ψ = φ_X(C). The tracker runs every round's distance update as
  // one blocked parallel pass (cached point norms, fused potential).
  MinDistanceTracker tracker(data, pool, point_norms);
  double psi;
  if (resumed) {
    // Replay the full candidate set; telemetry keeps the uninterrupted
    // run's counts (the replay is a recovery pass, not a logical one).
    tracker.AddCenters(candidates, 0);
    psi = result.telemetry.round_potentials.front();
  } else {
    psi = tracker.AddCenters(candidates, 0);
    result.telemetry.data_passes = 1;
    result.telemetry.round_potentials.push_back(psi);
  }

  const int64_t rounds = ResolveRounds(options.rounds, psi);
  const auto ell_int =
      static_cast<int64_t>(std::llround(std::ceil(ell)));

  // Steps 3–6: r rounds of oversampled D² selection.
  for (int64_t round = start_round; round < rounds; ++round) {
    KMEANSLL_TRACE_SPAN("seeding.round");
    const double phi = tracker.Potential();
    if (!(phi > 0.0)) break;  // every point coincides with a candidate

    // Randomness for round `round` is a pure function of
    // (seed, round, point index): reproducible under any partitioning.
    const uint64_t round_seed = rng::HashCombine(
        rng.Fork(rng::StreamPurpose::kRoundSampling, round).root_key(),
        static_cast<uint64_t>(round));

    std::vector<int64_t> chosen;
    if (options.exact_ell) {
      rng::WeightedReservoir reservoir(
          ell_int, rng.Fork(rng::StreamPurpose::kRoundSampling, round));
      // The sampling pass touches only weights and tracker state;
      // streamed block by block in ascending row order.
      ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
        for (int64_t b = 0; b < v.rows(); ++b) {
          const int64_t i = v.first_row() + b;
          double w = v.Weight(b) * tracker.Distance2(i);
          if (!(w > 0.0)) continue;
          // Key derived from per-point hashed uniform => deterministic.
          double u =
              rng::UniformAtIndex(round_seed, static_cast<uint64_t>(i));
          while (u <= 0.0) {
            u = rng::UniformAtIndex(round_seed ^ 0x5bf0,
                                    static_cast<uint64_t>(i));
          }
          reservoir.OfferWithUniform(i, w, u);
        }
      });
      chosen = reservoir.Items();
      std::sort(chosen.begin(), chosen.end());
    } else {
      ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
        for (int64_t b = 0; b < v.rows(); ++b) {
          const int64_t i = v.first_row() + b;
          double p = ell * v.Weight(b) * tracker.Distance2(i) / phi;
          if (p <= 0.0) continue;
          double u =
              rng::UniformAtIndex(round_seed, static_cast<uint64_t>(i));
          if (u < p) chosen.push_back(i);
        }
      });
    }

    int64_t previous = candidates.rows();
    // `chosen` is sorted: the gather pins each run of consecutive rows
    // once and block-copies it, touching only the chosen rows.
    candidates.AppendRows(GatherPoints(data, chosen));
    tracker.AddCenters(candidates, previous);
    result.telemetry.data_passes += 2;  // sampling pass + distance update
    result.telemetry.round_potentials.push_back(tracker.Potential());

    if (ckpt_enabled && (round + 1) % ckpt_every == 0) {
      // The last round checkpoints too: a crash between seeding and
      // Lloyd then re-does only the cheap Steps 7–8 on resume.
      data::TrainingCheckpoint ckpt;
      ckpt.phase = data::TrainingCheckpoint::Phase::kSeeding;
      ckpt.fingerprint = ckpt_fp;
      ckpt.iteration = round + 1;
      ckpt.centers = candidates;
      ckpt.cost_history = result.telemetry.round_potentials;
      ckpt.data_passes = result.telemetry.data_passes;
      KMEANSLL_RETURN_NOT_OK(
          data::SaveCheckpoint(ckpt, options.checkpoint_path,
                               &result.telemetry.checkpoint_write_retries));
      // Kill point for crash tests: dies only when armed, right after
      // the checkpoint became durable.
      KMEANSLL_RETURN_NOT_OK(fault::Check("seed.kill"));
    }
  }
  result.telemetry.rounds = rounds;
  result.telemetry.intermediate_centers = candidates.rows();

  // Step 7: w_x = total weight of points whose closest candidate is x.
  // tracker.ClosestCenter already holds the argmin over all candidates.
  std::vector<double> weights(static_cast<size_t>(candidates.rows()), 0.0);
  ForEachBlock(data, 0, data.n(), [&](const DatasetView& v) {
    for (int64_t b = 0; b < v.rows(); ++b) {
      int64_t c = tracker.ClosestCenter(v.first_row() + b);
      KMEANSLL_DCHECK(c >= 0);
      weights[static_cast<size_t>(c)] += v.Weight(b);
    }
  });
  result.telemetry.data_passes += 1;
  result.telemetry.sampling_seconds = timer.ElapsedSeconds();

  // Every data-wide pass is behind us: surface a degraded source as a
  // clean error (a bad shard fails the seeding, never the process), and
  // retire the checkpoint — the run is past the expensive phase.
  KMEANSLL_RETURN_NOT_OK(data.status());
  if (ckpt_enabled) (void)RemoveFileIfExists(options.checkpoint_path);

  result.candidates = std::move(candidates);
  result.weights = std::move(weights);
  return result;
}

}  // namespace internal

Result<InitResult> KMeansLLInit(const DatasetSource& data, int64_t k,
                                rng::Rng rng,
                                const KMeansLLOptions& options,
                                ThreadPool* pool, const double* point_norms) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (k > data.n()) {
    return Status::InvalidArgument("k=" + std::to_string(k) +
                                   " exceeds n=" + std::to_string(data.n()));
  }
  if (options.rounds != KMeansLLOptions::kAutoRounds && options.rounds < 0) {
    return Status::InvalidArgument("rounds must be >= 0 or kAutoRounds");
  }

  // Steps 1–7.
  KMEANSLL_ASSIGN_OR_RETURN(
      internal::OversampledCandidates sampled,
      internal::OversampleCandidates(data, k, rng, options, pool,
                                     point_norms));
  InitResult result;
  result.telemetry = std::move(sampled.telemetry);

  // Step 8: recluster to k (skipped when we undershot; see header).
  if (sampled.candidates.rows() <= k) {
    if (sampled.candidates.rows() < k) {
      KMEANSLL_LOG(Warning)
          << "k-means|| selected " << sampled.candidates.rows()
          << " candidates < k=" << k
          << " (r*ell too small); returning them without reclustering";
    }
    result.centers = std::move(sampled.candidates);
    return result;
  }

  KMEANSLL_ASSIGN_OR_RETURN(
      result.centers,
      internal::ReclusterCandidates(sampled.candidates, sampled.weights, k,
                                    rng, options, &result.telemetry));
  return result;
}

Result<InitResult> KMeansLLInit(const Dataset& data, int64_t k,
                                rng::Rng rng,
                                const KMeansLLOptions& options,
                                ThreadPool* pool, const double* point_norms) {
  InMemorySource source = data.AsSource();
  return KMeansLLInit(source, k, rng, options, pool, point_norms);
}

}  // namespace kmeansll
