// RefineLoop: the freshness leg of the continuous-ingest pipeline
// (docs/ARCHITECTURE.md "Ingest & freshness").
//
// A LiveDataset keeps growing while a ModelServer keeps answering from
// a snapshot trained on yesterday's rows. The RefineLoop closes that
// gap: each cycle it measures the served model's cost-per-point on the
// CURRENT data, compares it against an EWMA of the loop's own
// post-refine baseline, and picks the cheapest repair that restores
// freshness —
//
//   drift small:  mini-batch SGD from the served centers (Sculley's
//                 Algorithm 1 — a few sampled batches), then one full
//                 cost pass for the post-refine cost-per-point
//   drift large:  full k-means|| re-seed + Lloyd (the paper's
//                 pipeline), because SGD from a stale basin cannot
//                 escape it once the data has genuinely moved
//
// The result republishes through ModelServer::Refine, so readers are
// never blocked (RCU snapshot swap) and the version advances.
//
// Every pass of a cycle runs on the loop's one ThreadPool (the re-seed
// Fit with as many threads of its own) over the rows [0, n) the cycle
// began with, however far the source grows meanwhile. The minibatch's
// cost pass records each row's w·d² (8 bytes per row); when the next
// cycle finds the server still serving bitwise those centers, its drift
// pass scores only the rows appended since and folds all n on the same
// fixed chunk grid, so the drift value is bitwise the full pass's. Any
// other served snapshot gets the full pass. Each pass is pool-invariant,
// so centers, checkpoints and cost history do not depend on the pool
// size.
//
// Crash safety mirrors the training checkpoints: each cycle persists a
// small "KMLLFRSH" artifact (cycle counter, data watermark, EWMA, the
// new centers, cost history; CRC-framed, temp+fsync+rename) BEFORE
// publishing. Recover() republishes the checkpointed centers and
// restores the loop state, so the sequence
//     checkpoint → crash → Recover
// converges to the same served model as checkpoint → publish: the
// publish is idempotent and the cycle counter (which seeds each
// cycle's RNG) never reuses a seed. Cycle seeds derive from
// (options.seed, cycle), never wall clock, so a recovered loop's
// future refinements are bitwise the uninterrupted run's.
//
// Freshness SLO: the background thread (Start/Stop) also watches the
// server's time-since-last-publish; past options.freshness_slo_ms it
// flips ModelServer::MarkStale, which surfaces in TenantStats as
// "serving stale" — the tenant degrades visibly to the last good
// snapshot instead of silently serving drift.
//
// Fault sites: "freshness.refine" (cycle entry) and
// "freshness.checkpoint" (the checkpoint's AtomicWriteFile; transient
// failures are retried and counted in stats().checkpoint_retries).

#ifndef KMEANSLL_SERVING_FRESHNESS_H_
#define KMEANSLL_SERVING_FRESHNESS_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clustering/minibatch.h"
#include "common/result.h"
#include "core/kmeans.h"
#include "matrix/dataset_view.h"
#include "parallel/thread_pool.h"
#include "serving/model_server.h"

namespace kmeansll::serving {

struct RefineLoopOptions {
  /// Root seed; cycle c refines with HashCombine(seed, c), so the
  /// trajectory is a pure function of (seed, cycle history) and a
  /// crash-recovered loop continues bitwise.
  uint64_t seed = 42;

  /// A cycle is a no-op (skipped, not failed) unless at least this many
  /// rows arrived since the last refined watermark.
  int64_t min_new_rows = 1;

  /// Reseed trigger: run the full pipeline when the served model's
  /// cost-per-point exceeds ratio * EWMA(post-refine cost-per-point),
  /// an EWMA that weighs the newest cycle 0.25. Until the first cycle
  /// establishes a baseline, minibatch is used.
  double drift_reseed_ratio = 1.5;

  /// The cheap repair: mini-batch SGD from the served centers.
  MiniBatchOptions minibatch;
  /// The expensive repair: a full re-seed pipeline (k, k-means||
  /// options, Lloyd budget). `reseed.seed` is overridden per cycle.
  /// `reseed.num_threads` sizes the loop's pool, which runs every pass
  /// of a cycle, and the re-seed Fit runs with as many threads; 0 (the
  /// default) means ThreadPool::DefaultThreadCount().
  KMeansConfig reseed;

  /// Crash-resume checkpoint path; empty disables checkpointing (and
  /// Recover() becomes a no-op).
  std::string checkpoint_path;

  /// Mark the server stale once this many ms pass without a publish
  /// (0 disables). Only the background thread enforces it.
  int64_t freshness_slo_ms = 0;
  /// Background thread poll interval.
  int64_t tick_ms = 20;
};

/// Loop telemetry. A copy under the loop's mutex: cross-field
/// consistent, taken between (never during) cycles.
struct RefineStats {
  int64_t cycles = 0;             ///< RunOnce calls that refined
  int64_t skipped = 0;            ///< RunOnce calls below min_new_rows
  int64_t minibatch_refines = 0;  ///< cycles repaired by SGD
  int64_t reseeds = 0;            ///< cycles repaired by full re-seed
  int64_t failures = 0;           ///< cycles that returned non-OK
  int64_t checkpoint_retries = 0; ///< transient checkpoint-write retries
  int64_t recoveries = 0;         ///< Recover() calls that restored state
  int64_t slo_misses = 0;         ///< ticks that found the SLO blown
  double last_cost_per_point = 0; ///< post-refine, newest cycle
  /// The newest cycle's drift measurement: the model served when it
  /// began, scored on its rows (ComputeCost / n, bitwise).
  double served_cost_per_point = 0;
  double ewma_cost_per_point = 0; ///< the drift baseline
  int64_t watermark = 0;          ///< rows covered by the served model
};

/// Binds one ModelServer to one growing DatasetSource. Both pointers
/// must outlive the loop. The source may grow at any time, but only by
/// appending: rows it already holds never change. RunOnce/Recover are
/// serialized internally and safe to call concurrently with the
/// background thread; the server and dataset are only touched through
/// their own thread-safe interfaces.
class RefineLoop {
 public:
  RefineLoop(ModelServer* server, const DatasetSource* data,
             const RefineLoopOptions& options);
  ~RefineLoop();  // Stops the background thread.

  RefineLoop(const RefineLoop&) = delete;
  RefineLoop& operator=(const RefineLoop&) = delete;

  /// Restores loop state from the checkpoint (if any) and republishes
  /// its centers — the crash-recovery entry point, called before
  /// Start(). A missing, corrupt, or mismatched-fingerprint checkpoint
  /// is ignored (the loop starts fresh); only I/O-level read failures
  /// and a failed republish surface as errors.
  Status Recover();

  /// One deterministic refine cycle: measure drift, repair (minibatch
  /// or reseed), checkpoint, republish, advance the watermark. OK when
  /// the cycle was skipped for lack of new rows.
  Status RunOnce();

  /// Starts/stops the background thread (idempotent). Each tick it
  /// enforces the freshness SLO and runs a cycle when enough new rows
  /// arrived.
  void Start();
  void Stop();

  RefineStats stats() const;
  /// Post-refine cost-per-point of every completed cycle, oldest first
  /// (persisted in the checkpoint, so it survives crashes).
  std::vector<double> cost_history() const;

 private:
  Status RunOnceLocked();
  Status WriteCheckpointLocked(const Matrix& centers);
  uint64_t Fingerprint() const;

  ModelServer* const server_;
  const DatasetSource* const data_;
  const RefineLoopOptions options_;

  mutable std::mutex mu_;  // loop state + cycle serialization
  int64_t cycle_ = 0;
  int64_t watermark_ = 0;
  double ewma_ = 0;
  std::vector<double> cost_history_;
  RefineStats stats_;
  std::unique_ptr<ThreadPool> pool_;  // made by the first cycle
  // Drift cache: row_costs_[i] is row i's w·d² against scored_centers_
  // for i < scored_rows_, the loop's own last minibatch publish (0 rows
  // when the server may serve anything else).
  std::vector<double> row_costs_;
  Matrix scored_centers_;
  int64_t scored_rows_ = 0;

  std::mutex thread_mu_;  // Start/Stop + tick wakeup
  std::condition_variable tick_cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
};

}  // namespace kmeansll::serving

#endif  // KMEANSLL_SERVING_FRESHNESS_H_
