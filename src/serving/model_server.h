// ModelServer + RequestBatcher: the online query path over CenterIndex
// snapshots.
//
// ModelServer is an RCU-style snapshot holder. Readers acquire the
// current CenterIndex as a shared_ptr and keep serving from it for as
// long as they hold the reference. Acquire copies the pointer under a
// mutex that only the pointer copy and the writers' pointer swap ever
// hold: a reader waits at most for one swap of two words, never for
// index construction. The EXPENSIVE part of a swap (building the
// replacement index: packing panels, computing norms) happens entirely
// before the swap, and the replaced snapshot is released after the
// mutex is dropped. std::atomic<std::shared_ptr> is deliberately not
// used: libstdc++ 12's load() releases its embedded lock bit with a
// relaxed RMW, so a reader's plain read of the stored pointer is not
// ordered before a writer's next plain write — a data race under the C++
// memory model, which gcc's ThreadSanitizer reports against the hot-swap
// test. Writers build a complete replacement index off to the side and
// install it with that one swap ("build-then-swap"), so a hot model swap
// never blocks a reader behind index construction and a reader never
// observes a half-updated model: queries in flight finish on the old
// snapshot, queries that acquire after the swap see the new one, and the
// old index is freed when its last reader drops it.
// bench/bm_serving.cc's SwapUnderLoad measures the real cost: reader QPS
// under continuous swaps vs. undisturbed. This is the multi-version read
// path the serving layer needs when a background refinement pass
// (minibatch/streaming) periodically republishes centers (cf. snapshot-
// versioned index structures like MV-PBT: lookups proceed untouched
// while a writer installs the next version).
//
// RequestBatcher closes the throughput gap between "one point at a time"
// and the batch engine. Concurrent single-point queries coalesce into
// one contiguous block under a latency bound: the first caller in
// becomes the batch's leader and waits up to max_delay_us for followers,
// then runs ONE engine pass (CenterIndex::AssignRange over the frozen
// panels) for the whole batch and hands each caller its slot. Per-point
// work drops from a one-row panel scan to a blocked, register-tiled scan
// that reuses each panel across the batch's rows — bench/bm_serving.cc
// measures the difference. Every batch acquires its snapshot at flush
// time, so a batcher transparently follows hot swaps.
//
// Under sustained overload the batcher degrades gracefully instead of
// queueing without bound: RequestBatcherOptions::max_pending caps the
// admitted-but-unanswered backlog and max_latency_us adds
// deadline-aware admission, with over-limit queries shed immediately as
// kUnavailable plus a retry-after hint (see Assign). Shedding is the
// serving-side analogue of the training side's fail-clean I/O policy:
// overload surfaces as a clean, retryable error, never as unbounded
// latency or an aborted process.

#ifndef KMEANSLL_SERVING_MODEL_SERVER_H_
#define KMEANSLL_SERVING_MODEL_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "clustering/minibatch.h"
#include "common/result.h"
#include "distance/nearest.h"
#include "matrix/dataset_view.h"
#include "rng/rng.h"
#include "serving/center_index.h"

namespace kmeansll::serving {

/// Holder of the currently served CenterIndex snapshot. Reader methods
/// (Acquire, published_version) are safe from any thread and hold the
/// snapshot mutex only for one shared_ptr copy (see the file comment);
/// writer methods (Publish, Refine*) serialize among themselves on a
/// separate writer mutex that readers never touch.
class ModelServer {
 public:
  /// Starts serving `initial` (must be non-null).
  explicit ModelServer(std::shared_ptr<const CenterIndex> initial);

  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(ModelServer);

  /// The current snapshot. The returned reference keeps the snapshot
  /// alive across any number of queries; re-Acquire to observe swaps.
  /// High-QPS readers should hold one Acquire across many queries (the
  /// batcher acquires once per flushed batch, not per point).
  std::shared_ptr<const CenterIndex> Acquire() const;

  /// Version tag of the current snapshot.
  uint64_t published_version() const { return Acquire()->version(); }

  /// Installs `next` as the served snapshot (build-then-swap; the swap
  /// itself is one pointer swap under the snapshot mutex). The
  /// replacement must match the current snapshot's dimension — in-flight
  /// batched queries were validated against it — but may change k freely.
  /// Fails on null or dim mismatch; on failure the served snapshot is
  /// unchanged.
  Status Publish(std::shared_ptr<const CenterIndex> next);

  /// Loads a KMLLMODL artifact from `path` and publishes it as the next
  /// snapshot (version = published_version() + 1). Any failure — the
  /// artifact is unreadable, corrupt (CRC), empty, or its dimension does
  /// not match the served model — leaves the current snapshot serving
  /// untouched and bumps stats().publish_failed: a torn or wrong file on
  /// disk degrades to a refused swap, never to a broken reader.
  Status PublishFromFile(const std::string& path);

  /// Builds the next model from the current one. The hook sees the
  /// current snapshot and returns refined centers (e.g. one
  /// minibatch/streaming pass); the server builds a fresh index tagged
  /// version + 1 and publishes it. Refiners are serialized; readers are
  /// never blocked. On hook failure nothing is published.
  using RefineFn = std::function<Result<Matrix>(const CenterIndex&)>;
  Status Refine(const RefineFn& fn);

  /// RefineLoop convenience: folds one mini-batch refinement pass over
  /// `data` (options.iterations stochastic updates starting from the
  /// served centers) into a fresh snapshot. Call periodically from a
  /// background thread to keep the served model tracking new data.
  Status RefineWithMiniBatch(const DatasetSource& data,
                             const MiniBatchOptions& options,
                             uint64_t seed);

  /// Freshness-SLO degrade signal: the refine loop (serving/freshness.h)
  /// sets this when it cannot republish within its SLO — the server
  /// keeps answering from the last good snapshot ("serving stale"), and
  /// the flag surfaces the degradation in stats()/TenantStats instead
  /// of hiding it. Any successful Publish/Refine clears it.
  void MarkStale(bool stale) {
    serving_stale_.store(stale, std::memory_order_relaxed);
  }
  bool serving_stale() const {
    return serving_stale_.load(std::memory_order_relaxed);
  }

  /// Writer-side telemetry (monotonic since construction). Each cell is
  /// an independent atomic counter, so stats() is safe from any thread
  /// and never touches writer_mu_; the snapshot is per-cell consistent,
  /// not cross-cell (a concurrent Publish may be counted in publishes
  /// before its sibling cells settle).
  struct Stats {
    int64_t publishes = 0;       ///< successful snapshot swaps
    int64_t publish_failed = 0;  ///< refused swaps (null/dim/corrupt file)
    int64_t refines = 0;         ///< successful Refine* passes
    int64_t refine_failed = 0;   ///< Refine* passes that published nothing
    bool serving_stale = false;  ///< freshness SLO missed (see MarkStale)
    int64_t staleness_ms = 0;    ///< ms since the last successful publish
                                 ///< (construction counts as a publish)
  };
  Stats stats() const;

 private:
  /// Stamps "a fresh snapshot was just installed" (publish time + clear
  /// the stale flag). Callers hold writer_mu_ or are the constructor.
  void StampPublish();

  /// Swaps `next` in as the served snapshot; the replaced one is
  /// released after snapshot_mu_ is dropped. Callers hold writer_mu_.
  void Install(std::shared_ptr<const CenterIndex> next);

  mutable std::mutex snapshot_mu_;  // guards snapshot_ only
  std::shared_ptr<const CenterIndex> snapshot_;
  std::mutex writer_mu_;  // serializes Publish/Refine, never readers
  std::atomic<int64_t> publishes_{0};
  std::atomic<int64_t> publish_failed_{0};
  std::atomic<int64_t> refines_{0};
  std::atomic<int64_t> refine_failed_{0};
  std::atomic<bool> serving_stale_{false};
  std::atomic<int64_t> last_publish_ns_{0};  ///< steady_clock nanos
};

/// Tuning knobs for RequestBatcher.
struct RequestBatcherOptions {
  /// Flush as soon as this many queries have coalesced.
  int64_t max_batch = 64;
  /// Leader's wait bound: a query is answered at most ~this much later
  /// than it would be unbatched (plus the batch's own scan time).
  int64_t max_delay_us = 200;
  /// Quiescence flush: the leader closes the batch once no new query
  /// has joined for this long, instead of sitting out the whole
  /// max_delay_us. In the common regime — a bounded set of serving
  /// threads that all re-enter the batcher as soon as their previous
  /// query completes — the batch reaches the natural concurrency within
  /// microseconds and then goes quiet; waiting further only adds
  /// latency. The window is measured from the batch's most recent join
  /// (a spurious or early leader wakeup re-arms the wait rather than
  /// closing a batch whose idle window has not actually elapsed).
  /// 0 disables (wait for full or deadline).
  int64_t idle_close_us = 20;
  /// Adaptive sizing: when true, the batch-full threshold tracks the
  /// joins the batcher observes instead of sitting at max_batch. Each
  /// batch opens with limit clamp(expected joins + 1, min_batch,
  /// max_batch), where the expectation is an EWMA of how many queries
  /// joined, or would have joined, each recent leader before its close:
  /// queries that found another caller in flight and arrived inside the
  /// leader's wait window (before max_delay_us and, when idle_close_us >
  /// 0, within idle_close_us of the previous arrival). Sparse or
  /// sequential traffic, where fewer than one join is expected, opens at
  /// min_batch, so a lone leader flushes at once instead of waiting for
  /// a follower that does not come; a burst of concurrent callers opens
  /// at its observed size and flushes as its last member joins; under
  /// sustained load the limit grows to max_batch and the engine gets
  /// full panels. max_batch stays the hard ceiling; results are
  /// unaffected (batch splits never change per-pair values).
  bool adaptive_batch = false;
  /// Floor for the adaptive limit (only read when adaptive_batch).
  int64_t min_batch = 1;
  /// Backpressure: upper bound on queries admitted but not yet answered
  /// (queued in an open batch or in a batch being scanned). At the
  /// bound, Assign sheds the query with kUnavailable instead of letting
  /// the backlog — and therefore every caller's latency — grow without
  /// limit. 0 disables (admit everything; the pre-backpressure
  /// behavior).
  int64_t max_pending = 0;
  /// Deadline-aware admission: target end-to-end latency in
  /// microseconds. A query is shed with kUnavailable when the batcher
  /// estimates it cannot be answered within this budget — the estimate
  /// is the coalescing delay plus an EWMA of recent batch scan times,
  /// scaled by how many full batches are already queued ahead. Saying
  /// "no" immediately beats saying "here is your answer, late": the
  /// caller can retry, fall back, or shed its own load. 0 disables.
  int64_t max_latency_us = 0;
};

/// Coalesces concurrent single-point Assign calls into batch-engine
/// passes against a ModelServer's current snapshot. Thread-safe; one
/// batcher is meant to be shared by all serving threads.
class RequestBatcher {
 public:
  /// Binds to `server` (borrowed; must outlive the batcher). The point
  /// dimension is fixed from the current snapshot — Publish enforces
  /// that it never changes.
  RequestBatcher(const ModelServer* server,
                 const RequestBatcherOptions& options);

  /// Drains safely: marks the batcher shut down (equivalent to
  /// Shutdown()) and blocks until every in-flight Assign has returned.
  /// Callers must not START a new Assign concurrently with destruction
  /// (standard object lifetime), but calls already inside Assign are
  /// answered, woken, and fully out of the object before members are
  /// torn down.
  ~RequestBatcher();

  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(RequestBatcher);

  /// Stops admitting: every later Assign is shed with kUnavailable, and
  /// a leader currently parked waiting for followers is woken to flush
  /// its batch immediately. Queries admitted before the call are still
  /// answered (the "admitted queries are always answered" contract
  /// holds across shutdown). Idempotent; safe from any thread.
  void Shutdown();

  /// Nearest center of `point` (dim() coordinates) under the snapshot
  /// current at the batch's flush. Blocks until the result is ready —
  /// at most ~max_delay_us of coalescing plus one batched scan. Results
  /// are bitwise the unbatched AssignOne answers: the engine's per-pair
  /// values do not depend on which batch a point lands in.
  ///
  /// Under overload (see RequestBatcherOptions::max_pending /
  /// max_latency_us) the query may be shed instead: the call returns
  /// kUnavailable immediately, without queuing, and the message carries
  /// a retry-after-style hint ("retry in ~Nus") derived from the
  /// current backlog. Admitted queries are always answered.
  Result<NearestResult> Assign(const double* point);

  int64_t dim() const { return dim_; }

  /// Telemetry (monotonic since construction). queries = served + shed
  /// once the batcher is quiescent; deadline_misses counts admitted
  /// queries whose batch finished past max_latency_us anyway (the
  /// admission estimate is a heuristic, so misses are possible — they
  /// are telemetry for tuning, not a correctness signal).
  struct Stats {
    int64_t queries = 0;          ///< Assign calls (admitted + shed)
    int64_t batches = 0;          ///< engine passes flushed
    int64_t batched_points = 0;   ///< points across all flushed batches
    int64_t largest_batch = 0;    ///< max coalesced batch size seen
    int64_t served = 0;           ///< queries answered with a result
    int64_t shed = 0;             ///< queries rejected with kUnavailable
    int64_t deadline_misses = 0;  ///< served but past max_latency_us
    /// Batch-full threshold the next batch would open with: max_batch
    /// when adaptive sizing is off, the current join-derived limit in
    /// [min_batch, max_batch] when it is on.
    int64_t adaptive_batch_limit = 0;
  };
  Stats stats() const;

 private:
  /// One coalescing generation, shared by its leader and followers; the
  /// batcher itself only references the currently joinable one.
  struct Batch {
    std::vector<double> points;          ///< rows · dim, contiguous
    std::vector<NearestResult> results;  ///< filled by the leader
    int64_t rows = 0;
    int64_t limit = 0;    ///< batch-full threshold fixed at open
    bool closed = false;  ///< no further joins (full or deadline)
    bool done = false;    ///< results ready for pickup
    std::chrono::steady_clock::time_point opened;     ///< leader's join time
    std::chrono::steady_clock::time_point last_join;  ///< newest join time
  };

  /// Estimated microseconds until a query admitted now is answered;
  /// also the retry hint quoted in shed errors. Callers hold mu_.
  int64_t EstimatedLatencyUs() const;

  /// Batch-full threshold for a batch opening now (see
  /// RequestBatcherOptions::adaptive_batch). Callers hold mu_.
  int64_t EffectiveBatchLimit() const;

  const ModelServer* server_;  // borrowed
  RequestBatcherOptions options_;
  int64_t dim_;

  mutable std::mutex mu_;  // mutable: stats() is a const reader
  std::condition_variable leader_cv_;  ///< wakes leaders (fill/shutdown)
  std::condition_variable done_cv_;    ///< wakes followers when results land
  std::condition_variable drain_cv_;   ///< wakes ~RequestBatcher at drain
  std::shared_ptr<Batch> open_;        ///< batch currently accepting joins
  Stats stats_;
  bool shutdown_ = false;     ///< set by Shutdown(); sheds new arrivals
  int64_t pending_ = 0;       ///< callers inside Assign, admitted not done
  int64_t ewma_scan_us_ = 0;  ///< smoothed batch scan time (0 until seen)
  // Join chains (adaptive sizing only; see Assign). A chain is a run of
  // admissions each of which would have joined a batch opened at its
  // first; chain_joins_ counts the running chain's joins.
  std::chrono::steady_clock::time_point last_arrival_;  ///< newest admit
  std::chrono::steady_clock::time_point chain_start_;   ///< chain's first
  int64_t chain_joins_ = 0;
  double ewma_joins_ = -1;  ///< smoothed joins per ended chain (< 0: none)
};

}  // namespace kmeansll::serving

#endif  // KMEANSLL_SERVING_MODEL_SERVER_H_
