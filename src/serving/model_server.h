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
// RequestBatcher is the admission gate in front of single-point
// queries. Every admitted query scans on its caller's thread
// (CenterIndex::AssignOne on the snapshot current at that moment), so
// concurrent callers scan in parallel and no caller waits on a timer or
// on another caller's scan. Queries are not coalesced into multi-row
// scans: on perfbench serve_zipf and bench/bm_serving.cc's thread
// benchmarks, no coalescing rule that waits for company beat scanning
// each query at once.
//
// Under sustained overload the batcher degrades gracefully instead of
// letting latency grow without bound: RequestBatcherOptions::max_pending
// caps the admitted-but-unanswered backlog and max_latency_us adds
// deadline-aware admission, with over-limit queries shed immediately as
// kUnavailable plus a retry-after hint (see Assign). Shedding is the
// serving-side analogue of the training side's fail-clean I/O policy:
// overload surfaces as a clean, retryable error, never as unbounded
// latency or an aborted process.

#ifndef KMEANSLL_SERVING_MODEL_SERVER_H_
#define KMEANSLL_SERVING_MODEL_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

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
  /// High-QPS readers may hold one Acquire across many queries.
  std::shared_ptr<const CenterIndex> Acquire() const;

  /// Version tag of the current snapshot.
  uint64_t published_version() const { return Acquire()->version(); }

  /// Installs `next` as the served snapshot (build-then-swap; the swap
  /// itself is one pointer swap under the snapshot mutex). The
  /// replacement must match the current snapshot's dimension — the
  /// batcher fixed its query dimension from it — but may change k freely.
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

/// Admission settings for RequestBatcher.
struct RequestBatcherOptions {
  /// Ignored: queries no longer coalesce. Kept because perfbench sets it.
  bool adaptive_batch = false;
  /// Backpressure: upper bound on queries admitted but not yet answered
  /// (scanning on their callers' threads). At the bound, Assign sheds the
  /// query with kUnavailable instead of letting the backlog — and
  /// therefore every caller's latency — grow without limit. 0 disables
  /// (admit everything).
  int64_t max_pending = 0;
  /// Deadline-aware admission: target end-to-end latency in
  /// microseconds. A query is shed with kUnavailable when the batcher
  /// estimates it cannot be answered within this budget — the estimate
  /// is an EWMA of recent scan times, scaled by the backlog of admitted
  /// queries per core. Saying "no" immediately beats saying "here is
  /// your answer, late": the caller can retry, fall back, or shed its
  /// own load. 0 disables.
  int64_t max_latency_us = 0;
};

/// Admission control in front of a ModelServer's single-point queries.
/// Each admitted query scans on its caller's thread. Thread-safe; one
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
  /// answered and fully out of the object before members are torn down.
  ~RequestBatcher();

  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(RequestBatcher);

  /// Stops admitting: every later Assign is shed with kUnavailable.
  /// Queries admitted before the call are still answered (the "admitted
  /// queries are always answered" contract holds across shutdown).
  /// Idempotent; safe from any thread.
  void Shutdown();

  /// Nearest center of `point` (dim() coordinates) under the snapshot
  /// current when its scan starts: bitwise CenterIndex::AssignOne's
  /// answer, computed on the calling thread.
  ///
  /// Under overload (see RequestBatcherOptions::max_pending /
  /// max_latency_us) the query may be shed instead: the call returns
  /// kUnavailable immediately, without scanning, and the message carries
  /// a retry-after-style hint ("retry in ~Nus") derived from the
  /// current backlog. Admitted queries are always answered. The
  /// "batcher.scan" fault site (common/fault_injection.h) sits before
  /// the scan: kSlowIo delays an admitted query there, and any other
  /// injected kind is returned to its caller once its slot is retired,
  /// counted neither served nor shed.
  Result<NearestResult> Assign(const double* point);

  int64_t dim() const { return dim_; }

  /// Telemetry (monotonic since construction). queries = served + shed
  /// once the batcher is quiescent; deadline_misses counts admitted
  /// queries answered past max_latency_us anyway (the admission
  /// estimate is a heuristic, so misses are possible — they are
  /// telemetry for tuning, not a correctness signal).
  struct Stats {
    int64_t queries = 0;          ///< Assign calls (admitted + shed)
    /// Both equal served: one scan per query. Kept because perfbench
    /// reads them.
    int64_t batches = 0;
    int64_t batched_points = 0;
    int64_t served = 0;           ///< queries answered with a result
    int64_t shed = 0;             ///< queries rejected with kUnavailable
    int64_t deadline_misses = 0;  ///< served but past max_latency_us
  };
  Stats stats() const;

 private:
  /// Estimated microseconds until a query admitted now is answered;
  /// also the retry hint quoted in shed errors. Callers hold mu_.
  int64_t EstimatedLatencyUs() const;

  const ModelServer* server_;  // borrowed
  RequestBatcherOptions options_;
  int64_t dim_;
  int64_t cores_;  ///< ThreadPool::DefaultThreadCount(), for the estimate

  mutable std::mutex mu_;  // mutable: stats() is a const reader
  std::condition_variable drain_cv_;  ///< wakes ~RequestBatcher at drain
  Stats stats_;
  bool shutdown_ = false;     ///< set by Shutdown(); sheds new arrivals
  int64_t pending_ = 0;       ///< callers inside Assign, admitted not done
  int64_t ewma_scan_us_ = 0;  ///< smoothed scan time (0 until seen)
};

}  // namespace kmeansll::serving

#endif  // KMEANSLL_SERVING_MODEL_SERVER_H_
