#include "serving/model_server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "data/model_io.h"

namespace kmeansll::serving {

namespace {
int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide serving totals, mirrored from the per-instance atomic
// cells (ModelServer::Stats / RequestBatcher::Stats stay the exact
// per-instance source of truth the tests assert on).
Counter* PublishesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "kmll_serving_publishes_total",
      "Model snapshots installed (publishes plus refines).");
  return c;
}
Counter* PublishFailedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "kmll_serving_publish_failed_total",
      "Publish attempts rejected with the old snapshot left serving.");
  return c;
}
Counter* RefinesCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "kmll_serving_refines_total",
      "In-place refinements built and swapped in.");
  return c;
}
Counter* RefineFailedCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "kmll_serving_refine_failed_total",
      "Refinements rejected before any swap.");
  return c;
}

struct BatcherMetrics {
  Counter* queries;
  Counter* batches;
  Counter* served;
  Counter* shed;
  Counter* deadline_misses;
};
const BatcherMetrics& GetBatcherMetrics() {
  static const BatcherMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new BatcherMetrics{
        r.GetCounter("kmll_batcher_queries_total",
                     "Single-point queries entering request batchers."),
        r.GetCounter("kmll_batcher_batches_total",
                     "Coalesced batches flushed through AssignRange."),
        r.GetCounter("kmll_batcher_served_total",
                     "Queries answered by a flushed batch."),
        r.GetCounter("kmll_batcher_shed_total",
                     "Queries shed by admission control or shutdown."),
        r.GetCounter("kmll_batcher_deadline_misses_total",
                     "Served queries whose batch exceeded the latency "
                     "target."),
    };
  }();
  return *m;
}
}  // namespace

ModelServer::ModelServer(std::shared_ptr<const CenterIndex> initial)
    : snapshot_(std::move(initial)) {
  KMEANSLL_CHECK(snapshot_ != nullptr);
  StampPublish();
}

std::shared_ptr<const CenterIndex> ModelServer::Acquire() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void ModelServer::Install(std::shared_ptr<const CenterIndex> next) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(next);
  }
  // `next` now holds the replaced snapshot; if this was its last
  // reference it is freed here, outside the readers' lock.
}

void ModelServer::StampPublish() {
  last_publish_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  serving_stale_.store(false, std::memory_order_relaxed);
}

Status ModelServer::Publish(std::shared_ptr<const CenterIndex> next) {
  KMEANSLL_TRACE_SPAN("serving.publish");
  if (next == nullptr) {
    publish_failed_.fetch_add(1, std::memory_order_relaxed);
    PublishFailedCounter()->Increment();
    return Status::InvalidArgument("cannot publish a null snapshot");
  }
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const std::shared_ptr<const CenterIndex> current = Acquire();
  if (next->dim() != current->dim()) {
    publish_failed_.fetch_add(1, std::memory_order_relaxed);
    PublishFailedCounter()->Increment();
    return Status::InvalidArgument(
        "snapshot dimension " + std::to_string(next->dim()) +
        " does not match served dimension " +
        std::to_string(current->dim()));
  }
  Install(std::move(next));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  PublishesCounter()->Increment();
  StampPublish();
  return Status::OK();
}

Status ModelServer::PublishFromFile(const std::string& path) {
  // Load and build entirely outside the swap: every validation failure
  // (unreadable file, CRC mismatch from a torn write, empty artifact,
  // wrong dimension via Publish) returns here with the old snapshot
  // still installed and still serving.
  Result<data::ModelArtifact> artifact = data::LoadModel(path);
  if (!artifact.ok()) {
    publish_failed_.fetch_add(1, std::memory_order_relaxed);
    PublishFailedCounter()->Increment();
    return artifact.status();
  }
  // The replacement inherits the served snapshot's CenterIndexOptions, so
  // a tenant published onto a pruned index stays pruned across file swaps.
  Result<std::shared_ptr<const CenterIndex>> next = CenterIndex::FromModel(
      artifact.ValueOrDie(), Acquire()->options(), published_version() + 1);
  if (!next.ok()) {
    publish_failed_.fetch_add(1, std::memory_order_relaxed);
    PublishFailedCounter()->Increment();
    return next.status();
  }
  return Publish(std::move(next).ValueOrDie());
}

Status ModelServer::Refine(const RefineFn& fn) {
  KMEANSLL_TRACE_SPAN("serving.refine");
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const std::shared_ptr<const CenterIndex> current = Acquire();
  Result<Matrix> refined = fn(*current);
  if (!refined.ok()) {
    refine_failed_.fetch_add(1, std::memory_order_relaxed);
    RefineFailedCounter()->Increment();
    return refined.status();
  }
  Matrix next_centers = std::move(refined).ValueOrDie();
  if (next_centers.rows() <= 0) {
    refine_failed_.fetch_add(1, std::memory_order_relaxed);
    RefineFailedCounter()->Increment();
    return Status::InvalidArgument("refinement produced no centers");
  }
  if (next_centers.cols() != current->dim()) {
    refine_failed_.fetch_add(1, std::memory_order_relaxed);
    RefineFailedCounter()->Increment();
    return Status::InvalidArgument(
        "refinement changed the dimension from " +
        std::to_string(current->dim()) + " to " +
        std::to_string(next_centers.cols()));
  }
  // Build-then-swap: panels, norms, and (when enabled) the pruned
  // two-level index are packed here, outside any reader's path, and the
  // finished index is installed in one swap. Options carry over from
  // the current snapshot so refinement never silently drops pruning.
  Install(CenterIndex::Build(std::move(next_centers), current->options(),
                             current->version() + 1));
  refines_.fetch_add(1, std::memory_order_relaxed);
  publishes_.fetch_add(1, std::memory_order_relaxed);
  RefinesCounter()->Increment();
  PublishesCounter()->Increment();
  StampPublish();
  return Status::OK();
}

ModelServer::Stats ModelServer::stats() const {
  Stats out;
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.publish_failed = publish_failed_.load(std::memory_order_relaxed);
  out.refines = refines_.load(std::memory_order_relaxed);
  out.refine_failed = refine_failed_.load(std::memory_order_relaxed);
  out.serving_stale = serving_stale_.load(std::memory_order_relaxed);
  out.staleness_ms =
      (SteadyNowNs() - last_publish_ns_.load(std::memory_order_relaxed)) /
      1000000;
  return out;
}

Status ModelServer::RefineWithMiniBatch(const DatasetSource& data,
                                        const MiniBatchOptions& options,
                                        uint64_t seed) {
  return Refine([&](const CenterIndex& current) -> Result<Matrix> {
    KMEANSLL_ASSIGN_OR_RETURN(
        MiniBatchResult refined,
        RunMiniBatch(data, current.centers(), options, rng::Rng(seed)));
    return std::move(refined.centers);
  });
}

RequestBatcher::RequestBatcher(const ModelServer* server,
                               const RequestBatcherOptions& options)
    : server_(server), options_(options) {
  KMEANSLL_CHECK(server_ != nullptr);
  KMEANSLL_CHECK_GE(options_.max_batch, 1);
  KMEANSLL_CHECK_GE(options_.max_delay_us, 0);
  KMEANSLL_CHECK_GE(options_.idle_close_us, 0);
  KMEANSLL_CHECK_GE(options_.max_pending, 0);
  KMEANSLL_CHECK_GE(options_.max_latency_us, 0);
  KMEANSLL_CHECK_GE(options_.min_batch, 1);
  KMEANSLL_CHECK_LE(options_.min_batch, options_.max_batch);
  dim_ = server_->Acquire()->dim();
}

RequestBatcher::~RequestBatcher() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  leader_cv_.notify_all();
  // Every caller inside Assign holds a +1 on pending_ until it is fully
  // done touching this object (leaders through their flush, followers
  // through their wakeup), so pending_ == 0 means no thread can touch a
  // member after we return and destruction proceeds.
  drain_cv_.wait(lock, [&] { return pending_ == 0; });
}

void RequestBatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  // A parked leader re-checks shutdown_ in its wait predicate and
  // flushes what it has; there is nothing else to hand off.
  leader_cv_.notify_all();
}

int64_t RequestBatcher::EstimatedLatencyUs() const {
  // Coalescing delay plus one scan per full batch already ahead of a
  // query admitted now. Until the first flush lands there is no scan
  // estimate; treat it as free and let the EWMA take over.
  const int64_t batches_ahead = pending_ / std::max<int64_t>(
      options_.max_batch, 1) + 1;
  return options_.max_delay_us + ewma_scan_us_ * batches_ahead;
}

int64_t RequestBatcher::EffectiveBatchLimit() const {
  if (!options_.adaptive_batch) return options_.max_batch;
  // Joins a leader opening now can expect before it closes: the smoothed
  // join count of ended chains, or the running chain's when that is
  // larger (sustained load never ends a chain), rounded to the nearest
  // whole join (an EWMA of a steady count approaches it from one side).
  // Under half a join opens at the floor, so a lone leader does not wait
  // for nobody; otherwise the batch fills, and flushes, as the last
  // expected query joins.
  const double expected =
      std::max(ewma_joins_, static_cast<double>(chain_joins_));
  return std::clamp(static_cast<int64_t>(expected + 0.5) + 1,
                    options_.min_batch, options_.max_batch);
}

Result<NearestResult> RequestBatcher::Assign(const double* point) {
  std::shared_ptr<Batch> batch;
  int64_t slot = 0;
  bool leader = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.queries;
    GetBatcherMetrics().queries->Increment();
    // Admission control: shed before touching any batch state, so a
    // rejected query costs the caller one mutex round-trip and nothing
    // else. See RequestBatcherOptions::{max_pending, max_latency_us}.
    if (shutdown_) {
      ++stats_.shed;
      GetBatcherMetrics().shed->Increment();
      return Status::Unavailable("batcher is shut down");
    }
    if (options_.max_pending > 0 && pending_ >= options_.max_pending) {
      ++stats_.shed;
      GetBatcherMetrics().shed->Increment();
      return Status::Unavailable(
          "batcher overloaded: " + std::to_string(pending_) +
          " queries pending (max_pending=" +
          std::to_string(options_.max_pending) + "); retry in ~" +
          std::to_string(EstimatedLatencyUs()) + "us");
    }
    if (options_.max_latency_us > 0 &&
        EstimatedLatencyUs() > options_.max_latency_us) {
      ++stats_.shed;
      GetBatcherMetrics().shed->Increment();
      return Status::Unavailable(
          "batcher cannot meet the " +
          std::to_string(options_.max_latency_us) +
          "us latency target (estimated ~" +
          std::to_string(EstimatedLatencyUs()) + "us); retry in ~" +
          std::to_string(EstimatedLatencyUs()) + "us");
    }
    const auto arrived = std::chrono::steady_clock::now();
    if (options_.adaptive_batch) {
      // Join chains: a query that finds a batch open joins it. One that
      // finds none would have joined a batch opened at the start of the
      // current chain if another caller is still inside Assign (a
      // caller's own next query cannot join its batch) and it arrives
      // before that leader's max_delay_us deadline and, with an idle
      // close, within idle_close_us of the previous admission. So a
      // limit at the floor still sees the joins it forgoes. A join
      // extends the chain; anything else ends it and starts the next,
      // and the ended chain's join count feeds the EWMA (1/4 weight on
      // the newest, like the scan EWMA) behind EffectiveBatchLimit.
      bool joins = open_ != nullptr;
      if (!joins && pending_ > 0) {
        auto close_at =
            chain_start_ + std::chrono::microseconds(options_.max_delay_us);
        if (options_.idle_close_us > 0) {
          close_at = std::min(
              close_at, last_arrival_ + std::chrono::microseconds(
                                            options_.idle_close_us));
        }
        joins = arrived < close_at;
      }
      if (joins) {
        ++chain_joins_;
      } else {
        if (last_arrival_.time_since_epoch().count() != 0) {
          ewma_joins_ = ewma_joins_ < 0
                            ? static_cast<double>(chain_joins_)
                            : (3 * ewma_joins_ + chain_joins_) / 4;
        }
        chain_joins_ = 0;
        chain_start_ = arrived;
      }
      last_arrival_ = arrived;
    }
    if (open_ == nullptr) {
      open_ = std::make_shared<Batch>();
      open_->limit = EffectiveBatchLimit();
      open_->points.reserve(static_cast<size_t>(open_->limit * dim_));
      open_->opened = arrived;
      leader = true;
    }
    batch = open_;
    slot = batch->rows++;
    batch->last_join = arrived;
    batch->points.insert(batch->points.end(), point, point + dim_);
    ++pending_;
    if (batch->rows >= batch->limit) {
      // Full: stop accepting joins and wake the (possibly waiting)
      // leader so the flush happens now, not at the deadline.
      batch->closed = true;
      open_ = nullptr;
      leader_cv_.notify_all();
    }

    if (!leader) {
      done_cv_.wait(lock, [&] { return batch->done; });
      // Last touch of this object: the -1 on pending_ is what lets the
      // destructor proceed, so it must not happen before the result is
      // (about to be) read — the batch itself stays alive through our
      // shared_ptr either way.
      if (--pending_ == 0) drain_cv_.notify_all();
      return batch->results[static_cast<size_t>(slot)];
    }

    // Leader: give followers up to max_delay_us to coalesce — the wait
    // releases the lock, which is exactly what lets them join — and
    // flush early once the batch has been quiet for a full
    // idle_close_us window (measured from the newest join, so an early
    // or spurious wakeup re-arms the wait instead of closing a batch
    // whose idle window never elapsed). Shutdown wakes the leader and
    // flushes immediately: admitted queries are answered, not stranded
    // behind a deadline nobody will extend.
    if (!batch->closed && !shutdown_ && options_.max_delay_us > 0) {
      const auto deadline =
          batch->opened + std::chrono::microseconds(options_.max_delay_us);
      while (!batch->closed && !shutdown_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        auto wake = deadline;
        if (options_.idle_close_us > 0) {
          const auto quiet_at =
              batch->last_join +
              std::chrono::microseconds(options_.idle_close_us);
          if (now >= quiet_at) break;  // true elapsed quiescence
          wake = std::min(deadline, quiet_at);
        }
        leader_cv_.wait_until(lock, wake,
                              [&] { return batch->closed || shutdown_; });
      }
    }
    if (!batch->closed) {
      batch->closed = true;
      if (open_ == batch) open_ = nullptr;
    }
  }

  // Flush (outside the lock: followers of the *next* generation must be
  // able to coalesce while this batch scans). The snapshot is acquired
  // at flush time, so the whole batch is answered by one model version.
  const auto scan_start = std::chrono::steady_clock::now();
  const std::shared_ptr<const CenterIndex> snapshot = server_->Acquire();
  const int64_t rows = batch->rows;
  std::vector<int32_t> idx(static_cast<size_t>(rows));
  std::vector<double> d2(static_cast<size_t>(rows));
  {
    KMEANSLL_TRACE_SPAN("batcher.flush");
    snapshot->AssignRange(
        ConstMatrixView(batch->points.data(), rows, dim_),
        IndexRange{0, rows}, idx.data(), d2.data());
  }
  batch->results.resize(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    batch->results[static_cast<size_t>(i)] = NearestResult{
        static_cast<int64_t>(idx[static_cast<size_t>(i)]),
        d2[static_cast<size_t>(i)]};
  }
  const auto flush_end = std::chrono::steady_clock::now();
  const int64_t scan_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          flush_end - scan_start).count();
  const int64_t batch_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          flush_end - batch->opened).count();

  {
    std::lock_guard<std::mutex> lock(mu_);
    batch->done = true;
    ++stats_.batches;
    stats_.batched_points += rows;
    stats_.largest_batch = std::max(stats_.largest_batch, rows);
    stats_.served += rows;
    GetBatcherMetrics().batches->Increment();
    GetBatcherMetrics().served->Increment(rows);
    // Misses are counted batch-wide against the leader's join time (the
    // oldest query in the batch); followers joined later, so this is
    // the conservative bound.
    if (options_.max_latency_us > 0 &&
        batch_us > options_.max_latency_us) {
      stats_.deadline_misses += rows;
      GetBatcherMetrics().deadline_misses->Increment(rows);
    }
    // pending_ counts callers still inside Assign, so the leader only
    // retires itself here; each follower retires itself as it wakes.
    // That makes pending_ == 0 a safe-to-destruct signal, not just a
    // backlog gauge (see ~RequestBatcher).
    if (--pending_ == 0) drain_cv_.notify_all();
    // EWMA with 1/4 weight on the newest scan: stable under jitter,
    // adapts within a few batches when load shifts.
    ewma_scan_us_ = ewma_scan_us_ == 0
                        ? scan_us
                        : (3 * ewma_scan_us_ + scan_us) / 4;
    done_cv_.notify_all();
  }
  return batch->results[static_cast<size_t>(slot)];
}

RequestBatcher::Stats RequestBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.adaptive_batch_limit = EffectiveBatchLimit();
  return out;
}

}  // namespace kmeansll::serving
