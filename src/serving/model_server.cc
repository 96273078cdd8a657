#include "serving/model_server.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/model_io.h"
#include "parallel/thread_pool.h"

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
        r.GetCounter("kmll_batcher_served_total",
                     "Queries answered with a result."),
        r.GetCounter("kmll_batcher_shed_total",
                     "Queries shed by admission control or shutdown."),
        r.GetCounter("kmll_batcher_deadline_misses_total",
                     "Served queries answered past the latency target."),
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
    : server_(server),
      options_(options),
      cores_(ThreadPool::DefaultThreadCount()) {
  KMEANSLL_CHECK(server_ != nullptr);
  KMEANSLL_CHECK_GE(options_.max_pending, 0);
  KMEANSLL_CHECK_GE(options_.max_latency_us, 0);
  dim_ = server_->Acquire()->dim();
}

RequestBatcher::~RequestBatcher() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  // Every admitted caller holds a +1 on pending_ until it is done
  // touching this object, so pending_ == 0 means no thread can touch a
  // member after we return and destruction proceeds.
  drain_cv_.wait(lock, [&] { return pending_ == 0; });
}

void RequestBatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
}

int64_t RequestBatcher::EstimatedLatencyUs() const {
  // One scan per round of admitted queries ahead of a query admitted
  // now, the backlog spread over the cores. Until the first scan lands
  // there is no estimate; treat it as free and let the EWMA take over.
  return ewma_scan_us_ * (pending_ / cores_ + 1);
}

Result<NearestResult> RequestBatcher::Assign(const double* point) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    GetBatcherMetrics().queries->Increment();
    // Admission control: a rejected query costs the caller one mutex
    // round-trip and nothing else. See RequestBatcherOptions::
    // {max_pending, max_latency_us}.
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
    ++pending_;
  }

  // The scan runs outside the lock, on the caller's thread, against the
  // snapshot current now.
  const auto admitted = std::chrono::steady_clock::now();
  const Status injected = fault::Check("batcher.scan");
  NearestResult result;
  if (injected.ok()) {
    KMEANSLL_TRACE_SPAN("batcher.scan");
    result = server_->Acquire()->AssignOne(point);
  }
  const int64_t scan_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - admitted).count();

  std::lock_guard<std::mutex> lock(mu_);
  if (injected.ok()) {
    ++stats_.served;
    GetBatcherMetrics().served->Increment();
    if (options_.max_latency_us > 0 && scan_us > options_.max_latency_us) {
      ++stats_.deadline_misses;
      GetBatcherMetrics().deadline_misses->Increment();
    }
    // EWMA with 1/4 weight on the newest scan: stable under jitter,
    // adapts within a few queries when load shifts.
    ewma_scan_us_ = ewma_scan_us_ == 0 ? scan_us
                                       : (3 * ewma_scan_us_ + scan_us) / 4;
  }
  // Last touch of this object (see ~RequestBatcher).
  if (--pending_ == 0) drain_cv_.notify_all();
  if (!injected.ok()) return injected;
  return result;
}

RequestBatcher::Stats RequestBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.batches = out.served;
  out.batched_points = out.served;
  return out;
}

}  // namespace kmeansll::serving
