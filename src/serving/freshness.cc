#include "serving/freshness.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "clustering/cost.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/record_io.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"

namespace kmeansll::serving {

namespace {

constexpr char kMagic[8] = {'K', 'M', 'L', 'L', 'F', 'R', 'S', 'H'};
constexpr int32_t kVersion = 1;

struct RefineMetrics {
  Counter* cycles;
  Counter* minibatch_refines;
  Counter* reseeds;
  Counter* failures;
  Counter* checkpoint_retries;
  Counter* slo_misses;
};
const RefineMetrics& GetRefineMetrics() {
  static const RefineMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new RefineMetrics{
        r.GetCounter("kmll_freshness_cycles_total",
                     "Refine cycles that republished a model."),
        r.GetCounter("kmll_freshness_minibatch_refines_total",
                     "Cycles repaired with minibatch SGD."),
        r.GetCounter("kmll_freshness_reseeds_total",
                     "Cycles that fell back to a full k-means|| reseed."),
        r.GetCounter("kmll_freshness_failures_total",
                     "Refine cycles that returned an error."),
        r.GetCounter("kmll_freshness_checkpoint_retries_total",
                     "Transient checkpoint-write failures retried."),
        r.GetCounter("kmll_freshness_slo_misses_total",
                     "Watchdog ticks that found the served model past "
                     "the freshness SLO."),
    };
  }();
  return *m;
}

/// The loop state a KMLLFRSH checkpoint carries.
struct LoopCheckpoint {
  int64_t cycle = 0;
  int64_t watermark = 0;
  double ewma = 0;
  Matrix centers;
  std::vector<double> cost_history;
};

/// Decodes a KMLLFRSH checkpoint; any error means a stale or torn file.
Result<LoopCheckpoint> DecodeCheckpoint(std::string_view bytes,
                                        const std::string& path,
                                        uint64_t fingerprint) {
  data::RecordReader in(bytes, path);
  KMEANSLL_RETURN_NOT_OK(in.ExpectMagic(kMagic, "freshness checkpoint"));
  int32_t version = 0;
  uint64_t stored_fingerprint = 0;
  int64_t k = 0, d = 0, history_len = 0;
  LoopCheckpoint out;
  KMEANSLL_RETURN_NOT_OK(in.Read(&version));
  KMEANSLL_RETURN_NOT_OK(in.Read(&stored_fingerprint));
  KMEANSLL_RETURN_NOT_OK(in.Read(&out.cycle));
  KMEANSLL_RETURN_NOT_OK(in.Read(&out.watermark));
  KMEANSLL_RETURN_NOT_OK(in.Read(&out.ewma));
  KMEANSLL_RETURN_NOT_OK(in.Read(&k));
  KMEANSLL_RETURN_NOT_OK(in.Read(&d));
  KMEANSLL_RETURN_NOT_OK(in.Read(&history_len));
  if (version != kVersion || stored_fingerprint != fingerprint) {
    return Status::InvalidArgument("foreign freshness checkpoint");
  }
  KMEANSLL_RETURN_NOT_OK(in.ReadMatrix(k, d, &out.centers));
  KMEANSLL_RETURN_NOT_OK(in.ReadArray(history_len, &out.cost_history));
  KMEANSLL_RETURN_NOT_OK(in.ReadCrc("freshness checkpoint"));
  KMEANSLL_RETURN_NOT_OK(in.ExpectEnd("freshness checkpoint"));
  return out;
}

/// Same shape and the same bits (memcmp, unlike Matrix::operator==,
/// tells -0.0 from 0.0).
bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(double)) == 0);
}

}  // namespace

RefineLoop::RefineLoop(ModelServer* server, const DatasetSource* data,
                       const RefineLoopOptions& options)
    : server_(server), data_(data), options_(options) {
  KMEANSLL_CHECK(server_ != nullptr);
  KMEANSLL_CHECK(data_ != nullptr);
}

RefineLoop::~RefineLoop() { Stop(); }

uint64_t RefineLoop::Fingerprint() const {
  // Binds the checkpoint to the job identity that determines the loop's
  // trajectory: the root seed and the data dimension. k is payload
  // shape, not identity (a reseed may legitimately change it).
  return rng::HashCombine(options_.seed,
                          static_cast<uint64_t>(data_->dim()));
}

Status RefineLoop::WriteCheckpointLocked(const Matrix& centers) {
  if (options_.checkpoint_path.empty()) return Status::OK();
  data::RecordWriter out;
  out.PutBytes(kMagic, sizeof(kMagic));
  out.Put(kVersion);
  out.Put(Fingerprint());
  out.Put(cycle_);
  out.Put(watermark_);
  out.Put(ewma_);
  out.Put(centers.rows());
  out.Put(centers.cols());
  out.Put(static_cast<int64_t>(cost_history_.size()));
  out.PutArray(centers.data(), centers.size());
  out.PutArray(cost_history_.data(),
               static_cast<int64_t>(cost_history_.size()));
  out.PutCrc();
  const int64_t retries_before = stats_.checkpoint_retries;
  Status written =
      data::PublishFile(options_.checkpoint_path, out.bytes(),
                        "freshness.checkpoint", &stats_.checkpoint_retries);
  GetRefineMetrics().checkpoint_retries->Increment(
      stats_.checkpoint_retries - retries_before);
  return written;
}

Status RefineLoop::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.checkpoint_path.empty() ||
      !FileExists(options_.checkpoint_path)) {
    return Status::OK();
  }
  KMEANSLL_ASSIGN_OR_RETURN(std::string bytes,
                            data::ReadWholeFile(options_.checkpoint_path));
  // A decode failure means a stale or torn artifact: ignore it and start
  // fresh (the same never-trust-a-bad-checkpoint policy as
  // data/checkpoint_io.h), never resume from garbage.
  Result<LoopCheckpoint> decoded =
      DecodeCheckpoint(bytes, options_.checkpoint_path, Fingerprint());
  if (!decoded.ok()) return Status::OK();
  LoopCheckpoint checkpoint = std::move(decoded).ValueOrDie();

  // Republish first: if the crash hit between checkpoint and publish,
  // this is the half that is missing; if it hit after, republishing the
  // same centers is harmless (version bumps, contents identical).
  Status published = server_->Refine(
      [&](const CenterIndex&) -> Result<Matrix> {
        return checkpoint.centers;
      });
  if (!published.ok()) return published;
  scored_rows_ = 0;
  cycle_ = checkpoint.cycle;
  watermark_ = checkpoint.watermark;
  ewma_ = checkpoint.ewma;
  cost_history_ = std::move(checkpoint.cost_history);
  ++stats_.recoveries;
  stats_.last_cost_per_point =
      cost_history_.empty() ? 0 : cost_history_.back();
  return Status::OK();
}

Status RefineLoop::RunOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  Status status = RunOnceLocked();
  if (!status.ok()) {
    ++stats_.failures;
    GetRefineMetrics().failures->Increment();
  }
  return status;
}

Status RefineLoop::RunOnceLocked() {
  KMEANSLL_TRACE_SPAN("freshness.refine_cycle");
  const int64_t n = data_->n();
  if (n <= 0 || n - watermark_ < std::max<int64_t>(options_.min_new_rows, 1)) {
    ++stats_.skipped;
    return Status::OK();
  }
  KMEANSLL_RETURN_NOT_OK(fault::Check("freshness.refine"));
  // Every pass below reads the rows [0, n) this cycle began with, even
  // while a producer appends to the source.
  const PrefixSource rows(*data_, n);
  if (pool_ == nullptr) {
    const int threads = options_.reseed.num_threads > 0
                            ? options_.reseed.num_threads
                            : ThreadPool::DefaultThreadCount();
    pool_ = std::make_unique<ThreadPool>(threads);
  }

  // Drift: the SERVED model's cost-per-point on the data as it is now,
  // against the EWMA of what this loop's own refinements achieve. The
  // ratio test fires exactly when serving quality fell off the baseline
  // — new rows alone don't trigger a reseed if the served centers still
  // explain them. When the server still serves the loop's own last
  // minibatch publish, only the rows appended since need scoring.
  const std::shared_ptr<const CenterIndex> snapshot = server_->Acquire();
  const Matrix& served = snapshot->centers();
  const int64_t first_unscored =
      BitwiseEqual(served, scored_centers_) ? std::min(scored_rows_, n) : 0;
  scored_rows_ = 0;  // row_costs_ is rewritten below
  const double served_cpp =
      ComputeRowCosts(rows, served, pool_.get(), first_unscored,
                      &row_costs_) /
      static_cast<double>(n);
  const bool reseed =
      ewma_ > 0 && served_cpp > options_.drift_reseed_ratio * ewma_;
  const uint64_t cycle_seed =
      rng::HashCombine(options_.seed, static_cast<uint64_t>(cycle_));

  Matrix next;
  double post_cost = 0;
  if (reseed) {
    KMeansConfig config = options_.reseed;
    config.seed = cycle_seed;
    config.num_threads = pool_->num_threads();
    KMeans trainer(std::move(config));
    KMEANSLL_ASSIGN_OR_RETURN(KMeansReport report, trainer.Fit(rows));
    next = std::move(report.centers);
    post_cost = report.final_cost;
  } else {
    KMEANSLL_ASSIGN_OR_RETURN(
        MiniBatchResult refined,
        RunMiniBatchSteps(rows, served, options_.minibatch,
                          rng::Rng(cycle_seed)));
    next = std::move(refined.centers);
    post_cost = ComputeRowCosts(rows, next, pool_.get(), 0, &row_costs_);
    // A degraded source served fallback blocks: fail the cycle rather
    // than publish centers trained on them.
    KMEANSLL_RETURN_NOT_OK(rows.status());
    scored_centers_ = next;
  }
  const double post_cpp = post_cost / static_cast<double>(n);
  constexpr double kEwmaAlpha = 0.25;  // weight on the newest cycle

  // Commit order: advance the loop state, persist it WITH the new
  // centers, and only then publish. A crash before the checkpoint
  // re-runs the cycle (same seed, same result); a crash after it is
  // exactly what Recover() repairs by republishing.
  cycle_ += 1;
  watermark_ = n;
  ewma_ = ewma_ == 0 ? post_cpp
                     : kEwmaAlpha * post_cpp + (1 - kEwmaAlpha) * ewma_;
  cost_history_.push_back(post_cpp);
  KMEANSLL_RETURN_NOT_OK(WriteCheckpointLocked(next));
  KMEANSLL_RETURN_NOT_OK(server_->Refine(
      [&](const CenterIndex&) -> Result<Matrix> { return std::move(next); }));
  // The server now serves scored_centers_ (a minibatch's): the next
  // cycle may reuse their row costs.
  if (!reseed) scored_rows_ = n;

  ++stats_.cycles;
  GetRefineMetrics().cycles->Increment();
  if (reseed) {
    ++stats_.reseeds;
    GetRefineMetrics().reseeds->Increment();
  } else {
    ++stats_.minibatch_refines;
    GetRefineMetrics().minibatch_refines->Increment();
  }
  stats_.last_cost_per_point = post_cpp;
  stats_.served_cost_per_point = served_cpp;
  return Status::OK();
}

void RefineLoop::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(thread_mu_);
    while (!stop_) {
      tick_cv_.wait_for(lock,
                        std::chrono::milliseconds(
                            std::max<int64_t>(options_.tick_ms, 1)),
                        [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      if (options_.freshness_slo_ms > 0) {
        const ModelServer::Stats server_stats = server_->stats();
        if (server_stats.staleness_ms > options_.freshness_slo_ms) {
          server_->MarkStale(true);
          std::lock_guard<std::mutex> state_lock(mu_);
          ++stats_.slo_misses;
          GetRefineMetrics().slo_misses->Increment();
        }
      }
      // Failures are counted in stats_ and retried next tick — a broken
      // cycle must not kill the freshness watchdog.
      const Status cycle_status = RunOnce();
      (void)cycle_status;
      lock.lock();
    }
  });
}

void RefineLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!running_) return;
    stop_ = true;
  }
  tick_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(thread_mu_);
  running_ = false;
}

RefineStats RefineLoop::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefineStats out = stats_;
  out.ewma_cost_per_point = ewma_;
  out.watermark = watermark_;
  return out;
}

std::vector<double> RefineLoop::cost_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cost_history_;
}

}  // namespace kmeansll::serving
