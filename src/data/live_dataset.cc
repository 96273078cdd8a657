#include "data/live_dataset.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/macros.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace kmeansll::data {

struct LiveDataset::Impl {
  /// One preallocated tail block of rows_per_shard capacity. Storage
  /// never reallocates, so readers hold raw pointers into it safely;
  /// `visible` (guarded by snap_mu) is the publication frontier — bytes
  /// past it are writer-private until the bump.
  struct TailSegment {
    int64_t first_row = 0;  // global row index of local row 0
    int64_t capacity = 0;
    int64_t visible = 0;  // guarded by snap_mu
    std::vector<double> points;
    std::vector<double> weights;
  };

  std::string base_path;
  std::string manifest_path;
  std::string oplog_path;
  int64_t dim = 0;
  bool weighted = false;
  LiveDatasetOptions options;

  // Writer state: Append/Seal/SyncLog serialize on write_mu. The oplog
  // is only touched under it.
  std::mutex write_mu;
  std::optional<OpLog> oplog;

  // Snapshot state: readers copy pointers and counts under snap_mu and
  // then work lock-free on immutable (or append-only) storage. Held
  // only for pointer/counter work — never across I/O.
  mutable std::mutex snap_mu;
  std::shared_ptr<ShardedDataset> sealed;  // null until the first seal
  int64_t sealed_n = 0;
  std::vector<std::shared_ptr<TailSegment>> tail;
  int64_t tail_rows = 0;
  Status failure;  // sticky first write-path error (guarded by snap_mu)

  // Exact-count telemetry (atomic cells: queried concurrently).
  std::atomic<int64_t> appended_batches{0};
  std::atomic<int64_t> appended_rows{0};
  std::atomic<int64_t> backpressure_rejections{0};
  std::atomic<int64_t> seals{0};
  std::atomic<int64_t> sealed_rows_total{0};
  int64_t recovered_rows = 0;  // written once at Open
  int64_t torn_bytes = 0;      // written once at Open

  void RecordFailure(const Status& status) {
    std::lock_guard<std::mutex> lock(snap_mu);
    if (failure.ok()) failure = status;
  }

  /// Copies `rows` points into tail segments and publishes them. Only
  /// the writer calls this (write_mu held); snap_mu is taken briefly
  /// around each visibility bump so a concurrent reader either sees a
  /// row completely or not at all.
  void ApplyToTail(const double* points, int64_t rows,
                   const double* weights) {
    int64_t done = 0;
    while (done < rows) {
      std::shared_ptr<TailSegment> seg;
      int64_t base = 0;
      {
        std::lock_guard<std::mutex> lock(snap_mu);
        if (tail.empty() || tail.back()->visible == tail.back()->capacity) {
          seg = std::make_shared<TailSegment>();
          seg->first_row = sealed_n + tail_rows;
          seg->capacity = options.rows_per_shard;
          seg->points.resize(
              static_cast<size_t>(seg->capacity * dim));
          if (weighted) {
            seg->weights.resize(static_cast<size_t>(seg->capacity));
          }
          tail.push_back(seg);
        } else {
          seg = tail.back();
        }
        base = seg->visible;
      }
      const int64_t take =
          std::min(rows - done, seg->capacity - base);
      std::memcpy(seg->points.data() + base * dim,
                  points + done * dim,
                  static_cast<size_t>(take * dim) * sizeof(double));
      if (weighted) {
        std::memcpy(seg->weights.data() + base, weights + done,
                    static_cast<size_t>(take) * sizeof(double));
      }
      {
        std::lock_guard<std::mutex> lock(snap_mu);
        seg->visible += take;
        tail_rows += take;
      }
      done += take;
    }
  }
};

LiveDataset::LiveDataset(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
LiveDataset::LiveDataset(LiveDataset&&) noexcept = default;
LiveDataset& LiveDataset::operator=(LiveDataset&&) noexcept = default;
LiveDataset::~LiveDataset() = default;

Result<LiveDataset> LiveDataset::Open(const std::string& base_path,
                                      int64_t dim, bool has_weights,
                                      const LiveDatasetOptions& options) {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.rows_per_shard <= 0) {
    return Status::InvalidArgument("rows_per_shard must be positive");
  }
  auto impl = std::make_unique<Impl>();
  impl->base_path = base_path;
  impl->manifest_path = base_path + ".manifest";
  impl->oplog_path = base_path + ".oplog";
  impl->dim = dim;
  impl->weighted = has_weights;
  impl->options = options;
  if (impl->options.max_unsealed_rows <= 0) {
    impl->options.max_unsealed_rows = 4 * options.rows_per_shard;
  }
  impl->options.oplog.has_weights = has_weights;

  // Sealed half: the manifest is the commit point, so its absence just
  // means nothing has been sealed yet.
  if (FileExists(impl->manifest_path)) {
    KMEANSLL_ASSIGN_OR_RETURN(
        ShardedDataset ds,
        ShardedDataset::Open(impl->manifest_path, options.sharded));
    if (ds.dim() != dim || ds.has_weights() != has_weights ||
        ds.has_labels()) {
      return Status::InvalidArgument("sealed manifest '" +
                                     impl->manifest_path +
                                     "' shape disagrees with the request");
    }
    impl->sealed_n = ds.n();
    impl->sealed = std::make_shared<ShardedDataset>(std::move(ds));
  }

  // Unsealed half: scan the log (truncating any torn tail) and replay
  // the rows past the sealed frontier into fresh tail segments. A batch
  // may straddle the frontier — a seal cuts at shard boundaries, not
  // record boundaries — so the sealed prefix of a record is skipped
  // row-wise, not record-wise.
  KMEANSLL_ASSIGN_OR_RETURN(
      OpLog log, OpLog::Open(impl->oplog_path, dim, impl->options.oplog));
  impl->torn_bytes = log.stats().torn_bytes;
  Impl* raw = impl.get();
  KMEANSLL_RETURN_NOT_OK(log.Replay(
      0, [raw](int64_t first_row, int64_t rows, const double* points,
               const double* weights) -> Status {
        if (first_row + rows <= raw->sealed_n) return Status::OK();
        const int64_t skip = std::max<int64_t>(0, raw->sealed_n - first_row);
        const int64_t effective_first = first_row + skip;
        if (effective_first != raw->sealed_n + raw->tail_rows) {
          return Status::InvalidArgument(
              "oplog replay gap: record at row " +
              std::to_string(effective_first) + " but frontier is " +
              std::to_string(raw->sealed_n + raw->tail_rows));
        }
        raw->ApplyToTail(points + skip * raw->dim, rows - skip,
                         weights == nullptr ? nullptr : weights + skip);
        raw->recovered_rows += rows - skip;
        return Status::OK();
      }));
  impl->oplog.emplace(std::move(log));
  return LiveDataset(std::move(impl));
}

Status LiveDataset::Append(const double* points, int64_t rows,
                           const double* weights) {
  Impl* impl = impl_.get();
  if (rows <= 0) return Status::InvalidArgument("rows must be positive");
  if ((weights != nullptr) != impl->weighted) {
    return Status::InvalidArgument(
        impl->weighted ? "weighted live dataset requires weights"
                       : "weight-less live dataset cannot take weights");
  }
  std::lock_guard<std::mutex> wlock(impl->write_mu);
  int64_t first_row = 0;
  {
    std::lock_guard<std::mutex> lock(impl->snap_mu);
    if (!impl->failure.ok()) return impl->failure;
    if (impl->tail_rows + rows > impl->options.max_unsealed_rows) {
      impl->backpressure_rejections.fetch_add(1,
                                              std::memory_order_relaxed);
      MetricsRegistry::Global()
          .GetCounter("kmll_ingest_backpressure_rejections_total",
                      "Appends rejected because the unsealed tail was "
                      "full.")
          ->Increment();
      return Status::Unavailable(
          "unsealed tail is full (" + std::to_string(impl->tail_rows) +
          " rows); Seal() to drain before appending");
    }
    first_row = impl->sealed_n + impl->tail_rows;
  }

  // WAL discipline: the record must be in the log before any reader
  // can see the rows, so everything visible is recoverable.
  Status logged = impl->oplog->Append(first_row, rows, points, weights);
  if (!logged.ok()) {
    // A poisoned log (torn write, failed fsync) is a sticky, reopen-
    // and-recover condition; a clean pre-write failure is retryable.
    if (!impl->oplog->status().ok()) impl->RecordFailure(logged);
    return logged;
  }
  impl->ApplyToTail(points, rows, weights);
  impl->appended_batches.fetch_add(1, std::memory_order_relaxed);
  impl->appended_rows.fetch_add(rows, std::memory_order_relaxed);
  {
    static Counter* batches = MetricsRegistry::Global().GetCounter(
        "kmll_ingest_appended_batches_total",
        "Batches applied to live-dataset tails (post-WAL).");
    static Counter* ingested_rows = MetricsRegistry::Global().GetCounter(
        "kmll_ingest_appended_rows_total",
        "Rows applied to live-dataset tails (post-WAL).");
    batches->Increment();
    ingested_rows->Increment(rows);
  }
  return Status::OK();
}

Status LiveDataset::Seal() {
  Impl* impl = impl_.get();
  std::lock_guard<std::mutex> wlock(impl->write_mu);
  KMEANSLL_TRACE_SPAN("ingest.seal");
  // Crash site at the seal entry: nothing has happened yet, recovery
  // replays the whole tail.
  KMEANSLL_RETURN_NOT_OK(fault::Check("oplog.seal"));

  // Snapshot the full segments (the prefix of the tail; the last,
  // partial segment stays). Their `visible` counts are final: only the
  // writer grows them, and the writer is us.
  std::vector<std::shared_ptr<Impl::TailSegment>> full;
  int64_t base_n = 0;
  {
    std::lock_guard<std::mutex> lock(impl->snap_mu);
    if (!impl->failure.ok()) return impl->failure;
    base_n = impl->sealed_n;
    for (const auto& seg : impl->tail) {
      if (seg->visible == seg->capacity) {
        full.push_back(seg);
      } else {
        break;
      }
    }
  }
  if (full.empty()) return Status::OK();
  int64_t seal_rows = 0;
  for (const auto& seg : full) seal_rows += seg->visible;

  // The rows being sealed must be durable in the log first: a crash
  // during compaction recovers them from the log, not the shards.
  Status synced = impl->oplog->Sync();
  if (!synced.ok()) {
    if (!impl->oplog->status().ok()) impl->RecordFailure(synced);
    return synced;
  }

  // Compact the full segments into shards. Orphan shard files from a
  // crash here are harmless: the manifest never referenced them, and a
  // retried seal rewrites byte-identical files under the same names
  // (shard contents are a pure function of the row stream).
  ShardWriter::Options wopts;
  wopts.rows_per_shard = impl->options.rows_per_shard;
  wopts.has_weights = impl->weighted;
  wopts.has_labels = false;
  Result<ShardWriter> writer =
      FileExists(impl->manifest_path)
          ? ShardWriter::OpenForAppend(impl->manifest_path, impl->dim,
                                       wopts)
          : ShardWriter::Open(impl->manifest_path, impl->dim, wopts);
  KMEANSLL_RETURN_NOT_OK(writer.status());
  for (const auto& seg : full) {
    KMEANSLL_RETURN_NOT_OK(fault::Check("ingest.compact"));
    DatasetView view(
        ConstMatrixView(seg->points.data(), seg->visible, impl->dim),
        seg->first_row,
        impl->weighted ? seg->weights.data() : nullptr, nullptr);
    KMEANSLL_RETURN_NOT_OK(writer->Append(view));
  }
  // Finalize publishes the combined manifest with one atomic rename —
  // THE commit point: before it the old dataset is intact, after it
  // the new one is, and recovery replays relative to whichever landed.
  KMEANSLL_RETURN_NOT_OK(writer->Finalize().status());

  KMEANSLL_ASSIGN_OR_RETURN(
      ShardedDataset reopened,
      ShardedDataset::Open(impl->manifest_path, impl->options.sharded));
  auto fresh = std::make_shared<ShardedDataset>(std::move(reopened));

  {
    std::lock_guard<std::mutex> lock(impl->snap_mu);
    impl->sealed = std::move(fresh);  // old shards live until last pin
    impl->sealed_n = base_n + seal_rows;
    impl->tail.erase(impl->tail.begin(),
                     impl->tail.begin() + static_cast<int64_t>(full.size()));
    impl->tail_rows -= seal_rows;
  }
  impl->seals.fetch_add(1, std::memory_order_relaxed);
  impl->sealed_rows_total.fetch_add(seal_rows, std::memory_order_relaxed);
  {
    static Counter* seal_count = MetricsRegistry::Global().GetCounter(
        "kmll_ingest_seals_total",
        "Seal compactions of full tail segments into shards.");
    static Counter* sealed_rows = MetricsRegistry::Global().GetCounter(
        "kmll_ingest_sealed_rows_total",
        "Rows compacted from the tail into sealed shards.");
    seal_count->Increment();
    sealed_rows->Increment(seal_rows);
  }

  // GC the log past the new frontier. Failure here loses no data (the
  // old log replays fine — recovery skips sealed rows); surface it so
  // the owner can decide to reopen.
  bool tail_empty = false;
  {
    std::lock_guard<std::mutex> lock(impl->snap_mu);
    tail_empty = impl->tail_rows == 0;
  }
  Status gc = tail_empty ? impl->oplog->Reset()
                         : impl->oplog->Compact(base_n + seal_rows);
  if (!gc.ok() && !impl->oplog->status().ok()) impl->RecordFailure(gc);
  return gc;
}

Status LiveDataset::SyncLog() {
  Impl* impl = impl_.get();
  std::lock_guard<std::mutex> wlock(impl->write_mu);
  Status synced = impl->oplog->Sync();
  if (!synced.ok() && !impl->oplog->status().ok()) {
    impl->RecordFailure(synced);
  }
  return synced;
}

int64_t LiveDataset::n() const {
  std::lock_guard<std::mutex> lock(impl_->snap_mu);
  return impl_->sealed_n + impl_->tail_rows;
}

int64_t LiveDataset::dim() const { return impl_->dim; }
bool LiveDataset::has_weights() const { return impl_->weighted; }

double LiveDataset::TotalWeight() const {
  const int64_t total = n();
  if (!impl_->weighted) return static_cast<double>(total);
  KahanSum sum;
  ForEachBlock(*this, 0, total, [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) sum.Add(v.Weight(i));
  });
  return sum.Total();
}

PinnedBlock LiveDataset::Pin(int64_t begin, int64_t end) const {
  Impl* impl = impl_.get();
  std::shared_ptr<ShardedDataset> sealed_sp;
  std::shared_ptr<Impl::TailSegment> seg;
  int64_t sealed_end = 0;
  int64_t seg_visible = 0;
  {
    std::lock_guard<std::mutex> lock(impl->snap_mu);
    const int64_t total = impl->sealed_n + impl->tail_rows;
    KMEANSLL_CHECK(begin >= 0 && begin < end && end <= total);
    sealed_end = impl->sealed_n;
    if (begin < sealed_end) {
      sealed_sp = impl->sealed;
    } else {
      // Binary search the segment owning `begin` (segments are sorted
      // by first_row and contiguous).
      size_t lo = 0, hi = impl->tail.size() - 1;
      while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (impl->tail[mid]->first_row <= begin) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      seg = impl->tail[lo];
      seg_visible = seg->visible;
    }
  }

  if (sealed_sp != nullptr) {
    // Serve sealed rows from the shards; the wrapper pin keeps both the
    // inner pin and the sealed dataset itself alive, so an RCU swap by
    // a concurrent Seal can never unmap rows under a reader.
    PinnedBlock inner = sealed_sp->Pin(begin, std::min(end, sealed_end));
    DatasetView view = inner.view();
    auto holder = std::make_shared<PinnedBlock>(std::move(inner));
    return PinnedBlock(view, [sealed_sp, holder] {});
  }

  const int64_t local = begin - seg->first_row;
  const int64_t local_end =
      std::min(end - seg->first_row, seg_visible);
  DatasetView view(
      ConstMatrixView(seg->points.data(), seg_visible, impl->dim),
      seg->first_row, impl->weighted ? seg->weights.data() : nullptr,
      nullptr);
  // The release closure owns the segment: sealing may drop it from the
  // tail, but the storage outlives every pin.
  return PinnedBlock(view.Slice(local, local_end), [seg] {});
}

Status LiveDataset::status() const {
  std::shared_ptr<ShardedDataset> sealed_sp;
  {
    std::lock_guard<std::mutex> lock(impl_->snap_mu);
    if (!impl_->failure.ok()) return impl_->failure;
    sealed_sp = impl_->sealed;
  }
  return sealed_sp == nullptr ? Status::OK() : sealed_sp->status();
}

int64_t LiveDataset::sealed_rows() const {
  std::lock_guard<std::mutex> lock(impl_->snap_mu);
  return impl_->sealed_n;
}

int64_t LiveDataset::unsealed_rows() const {
  std::lock_guard<std::mutex> lock(impl_->snap_mu);
  return impl_->tail_rows;
}

const std::string& LiveDataset::manifest_path() const {
  return impl_->manifest_path;
}

IngestStats LiveDataset::ingest_stats() const {
  const Impl* impl = impl_.get();
  IngestStats out;
  out.appended_batches =
      impl->appended_batches.load(std::memory_order_relaxed);
  out.appended_rows = impl->appended_rows.load(std::memory_order_relaxed);
  out.backpressure_rejections =
      impl->backpressure_rejections.load(std::memory_order_relaxed);
  out.seals = impl->seals.load(std::memory_order_relaxed);
  out.sealed_rows = impl->sealed_rows_total.load(std::memory_order_relaxed);
  out.recovered_rows = impl->recovered_rows;
  out.torn_bytes = impl->torn_bytes;
  return out;
}

}  // namespace kmeansll::data
