#include "data/shard_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#if defined(_WIN32)
#include <cstdlib>
#else
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/trace.h"
#include "data/binary_io.h"
#include "data/record_io.h"

namespace kmeansll::data {

namespace {

// Process-wide registry mirrors of the per-instance StatsCells: every
// StatsCells bump also bumps one of these, so a single Prometheus
// scrape sees storage-layer totals across all datasets ever opened.
// Resolved once; updates through the handles are wait-free.
struct ShardStoreMetrics {
  Counter* maps;
  Counter* evictions;
  Gauge* resident_bytes;
  Gauge* peak_resident_bytes;
  Counter* prefetch_issued;
  Counter* prefetch_completed;
  Counter* prefetch_hits;
  Counter* prefetch_wasted;
  Counter* stall_ns;
  Counter* map_retries;
  Counter* map_failures;
};

const ShardStoreMetrics& ShardMetrics() {
  static const ShardStoreMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return new ShardStoreMetrics{
        r.GetCounter("kmll_shard_maps_total",
                     "Shard mmaps published (demand plus prefetch)."),
        r.GetCounter("kmll_shard_evictions_total",
                     "Shards unmapped by the LRU resident window."),
        r.GetGauge("kmll_shard_resident_bytes",
                   "Bytes currently mapped across all shard stores."),
        r.GetGauge("kmll_shard_peak_resident_bytes",
                   "High-water mark of kmll_shard_resident_bytes."),
        r.GetCounter("kmll_shard_prefetch_issued_total",
                     "Shards enqueued by PrefetchHint."),
        r.GetCounter("kmll_shard_prefetch_completed_total",
                     "Prefetched shards fully page-warmed."),
        r.GetCounter("kmll_shard_prefetch_hits_total",
                     "Pins that found their shard prefetched."),
        r.GetCounter("kmll_shard_prefetch_wasted_total",
                     "Prefetched shards evicted before any pin."),
        r.GetCounter("kmll_shard_stall_ns_total",
                     "Nanoseconds scan threads blocked on shard I/O."),
        r.GetCounter("kmll_shard_map_retries_total",
                     "Transient map failures retried with backoff."),
        r.GetCounter("kmll_shard_map_failures_total",
                     "Shards whose demand-map retry budget was exhausted."),
    };
  }();
  return *m;
}

constexpr char kManifestMagic[8] = {'K', 'M', 'L', 'L', 'S', 'H', 'R', 'D'};
constexpr int32_t kManifestVersion = 1;
constexpr uint32_t kManifestWeights = 1u << 0;
constexpr uint32_t kManifestLabels = 1u << 1;

/// Directory prefix of `path` including the trailing separator ("" when
/// the path has no directory component).
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1);
}

std::string BaseNameOf(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Writes the KMLLSHRD manifest file for `manifest`. Shared by
/// WriteShards and ShardWriter::Finalize so the two producers cannot
/// drift apart on the format. The manifest is the commit point of a
/// sharded dataset — nothing opens the shard files except through it —
/// so it is serialized in memory and published atomically
/// (temp+fsync+rename): an interrupted Finalize leaves either no
/// manifest (the dataset "does not exist" yet) or the previous complete
/// one, never a torn shard table.
Status WriteManifestFile(const std::string& manifest_path,
                         const ShardManifest& manifest) {
  uint32_t flags = 0;
  if (manifest.has_weights) flags |= kManifestWeights;
  if (manifest.has_labels) flags |= kManifestLabels;
  RecordWriter out;
  out.PutBytes(kManifestMagic, sizeof(kManifestMagic));
  out.Put(kManifestVersion);
  out.Put(manifest.n);
  out.Put(manifest.dim);
  out.Put(flags);
  out.Put(static_cast<int32_t>(manifest.shards.size()));
  for (const ShardInfo& info : manifest.shards) {
    out.Put(info.rows);
    out.PutString(info.file);
  }
  return PublishFile(manifest_path, out.bytes(), "manifest.write");
}

}  // namespace

Result<ShardManifest> WriteShards(const Dataset& dataset,
                                  const std::string& manifest_path,
                                  const ShardWriteOptions& options) {
  if ((options.num_shards > 0) == (options.rows_per_shard > 0)) {
    return Status::InvalidArgument(
        "exactly one of num_shards and rows_per_shard must be positive");
  }
  if (dataset.n() <= 0 || dataset.dim() <= 0) {
    return Status::InvalidArgument("cannot shard an empty dataset");
  }

  std::vector<std::pair<int64_t, int64_t>> ranges;
  if (options.num_shards > 0) {
    if (options.num_shards > dataset.n()) {
      return Status::InvalidArgument(
          "num_shards " + std::to_string(options.num_shards) +
          " exceeds row count " + std::to_string(dataset.n()));
    }
    ranges = dataset.SplitRanges(options.num_shards);
  } else {
    for (int64_t begin = 0; begin < dataset.n();
         begin += options.rows_per_shard) {
      ranges.emplace_back(begin, std::min(begin + options.rows_per_shard,
                                          dataset.n()));
    }
  }

  ShardManifest manifest;
  manifest.n = dataset.n();
  manifest.dim = dataset.dim();
  manifest.has_weights = dataset.has_weights();
  manifest.has_labels = dataset.has_labels();

  const std::string base = BaseNameOf(manifest_path);
  const std::string dir = DirOf(manifest_path);
  for (size_t s = 0; s < ranges.size(); ++s) {
    const auto& [begin, end] = ranges[s];
    ShardInfo info;
    info.file = base + ".shard" + std::to_string(s);
    info.rows = end - begin;
    info.first_row = begin;
    KMEANSLL_RETURN_NOT_OK(
        WriteBinaryRange(dataset, begin, end, dir + info.file));
    manifest.shards.push_back(std::move(info));
  }

  KMEANSLL_RETURN_NOT_OK(WriteManifestFile(manifest_path, manifest));
  return manifest;
}

Result<ShardManifest> ReadShardManifest(const std::string& manifest_path) {
  KMEANSLL_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(manifest_path));
  RecordReader in(bytes, manifest_path);
  KMEANSLL_RETURN_NOT_OK(in.ExpectMagic(kManifestMagic, "shard manifest"));
  int32_t version = 0;
  int32_t num_shards = 0;
  uint32_t flags = 0;
  ShardManifest manifest;
  KMEANSLL_RETURN_NOT_OK(in.Read(&version));
  KMEANSLL_RETURN_NOT_OK(in.Read(&manifest.n));
  KMEANSLL_RETURN_NOT_OK(in.Read(&manifest.dim));
  KMEANSLL_RETURN_NOT_OK(in.Read(&flags));
  KMEANSLL_RETURN_NOT_OK(in.Read(&num_shards));
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported shard manifest version in '" +
                                   manifest_path + "'");
  }
  if (manifest.n <= 0 || manifest.dim <= 0 ||
      manifest.n > (int64_t{1} << 40) ||
      manifest.dim > (int64_t{1} << 24) || num_shards <= 0 ||
      num_shards > (1 << 24)) {
    return Status::InvalidArgument("implausible shard manifest shape in '" +
                                   manifest_path + "'");
  }
  manifest.has_weights = (flags & kManifestWeights) != 0;
  manifest.has_labels = (flags & kManifestLabels) != 0;

  int64_t next_row = 0;
  for (int32_t s = 0; s < num_shards; ++s) {
    ShardInfo info;
    KMEANSLL_RETURN_NOT_OK(in.Read(&info.rows));
    KMEANSLL_RETURN_NOT_OK(in.ReadString(1 << 16, &info.file));
    if (info.rows <= 0 || info.rows > manifest.n - next_row ||
        info.file.empty()) {
      return Status::InvalidArgument("corrupt shard table in '" +
                                     manifest_path + "'");
    }
    info.first_row = next_row;
    next_row += info.rows;
    manifest.shards.push_back(std::move(info));
  }
  if (next_row != manifest.n) {
    return Status::InvalidArgument(
        "shard rows sum to " + std::to_string(next_row) + " but '" +
        manifest_path + "' declares n=" + std::to_string(manifest.n));
  }
  KMEANSLL_RETURN_NOT_OK(in.ExpectEnd("shard table"));
  return manifest;
}

// ---------------------------------------------------------------------------
// ShardWriter
// ---------------------------------------------------------------------------

struct ShardWriter::Impl {
  std::string manifest_path;
  std::string dir;        // directory prefix of the manifest
  std::string base_name;  // manifest basename (shard files derive from it)
  Options options;
  ShardManifest manifest;  // grows one ShardInfo per flushed shard

  // Tail buffer: rows appended but not yet cut into a shard file.
  std::vector<double> points;
  std::vector<double> weights;
  std::vector<int32_t> labels;
  int64_t buffered_rows = 0;
  bool finalized = false;

  /// Writes the buffered rows as the next standalone KMLLDATA shard.
  Status FlushShard() {
    ShardInfo info;
    info.file =
        base_name + ".shard" + std::to_string(manifest.shards.size());
    info.rows = buffered_rows;
    info.first_row = manifest.n;

    // Serialize the whole shard in memory and publish it atomically:
    // a crash mid-flush leaves no file under the shard's name, so a
    // later writer restart cannot be confused by a torn shard (and the
    // manifest — the commit point — hasn't referenced it yet anyway).
    RecordWriter shard;
    PutDataset(info.rows, manifest.dim, points.data(),
               options.has_weights ? weights.data() : nullptr,
               options.has_labels ? labels.data() : nullptr, &shard);
    KMEANSLL_RETURN_NOT_OK(
        PublishFile(dir + info.file, shard.bytes(), "shard.write"));
    manifest.n += buffered_rows;
    manifest.shards.push_back(std::move(info));
    points.clear();
    weights.clear();
    labels.clear();
    buffered_rows = 0;
    return Status::OK();
  }
};

ShardWriter::ShardWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ShardWriter::ShardWriter(ShardWriter&&) noexcept = default;
ShardWriter& ShardWriter::operator=(ShardWriter&&) noexcept = default;
ShardWriter::~ShardWriter() = default;

Result<ShardWriter> ShardWriter::Open(const std::string& manifest_path,
                                      int64_t dim,
                                      const Options& options) {
  if (dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.rows_per_shard <= 0) {
    return Status::InvalidArgument("rows_per_shard must be positive");
  }
  auto impl = std::make_unique<Impl>();
  impl->manifest_path = manifest_path;
  impl->dir = DirOf(manifest_path);
  impl->base_name = BaseNameOf(manifest_path);
  impl->options = options;
  impl->manifest.dim = dim;
  impl->manifest.has_weights = options.has_weights;
  impl->manifest.has_labels = options.has_labels;
  return ShardWriter(std::move(impl));
}

Result<ShardWriter> ShardWriter::OpenForAppend(
    const std::string& manifest_path, int64_t dim, const Options& options) {
  KMEANSLL_ASSIGN_OR_RETURN(ShardWriter writer,
                            Open(manifest_path, dim, options));
  KMEANSLL_ASSIGN_OR_RETURN(ShardManifest existing,
                            ReadShardManifest(manifest_path));
  if (existing.dim != dim || existing.has_weights != options.has_weights ||
      existing.has_labels != options.has_labels) {
    return Status::InvalidArgument(
        "existing manifest '" + manifest_path +
        "' shape disagrees with the append request");
  }
  writer.impl_->manifest = std::move(existing);
  return writer;
}

Status ShardWriter::Append(const DatasetView& view) {
  Impl* impl = impl_.get();
  if (impl->finalized) {
    return Status::InvalidArgument("shard writer already finalized");
  }
  if (view.dim() != impl->manifest.dim) {
    return Status::InvalidArgument(
        "view dimension " + std::to_string(view.dim()) +
        " does not match writer dimension " +
        std::to_string(impl->manifest.dim));
  }
  if (view.has_weights() && !impl->options.has_weights) {
    return Status::InvalidArgument(
        "weighted view appended to a weight-less shard writer (weights "
        "would be dropped)");
  }
  if (view.has_labels() != impl->options.has_labels) {
    return Status::InvalidArgument(
        view.has_labels()
            ? "labeled view appended to a label-less shard writer"
            : "label-less view appended to a labeled shard writer");
  }

  const int64_t d = impl->manifest.dim;
  int64_t row = 0;
  while (row < view.rows()) {
    const int64_t take = std::min(
        view.rows() - row, impl->options.rows_per_shard -
                               impl->buffered_rows);
    impl->points.insert(impl->points.end(), view.Point(row),
                        view.Point(row) + take * d);
    if (impl->options.has_weights) {
      if (view.has_weights()) {
        impl->weights.insert(impl->weights.end(), view.weights() + row,
                             view.weights() + row + take);
      } else {
        impl->weights.insert(impl->weights.end(),
                             static_cast<size_t>(take), 1.0);
      }
    }
    if (impl->options.has_labels) {
      impl->labels.insert(impl->labels.end(), view.labels() + row,
                          view.labels() + row + take);
    }
    impl->buffered_rows += take;
    row += take;
    if (impl->buffered_rows == impl->options.rows_per_shard) {
      KMEANSLL_RETURN_NOT_OK(impl->FlushShard());
    }
  }
  return Status::OK();
}

Status ShardWriter::AppendRange(const DatasetSource& source, int64_t begin,
                                int64_t end) {
  // Manual pin loop rather than ForEachBlock: stop streaming (and
  // pinning) the moment an append fails.
  int64_t row = begin;
  while (row < end) {
    PinnedBlock block = source.Pin(row, end);
    KMEANSLL_RETURN_NOT_OK(Append(block.view()));
    row = block.view().end_row();
  }
  return Status::OK();
}

int64_t ShardWriter::rows_appended() const {
  return impl_->manifest.n + impl_->buffered_rows;
}

Result<ShardManifest> ShardWriter::Finalize() {
  Impl* impl = impl_.get();
  if (impl->finalized) {
    return Status::InvalidArgument("shard writer already finalized");
  }
  if (impl->buffered_rows > 0) {
    KMEANSLL_RETURN_NOT_OK(impl->FlushShard());
  }
  if (impl->manifest.n == 0) {
    return Status::InvalidArgument(
        "cannot finalize a shard writer with no rows");
  }
  KMEANSLL_RETURN_NOT_OK(
      WriteManifestFile(impl->manifest_path, impl->manifest));
  impl->finalized = true;
  return impl->manifest;
}

// ---------------------------------------------------------------------------
// ShardedDataset
// ---------------------------------------------------------------------------

struct ShardedDataset::Impl {
  struct Shard {
    std::string path;     // resolved (manifest dir + relative name)
    int64_t rows = 0;
    int64_t first_row = 0;
    int64_t file_bytes = 0;  // exact bytes the mapping covers
    bool has_crc = false;    // v2 shard with a trailing payload CRC
    bool crc_checked = false;  // payload verified at first map

    // Mutable residency state, guarded by `mutex`.
    const char* base = nullptr;  // mapping base (null = not resident)
    int64_t pin_count = 0;
    uint64_t last_use = 0;
    bool mapping = false;    // a thread is mapping this shard right now
    bool touching = false;   // prefetcher is warming pages (no unmap!)
    bool queued = false;     // sitting in the prefetch queue
    bool protected_ = false; // prefetched, not yet pinned: evict last
    bool failed = false;     // demand map retry budget exhausted
    Status fail_status;      // why (set once, with `failed`)
  };

  /// IoStats as independent atomic cells: counters bumped under `mutex`
  /// stay coherent with eviction decisions, while io_stats() snapshots
  /// each field tear-free without taking the lock (stall time in
  /// particular is recorded while the lock is NOT held).
  struct StatsCells {
    std::atomic<int64_t> maps{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> resident_bytes{0};
    std::atomic<int64_t> peak_resident_bytes{0};
    std::atomic<int64_t> prefetch_issued{0};
    std::atomic<int64_t> prefetch_completed{0};
    std::atomic<int64_t> prefetch_hits{0};
    std::atomic<int64_t> prefetch_wasted{0};
    std::atomic<int64_t> stall_nanos{0};
    std::atomic<int64_t> map_retries{0};
    std::atomic<int64_t> map_failures{0};
  };

  ShardManifest manifest;
  ShardedDatasetOptions options;
  std::vector<Shard> shards;

  mutable std::mutex mutex;
  mutable std::condition_variable map_done;     // a map finished
  mutable std::condition_variable prefetch_cv;  // queue/shutdown changed
  mutable std::deque<size_t> prefetch_queue;
  mutable std::thread prefetch_worker;  // lazily started by PrefetchHint
  mutable int64_t protected_count = 0;
  // Bytes held by outstanding prefetch work (queued shards plus mapped-
  // but-never-pinned ones); bounds how much the pipeline can inflate
  // residency ahead of the scan.
  mutable int64_t prefetch_hold_bytes = 0;
  mutable bool shutting_down = false;
  mutable uint64_t use_tick = 0;
  mutable StatsCells stats;
  mutable bool total_weight_cached = false;
  mutable double total_weight = 0.0;
  // Degraded-mode state (guarded by `mutex`): the first unrecoverable
  // shard error, and zero-filled stand-in blocks for failed shards.
  mutable Status failure;
  mutable std::map<size_t, std::unique_ptr<char[]>> fallbacks;

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      shutting_down = true;
      prefetch_cv.notify_all();
    }
    if (prefetch_worker.joinable()) prefetch_worker.join();
    for (Shard& shard : shards) {
      if (shard.base != nullptr) Unmap(shard);
    }
  }

  static void UnmapRaw(const char* base, int64_t file_bytes) {
#if defined(_WIN32)
    (void)file_bytes;
    std::free(const_cast<char*>(base));
#else
    ::munmap(const_cast<char*>(base), static_cast<size_t>(file_bytes));
#endif
  }

  static void Unmap(Shard& shard) {
    UnmapRaw(shard.base, shard.file_bytes);
    shard.base = nullptr;
  }

  /// Verifies a v2 shard's trailing payload CRC against its mapped
  /// bytes — one sequential read over the mapping, done at first map
  /// with `mutex` released so other shards' pins never wait on it. A
  /// mismatch is deterministic corruption, not a transient I/O blip, so
  /// it surfaces as InvalidArgument (which RetryTransient does NOT
  /// retry) and the caller unmaps: corrupt bytes are never served.
  static Status VerifyPayloadCrc(const Shard& shard, const char* base) {
    RecordReader mapped(
        std::string_view(base, static_cast<size_t>(shard.file_bytes)),
        shard.path);
    const char* body = nullptr;
    KMEANSLL_RETURN_NOT_OK(
        mapped.View(shard.file_bytes - int64_t{sizeof(uint32_t)}, &body));
    return mapped.ReadCrc("payload", "shard.crc");
  }

  /// Maps the file behind `shard` read-only into *out_base. Pure I/O on
  /// local data — deliberately run with `mutex` RELEASED so concurrent
  /// pins of other shards never serialize behind one shard's I/O.
  static Status MapFile(const std::string& path, int64_t file_bytes,
                        const char** out_base) {
#if defined(_WIN32)
    // Portability fallback: read the file into a heap buffer. Same view
    // semantics, no mmap (and inherently populated).
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      return Status::IOError("cannot open shard '" + path + "'");
    }
    char* buffer =
        static_cast<char*>(std::malloc(static_cast<size_t>(file_bytes)));
    if (buffer == nullptr) return Status::IOError("out of memory");
    in.read(buffer, static_cast<std::streamsize>(file_bytes));
    if (!in.good()) {
      std::free(buffer);
      return Status::IOError("shard '" + path + "' is truncated");
    }
    *out_base = buffer;
#else
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError("cannot open shard '" + path + "'");
    }
    void* mapping = ::mmap(nullptr, static_cast<size_t>(file_bytes),
                           PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (mapping == MAP_FAILED) {
      return Status::IOError("mmap of shard '" + path + "' failed");
    }
    *out_base = static_cast<const char*>(mapping);
#endif
    return Status::OK();
  }

  /// Warms a published mapping: requests readahead and faults one byte
  /// per page, off the scan threads' critical path. Reads only — a scan
  /// may already be consuming the same (read-only) mapping concurrently.
  static void TouchPages(const char* base, int64_t file_bytes) {
#if !defined(_WIN32)
    ::madvise(const_cast<char*>(base), static_cast<size_t>(file_bytes),
              MADV_WILLNEED);
    // Volatile reads: the loads have no observable use, and a plain
    // loop could be dead-code-eliminated — silently reducing prefetch
    // to the madvise hint and handing the faults back to the scan.
    const volatile char* pages = base;
    for (int64_t off = 0; off < file_bytes; off += 4096) {
      (void)pages[off];
    }
#else
    (void)base;
    (void)file_bytes;
#endif
  }

  /// Publishes a finished mapping for `shard`. Caller holds `mutex`.
  void PublishMapping(Shard& shard, const char* base) {
    shard.base = base;
    stats.maps.fetch_add(1, std::memory_order_relaxed);
    const int64_t resident =
        stats.resident_bytes.fetch_add(shard.file_bytes,
                                       std::memory_order_relaxed) +
        shard.file_bytes;
    if (resident > stats.peak_resident_bytes.load(
                       std::memory_order_relaxed)) {
      stats.peak_resident_bytes.store(resident,
                                      std::memory_order_relaxed);
    }
    const ShardStoreMetrics& m = ShardMetrics();
    m.maps->Increment();
    m.resident_bytes->Add(shard.file_bytes);
    m.peak_resident_bytes->UpdateMax(m.resident_bytes->value());
  }

  /// Drops `shard`'s hint from the prefetch queue and releases its hold,
  /// because a demand map is about to make the shard resident. Left
  /// queued, the hint would be popped after the scan had moved on and
  /// the shard had been evicted: the prefetcher would map it again
  /// behind the cursor, protected and unevictable while its pages are
  /// touched, and push residency past the window plus the pinned shard.
  /// Caller holds `mutex`.
  void CancelQueuedPrefetch(Shard& shard) {
    const auto index = static_cast<size_t>(&shard - shards.data());
    prefetch_queue.erase(
        std::find(prefetch_queue.begin(), prefetch_queue.end(), index));
    shard.queued = false;
    prefetch_hold_bytes -= shard.file_bytes;
  }

  /// Ensures `shard` is resident, mapping it on demand (or waiting out a
  /// map already in flight on another thread — the prefetcher's,
  /// typically). A demand map first cancels the shard's queued hint, if
  /// any. Transient map failures are retried with backoff under
  /// options.io_retry (with `mutex` released, so other shards' pins
  /// never serialize behind the backoff). Returns OK with `mutex` held
  /// and shard.base set — or, once the retry budget is exhausted, marks
  /// the shard failed and returns the error; the caller degrades to a
  /// fallback block. All blocking is accounted to stall_nanos: this is
  /// exactly the time a scan thread lost to shard I/O.
  Status EnsureResident(std::unique_lock<std::mutex>& lock, Shard& shard) {
    using Clock = std::chrono::steady_clock;
    while (shard.base == nullptr) {
      if (shard.failed) return shard.fail_status;
      if (shard.mapping) {
        const auto start = Clock::now();
        map_done.wait(lock, [&] {
          return shard.base != nullptr || !shard.mapping;
        });
        const int64_t waited =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count();
        stats.stall_nanos.fetch_add(waited, std::memory_order_relaxed);
        ShardMetrics().stall_ns->Increment(waited);
        continue;
      }
      if (shard.queued) CancelQueuedPrefetch(shard);
      shard.mapping = true;
      const bool verify_crc = shard.has_crc && !shard.crc_checked;
      lock.unlock();
      const auto start = Clock::now();
      const char* base = nullptr;
      int64_t retries = 0;
      Status status;
      {
        KMEANSLL_TRACE_SPAN("shard.demand_map");
        status = RetryTransient(
            options.io_retry,
            [&]() -> Status {
              KMEANSLL_RETURN_NOT_OK(fault::Check("shard.map"));
              KMEANSLL_RETURN_NOT_OK(
                  MapFile(shard.path, shard.file_bytes, &base));
              if (verify_crc) {
                Status crc = VerifyPayloadCrc(shard, base);
                if (!crc.ok()) {
                  UnmapRaw(base, shard.file_bytes);
                  base = nullptr;
                  return crc;  // InvalidArgument: not retried, degrade
                }
              }
              return Status::OK();
            },
            &retries);
      }
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now() - start)
              .count();
      lock.lock();
      shard.mapping = false;
      if (status.ok() && verify_crc) shard.crc_checked = true;
      stats.stall_nanos.fetch_add(elapsed, std::memory_order_relaxed);
      stats.map_retries.fetch_add(retries, std::memory_order_relaxed);
      ShardMetrics().stall_ns->Increment(elapsed);
      ShardMetrics().map_retries->Increment(retries);
      if (!status.ok()) {
        // Retry budget exhausted: degrade instead of aborting. The
        // shard is marked failed so later pins don't burn the backoff
        // again, and the dataset's sticky status records the first
        // error for the driver to surface.
        shard.failed = true;
        shard.fail_status = status;
        stats.map_failures.fetch_add(1, std::memory_order_relaxed);
        ShardMetrics().map_failures->Increment();
        if (failure.ok()) failure = status;
        map_done.notify_all();
        return status;
      }
      PublishMapping(shard, base);
      map_done.notify_all();
    }
    return Status::OK();
  }

  /// Evicts least-recently-used unpinned shards while over budget.
  /// Prefetched-but-never-pinned shards are spared until no other
  /// candidate remains (the double-buffer guarantee); reclaiming one
  /// anyway counts as a wasted prefetch. Caller holds `mutex`.
  void EvictOverBudget() {
    if (options.max_resident_bytes <= 0) return;
    while (stats.resident_bytes.load(std::memory_order_relaxed) >
           options.max_resident_bytes) {
      Shard* victim = nullptr;
      bool victim_protected = false;
      for (bool consider_protected : {false, true}) {
        for (Shard& shard : shards) {
          if (shard.base == nullptr || shard.pin_count > 0 ||
              shard.mapping || shard.touching ||
              shard.protected_ != consider_protected) {
            continue;
          }
          if (victim == nullptr || shard.last_use < victim->last_use) {
            victim = &shard;
          }
        }
        if (victim != nullptr) {
          victim_protected = consider_protected;
          break;
        }
      }
      if (victim == nullptr) return;  // everything resident is in use
      if (victim_protected) {
        victim->protected_ = false;
        --protected_count;
        prefetch_hold_bytes -= victim->file_bytes;
        stats.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
        ShardMetrics().prefetch_wasted->Increment();
      }
      Unmap(*victim);
      stats.resident_bytes.fetch_sub(victim->file_bytes,
                                     std::memory_order_relaxed);
      stats.evictions.fetch_add(1, std::memory_order_relaxed);
      ShardMetrics().resident_bytes->Add(-victim->file_bytes);
      ShardMetrics().evictions->Increment();
    }
  }

  /// Background prefetcher: drains the hint queue. Each shard is mapped
  /// and PUBLISHED immediately (the map syscall is cheap), then its
  /// pages are touched with the mutex released — so a scan whose cursor
  /// outruns the warming never waits on the prefetcher: it pins the
  /// published mapping and at worst faults pages itself, exactly as it
  /// would have without prefetch. Holds `mutex` only around state
  /// transitions, never during I/O.
  void PrefetchLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      prefetch_cv.wait(
          lock, [&] { return shutting_down || !prefetch_queue.empty(); });
      if (shutting_down) return;
      const size_t index = prefetch_queue.front();
      prefetch_queue.pop_front();
      Shard& shard = shards[index];
      shard.queued = false;
      // Only an unmapped shard is queued, and a demand map cancels the
      // hint before it starts, so the shard is still unmapped here.
      KMEANSLL_DCHECK(shard.base == nullptr && !shard.mapping);
      shard.mapping = true;
      const bool verify_crc = shard.has_crc && !shard.crc_checked;
      lock.unlock();
      const char* base = nullptr;
      int64_t retries = 0;
      Status status;
      {
        KMEANSLL_TRACE_SPAN("shard.prefetch_map");
        status = RetryTransient(
            options.io_retry,
            [&]() -> Status {
              KMEANSLL_RETURN_NOT_OK(fault::Check("shard.prefetch"));
              KMEANSLL_RETURN_NOT_OK(
                  MapFile(shard.path, shard.file_bytes, &base));
              if (verify_crc) {
                Status crc = VerifyPayloadCrc(shard, base);
                if (!crc.ok()) {
                  UnmapRaw(base, shard.file_bytes);
                  base = nullptr;
                  return crc;
                }
              }
              return Status::OK();
            },
            &retries);
      }
      lock.lock();
      shard.mapping = false;
      if (status.ok() && verify_crc) shard.crc_checked = true;
      stats.map_retries.fetch_add(retries, std::memory_order_relaxed);
      ShardMetrics().map_retries->Increment(retries);
      if (!status.ok()) {
        // A prefetch failure must never take down the scan: leave the
        // shard unmapped (NOT failed) so the demand path gets its own
        // retry budget and is the one to surface a clean error.
        prefetch_hold_bytes -= shard.file_bytes;
        map_done.notify_all();
        continue;
      }
      PublishMapping(shard, base);
      shard.protected_ = true;
      ++protected_count;
      shard.touching = true;  // pins may proceed; eviction may not
      map_done.notify_all();
      lock.unlock();
      {
        KMEANSLL_TRACE_SPAN("shard.prefetch_warm");
        TouchPages(base, shard.file_bytes);
      }
      lock.lock();
      shard.touching = false;
      stats.prefetch_completed.fetch_add(1, std::memory_order_relaxed);
      ShardMetrics().prefetch_completed->Increment();
      EvictOverBudget();
      if (shutting_down) return;
    }
  }

  /// Shard index owning global row `row` (shards are sorted by
  /// first_row and contiguous).
  size_t ShardIndexOf(int64_t row) const {
    size_t lo = 0, hi = shards.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi + 1) / 2;
      if (shards[mid].first_row <= row) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return lo;
  }

  void Unpin(size_t shard_index) {
    std::lock_guard<std::mutex> lock(mutex);
    Shard& shard = shards[shard_index];
    KMEANSLL_CHECK_GT(shard.pin_count, 0);
    --shard.pin_count;
    // Enforce the window as soon as a pin drops, so a streaming pass
    // never holds more than the budget plus its own pinned shards.
    EvictOverBudget();
  }

  /// Zero-filled stand-in block for a failed shard, laid out exactly
  /// like its file (header + points + weights + labels) so the Pin path
  /// slices it identically. Points read 0.0 and weights read 1.0 —
  /// structurally valid inputs for every kernel (no NaNs, no zero total
  /// weight) — so a degraded scan runs to completion and the driver
  /// rejects the run via status(). Allocated once per failed shard;
  /// caller holds `mutex`.
  const char* FallbackBase(size_t shard_index) {
    std::unique_ptr<char[]>& slot = fallbacks[shard_index];
    if (slot == nullptr) {
      const Shard& shard = shards[shard_index];
      slot = std::make_unique<char[]>(
          static_cast<size_t>(shard.file_bytes));  // value-init: zeros
      if (manifest.has_weights) {
        auto* weights = reinterpret_cast<double*>(
            slot.get() + kDatasetHeaderBytes +
            shard.rows * manifest.dim *
                static_cast<int64_t>(sizeof(double)));
        std::fill_n(weights, shard.rows, 1.0);
      }
    }
    return slot.get();
  }
};

ShardedDataset::ShardedDataset(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ShardedDataset::ShardedDataset(ShardedDataset&&) noexcept = default;
ShardedDataset& ShardedDataset::operator=(ShardedDataset&&) noexcept =
    default;
ShardedDataset::~ShardedDataset() = default;

Result<ShardedDataset> ShardedDataset::Open(
    const std::string& manifest_path, const ShardedDatasetOptions& options) {
  KMEANSLL_ASSIGN_OR_RETURN(ShardManifest manifest,
                            ReadShardManifest(manifest_path));
  auto impl = std::make_unique<Impl>();
  impl->options = options;

  const std::string dir = DirOf(manifest_path);
  for (const ShardInfo& info : manifest.shards) {
    Impl::Shard shard;
    shard.path = dir + info.file;
    shard.rows = info.rows;
    shard.first_row = info.first_row;

    // Validate the shard header and size now: a corrupt or truncated
    // shard fails Open instead of a mid-scan pin. The payload-CRC bit is
    // a per-shard property (an appended dataset may mix v1 and v2
    // shards), not a manifest-level one.
    KMEANSLL_ASSIGN_OR_RETURN(RecordReader in,
                              RecordReader::OpenFile(shard.path));
    KMEANSLL_ASSIGN_OR_RETURN(DatasetHeader header, ReadDatasetHeader(&in));
    if (header.n != info.rows || header.dim != manifest.dim ||
        header.has_weights != manifest.has_weights ||
        header.has_labels != manifest.has_labels) {
      return Status::InvalidArgument(
          "shard '" + shard.path + "' header (rows=" +
          std::to_string(header.n) + ", dim=" + std::to_string(header.dim) +
          ") disagrees with the manifest");
    }
    shard.has_crc = header.has_crc;
    shard.file_bytes = header.file_bytes;
    impl->shards.push_back(std::move(shard));
  }
  impl->manifest = std::move(manifest);
  return ShardedDataset(std::move(impl));
}

int64_t ShardedDataset::n() const { return impl_->manifest.n; }
int64_t ShardedDataset::dim() const { return impl_->manifest.dim; }
bool ShardedDataset::has_weights() const {
  return impl_->manifest.has_weights;
}
bool ShardedDataset::has_labels() const {
  return impl_->manifest.has_labels;
}

int64_t ShardedDataset::num_shards() const {
  return static_cast<int64_t>(impl_->shards.size());
}

std::pair<int64_t, int64_t> ShardedDataset::ShardRows(int64_t s) const {
  const Impl::Shard& shard = impl_->shards[static_cast<size_t>(s)];
  return {shard.first_row, shard.first_row + shard.rows};
}

std::vector<std::pair<int64_t, int64_t>> ShardedDataset::ShardRanges()
    const {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(impl_->shards.size());
  for (const Impl::Shard& shard : impl_->shards) {
    ranges.emplace_back(shard.first_row, shard.first_row + shard.rows);
  }
  return ranges;
}

const ShardManifest& ShardedDataset::manifest() const {
  return impl_->manifest;
}

ShardedDataset::IoStats ShardedDataset::io_stats() const {
  const Impl::StatsCells& cells = impl_->stats;
  IoStats out;
  out.maps = cells.maps.load(std::memory_order_relaxed);
  out.evictions = cells.evictions.load(std::memory_order_relaxed);
  out.resident_bytes =
      cells.resident_bytes.load(std::memory_order_relaxed);
  out.peak_resident_bytes =
      cells.peak_resident_bytes.load(std::memory_order_relaxed);
  out.prefetch_issued =
      cells.prefetch_issued.load(std::memory_order_relaxed);
  out.prefetch_completed =
      cells.prefetch_completed.load(std::memory_order_relaxed);
  out.prefetch_hits = cells.prefetch_hits.load(std::memory_order_relaxed);
  out.prefetch_wasted =
      cells.prefetch_wasted.load(std::memory_order_relaxed);
  out.stall_nanos = cells.stall_nanos.load(std::memory_order_relaxed);
  out.map_retries = cells.map_retries.load(std::memory_order_relaxed);
  out.map_failures = cells.map_failures.load(std::memory_order_relaxed);
  return out;
}

void ShardedDataset::PrefetchHint(int64_t begin, int64_t end) const {
  Impl* impl = impl_.get();
  if (!impl->options.enable_prefetch) return;
  begin = std::max<int64_t>(begin, 0);
  end = std::min(end, impl->manifest.n);
  if (begin >= end) return;

  std::lock_guard<std::mutex> lock(impl->mutex);
  if (impl->shutting_down) return;
  const size_t first = impl->ShardIndexOf(begin);
  size_t last = impl->ShardIndexOf(end - 1);
  const int64_t cap = std::max<int64_t>(impl->options.max_prefetch_shards,
                                        1);
  // Examine only the first few shards of the range: the cap means
  // nothing beyond them could be enqueued anyway, and steady-state
  // hints over a warm tail (ForEachBlock hints the whole remainder
  // after every pin) must not degenerate into an O(shards) walk under
  // the mutex every Pin serializes on.
  last = std::min(last, first + static_cast<size_t>(cap));
  bool enqueued = false;
  for (size_t s = first; s <= last; ++s) {
    Impl::Shard& shard = impl->shards[s];
    if (shard.base != nullptr || shard.mapping || shard.queued) continue;
    // Bound outstanding work: shards waiting in the queue plus shards
    // the prefetcher mapped that no pin has consumed yet.
    if (static_cast<int64_t>(impl->prefetch_queue.size()) +
            impl->protected_count >=
        cap) {
      break;
    }
    // Never prefetch more than the LRU window can hold alongside a
    // concurrently pinned shard: a hint the window cannot keep would
    // only evict itself (or the shard the scan is on) before the cursor
    // arrives. A window under two shards therefore disables prefetch —
    // that degenerate configuration has no room to double-buffer.
    if (impl->options.max_resident_bytes > 0 &&
        impl->prefetch_hold_bytes + 2 * shard.file_bytes >
            impl->options.max_resident_bytes) {
      break;
    }
    shard.queued = true;
    impl->prefetch_hold_bytes += shard.file_bytes;
    impl->prefetch_queue.push_back(s);
    impl->stats.prefetch_issued.fetch_add(1, std::memory_order_relaxed);
    ShardMetrics().prefetch_issued->Increment();
    enqueued = true;
  }
  if (!enqueued) return;
  if (!impl->prefetch_worker.joinable()) {
    impl->prefetch_worker = std::thread([impl] { impl->PrefetchLoop(); });
  }
  impl->prefetch_cv.notify_one();
}

std::vector<std::pair<int64_t, int64_t>> ShardedDataset::ResidencyRanges()
    const {
  return ShardRanges();
}

int64_t ShardedDataset::ResidentUnitCapacity() const {
  const int64_t budget = impl_->options.max_resident_bytes;
  if (budget <= 0) return 0;
  int64_t largest = 0;
  for (const Impl::Shard& shard : impl_->shards) {
    largest = std::max(largest, shard.file_bytes);
  }
  return std::max<int64_t>(budget / std::max<int64_t>(largest, 1), 1);
}

PinnedBlock ShardedDataset::Pin(int64_t begin, int64_t end) const {
  Impl* impl = impl_.get();
  KMEANSLL_CHECK(begin >= 0 && begin < end && end <= impl->manifest.n);

  size_t shard_index;
  const char* base;
  bool degraded = false;
  {
    std::unique_lock<std::mutex> lock(impl->mutex);
    shard_index = impl->ShardIndexOf(begin);
    Impl::Shard& shard = impl->shards[shard_index];
    const bool was_resident = shard.base != nullptr;
    const Status resident = impl->EnsureResident(lock, shard);
    if (!resident.ok()) {
      // Degraded pin: the shard's retry budget is spent. Serve the
      // zero-filled stand-in so the scan completes; status() reports
      // the failure to the driver. No pin accounting — there is no
      // mapping to protect from eviction.
      base = impl->FallbackBase(shard_index);
      degraded = true;
    } else {
      if (shard.protected_) {
        // First pin of a prefetched shard: the demand map (and its page
        // faults) never happened on this thread. Protection ends here;
        // from now on the shard ages out by plain LRU.
        shard.protected_ = false;
        --impl->protected_count;
        impl->prefetch_hold_bytes -= shard.file_bytes;
        if (was_resident) {
          impl->stats.prefetch_hits.fetch_add(1,
                                              std::memory_order_relaxed);
          ShardMetrics().prefetch_hits->Increment();
        }
      }
      ++shard.pin_count;
      shard.last_use = ++impl->use_tick;
      // A fresh map may have pushed residency over the window; evict
      // other, unpinned shards now.
      impl->EvictOverBudget();
      base = shard.base;
    }
  }

  const Impl::Shard& shard = impl->shards[shard_index];
  const int64_t local_first = begin - shard.first_row;
  const int64_t local_end =
      std::min(end - shard.first_row, shard.rows);
  const int64_t d = impl->manifest.dim;

  const char* cursor = base + kDatasetHeaderBytes;
  const auto* points = reinterpret_cast<const double*>(cursor);
  cursor += shard.rows * d * static_cast<int64_t>(sizeof(double));
  const double* weights = nullptr;
  if (impl->manifest.has_weights) {
    weights = reinterpret_cast<const double*>(cursor);
    cursor += shard.rows * static_cast<int64_t>(sizeof(double));
  }
  const int32_t* labels = nullptr;
  if (impl->manifest.has_labels) {
    labels = reinterpret_cast<const int32_t*>(cursor);
  }

  DatasetView shard_view(ConstMatrixView(points, shard.rows, d),
                         shard.first_row, weights, labels);
  if (degraded) {
    // Fallback blocks are never unmapped, so there is nothing to unpin.
    return PinnedBlock(shard_view.Slice(local_first, local_end), [] {});
  }
  return PinnedBlock(shard_view.Slice(local_first, local_end),
                     [impl, shard_index] { impl->Unpin(shard_index); });
}

Status ShardedDataset::status() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->failure;
}

double ShardedDataset::TotalWeight() const {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->total_weight_cached) return impl_->total_weight;
  }
  double total;
  if (!impl_->manifest.has_weights) {
    total = static_cast<double>(impl_->manifest.n);
  } else {
    KahanSum sum;
    ForEachBlock(*this, 0, n(), [&](const DatasetView& v) {
      for (int64_t i = 0; i < v.rows(); ++i) sum.Add(v.Weight(i));
    });
    total = sum.Total();
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->total_weight_cached = true;
  impl_->total_weight = total;
  return total;
}

}  // namespace kmeansll::data
