// Sharded, disk-resident dataset storage — the out-of-core leg of the
// storage layer (see docs/ARCHITECTURE.md "Storage layer").
//
// A sharded dataset is a manifest file ("KMLLSHRD") plus N shard files,
// each an ordinary KMLLDATA binary (data/binary_io.h) holding a
// contiguous row range, so every shard also loads standalone with
// ReadBinary. ShardedDataset implements DatasetSource by memory-mapping
// shards on demand: Pin(begin, end) maps the shard containing `begin`
// (if not already resident), bumps its pin count, and returns a
// DatasetView straight into the mapping — no copy, no parse. An LRU
// window (max_resident_bytes) bounds how much of the data stays mapped:
// unpinned shards are evicted least-recently-used first, while pinned
// shards never evict, so concurrent chunked passes from a thread pool
// are always safe (the window may be exceeded transiently while pins
// demand it).
//
// Determinism: a pinned view exposes the bytes WriteShards wrote, which
// are the bytes the in-memory dataset held, so every consumer of the
// storage layer produces bitwise-identical results over a ShardedDataset
// and over the original Dataset (tests/shard_store_test.cc asserts this
// for k-means||, k-means++, and Lloyd at pool sizes null/1/4 with a
// window smaller than the data).

#ifndef KMEANSLL_DATA_SHARD_STORE_H_
#define KMEANSLL_DATA_SHARD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"

namespace kmeansll::data {

/// One shard entry of a manifest.
struct ShardInfo {
  std::string file;      ///< shard filename, relative to the manifest
  int64_t rows = 0;      ///< row count of this shard
  int64_t first_row = 0; ///< global index of the shard's first row
};

/// Parsed manifest: dataset shape plus the shard table.
struct ShardManifest {
  int64_t n = 0;
  int64_t dim = 0;
  bool has_weights = false;
  bool has_labels = false;
  std::vector<ShardInfo> shards;
};

/// How WriteShards splits the rows. Exactly one of the two must be
/// positive: `num_shards` splits near-equally (the Dataset::SplitRanges
/// split), `rows_per_shard` caps each shard's row count (last shard may
/// be smaller).
struct ShardWriteOptions {
  int64_t num_shards = 0;
  int64_t rows_per_shard = 0;
};

/// Writes `dataset` as a manifest at `manifest_path` plus shard files
/// "<manifest_path>.shard<i>" next to it (each a standalone KMLLDATA
/// file). Returns the manifest that was written.
Result<ShardManifest> WriteShards(const Dataset& dataset,
                                  const std::string& manifest_path,
                                  const ShardWriteOptions& options);

/// Reads and validates a manifest (shape plausibility, shard table
/// consistency). Does not open the shard files; ShardedDataset::Open
/// validates those.
Result<ShardManifest> ReadShardManifest(const std::string& manifest_path);

/// Streaming shard sink: produces a sharded dataset (manifest + shard
/// files, the format ShardedDataset::Open reads) without ever
/// materializing a full Dataset — the ingest/transform counterpart of
/// WriteShards. Open fixes the shape, Append streams any number of row
/// blocks (buffered and cut into rows_per_shard shard files as they
/// fill), Finalize flushes the tail shard and writes the manifest.
/// Movable, not copyable; abandoning a writer without Finalize leaves
/// partial shard files but no manifest, so nothing will open them.
class ShardWriter {
 public:
  struct Options {
    int64_t rows_per_shard = 0;  ///< required, > 0 (last shard may be
                                 ///< smaller)
    bool has_weights = false;
    bool has_labels = false;
  };

  /// Starts a sharded dataset at `manifest_path` with `dim` columns.
  /// Shard files are written next to the manifest as WriteShards names
  /// them ("<manifest>.shard<i>").
  static Result<ShardWriter> Open(const std::string& manifest_path,
                                  int64_t dim, const Options& options);

  /// Resumes writing into an EXISTING sharded dataset: loads the
  /// manifest at `manifest_path`, seeds the writer with its shard table,
  /// and numbers new shard files after the existing ones. Finalize then
  /// publishes a combined manifest (old shards + new) atomically — the
  /// existing dataset stays fully readable until that rename lands, so
  /// a crash mid-append leaves at most orphan ".shard<i>" files no
  /// manifest references. This is LiveDataset's seal path: compact the
  /// oplog tail onto the sealed shards without rewriting them. The
  /// manifest's shape (dim, weights, labels) must match the arguments.
  static Result<ShardWriter> OpenForAppend(const std::string& manifest_path,
                                           int64_t dim,
                                           const Options& options);

  ShardWriter(ShardWriter&&) noexcept;
  ShardWriter& operator=(ShardWriter&&) noexcept;
  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;
  ~ShardWriter();

  /// Appends every row of `view` (its first_row is irrelevant; rows land
  /// after whatever was appended before). The view's dim must match.
  /// A weight-less view into a weighted writer appends weight 1.0 per
  /// row; a weighted view into a weight-less writer is an error (the
  /// weights would be silently dropped), as is any label mismatch.
  Status Append(const DatasetView& view);

  /// Convenience: appends rows [begin, end) of a source by streaming its
  /// pinned blocks through Append.
  Status AppendRange(const DatasetSource& source, int64_t begin,
                     int64_t end);

  /// Rows appended so far.
  int64_t rows_appended() const;

  /// Flushes the tail shard and writes the manifest; the writer is spent
  /// afterwards (further Append/Finalize calls fail). Fails if nothing
  /// was appended.
  Result<ShardManifest> Finalize();

 private:
  struct Impl;
  explicit ShardWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Residency policy for an open ShardedDataset.
struct ShardedDatasetOptions {
  /// Maximum bytes of shard files kept memory-mapped at once; 0 means
  /// unbounded. Pinned shards never evict, so a window smaller than one
  /// shard degenerates to exactly-one-resident-at-a-time streaming.
  int64_t max_resident_bytes = 0;
  /// Ignored; kept only because perfbench sets it.
  bool enable_prefetch = true;
  /// Transient shard-map failures (a demand mmap/open that fails) are
  /// retried with capped exponential backoff under this policy before
  /// the dataset degrades (see ShardedDataset::status()).
  RetryPolicy io_retry;
};

/// DatasetSource over a sharded on-disk dataset. Thread-safe: Pin and
/// pin release may be called concurrently from pool workers. Movable,
/// not copyable.
///
/// Residency window: a shard becomes resident only through a demand map
/// by the Pin that needs it (a Pin that finds the shard being mapped by
/// another thread waits for that map). Each map is published, and the
/// LRU window evicts unpinned shards back under max_resident_bytes, in
/// one critical section; every unpin evicts the same way. So with P
/// threads each holding at most one pin, residency never exceeds
/// max(max_resident_bytes, (P - 1) * largest shard) + largest shard,
/// and it is back under max_resident_bytes once every pin is released
/// (docs/ARCHITECTURE.md "Residency window" derives the bound;
/// ShardWindowTest asserts it).
class ShardedDataset final : public DatasetSource {
 public:
  /// Residency/IO telemetry. Monotonic counters except resident_bytes
  /// (current). Internally every field is a separate atomic cell, so a
  /// concurrent io_stats() snapshot never tears a field (the test suite
  /// hammers this under TSan); fields are sampled individually, so
  /// cross-field invariants may be momentarily off by one in-flight
  /// update.
  struct IoStats {
    int64_t maps = 0;             ///< shard maps published
    int64_t evictions = 0;        ///< shards unmapped by the LRU window
    int64_t resident_bytes = 0;   ///< bytes currently mapped
    int64_t peak_resident_bytes = 0;
    /// Always 0; kept only because perfbench reports them.
    int64_t prefetch_completed = 0;
    int64_t prefetch_hits = 0;
    int64_t prefetch_wasted = 0;
    int64_t stall_nanos = 0;      ///< time scan threads spent blocked in
                                  ///< Pin on shard I/O (demand maps and
                                  ///< waits on in-flight maps)
    int64_t map_retries = 0;      ///< transient map failures retried
    int64_t map_failures = 0;     ///< shards whose map retry budget was
                                  ///< exhausted (the scan degraded; see
                                  ///< status())
  };

  /// Opens a sharded dataset: parses the manifest and validates every
  /// shard file's header (magic, version, shape, flags) and size against
  /// it up front, so corruption fails here rather than mid-scan. Mapping
  /// is lazy — no shard is mmap'd until first pinned. Version-2 shards
  /// carry a trailing payload CRC-32, verified once at the shard's
  /// first map: a mismatch degrades that shard exactly like an
  /// exhausted map-retry budget (fallback block + sticky status()),
  /// so silent payload corruption fails a scan cleanly instead of
  /// feeding garbage to the kernels.
  static Result<ShardedDataset> Open(const std::string& manifest_path,
                                     const ShardedDatasetOptions& options =
                                         ShardedDatasetOptions{});

  ShardedDataset(ShardedDataset&&) noexcept;
  ShardedDataset& operator=(ShardedDataset&&) noexcept;
  ShardedDataset(const ShardedDataset&) = delete;
  ShardedDataset& operator=(const ShardedDataset&) = delete;
  ~ShardedDataset() override;

  // DatasetSource:
  int64_t n() const override;
  int64_t dim() const override;
  bool has_weights() const override;
  bool has_labels() const override;
  /// Computed on first call (one streamed pass) and cached.
  double TotalWeight() const override;
  PinnedBlock Pin(int64_t begin, int64_t end) const override;
  /// Sticky health of the source. OK while every pin has served real
  /// shard bytes. Once a shard exhausts its map retry budget the first
  /// such error is recorded here permanently; the failed Pin (and every
  /// later pin of that shard) serves a zero-filled fallback block so the
  /// scan completes structurally, and the driver that owns the scan
  /// checks status() at its Result boundary — a bad shard fails the
  /// *scan*, never the process.
  Status status() const override;

  const ShardManifest& manifest() const;
  IoStats io_stats() const;

 private:
  struct Impl;
  explicit ShardedDataset(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_SHARD_STORE_H_
