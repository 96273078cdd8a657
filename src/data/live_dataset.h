// LiveDataset: a DatasetSource that accepts writes — the continuous-
// ingest layer composing a sealed ShardedDataset with a write-ahead
// oplog tail (data/oplog.h).
//
//   Append ──► oplog record (WAL: durability first)
//          └─► in-memory tail segment (visible to readers)
//   Seal   ──► full tail segments compacted into KMLLDATA shards via
//              ShardWriter::OpenForAppend; one atomic manifest rename
//              is the commit point; the oplog is then GC'd (Compact)
//   Open   ──► open the manifest (if any), scan + torn-tail-truncate
//              the oplog, replay records past the sealed frontier
//
// Write path invariants:
//   - Log-before-apply: a batch lands in the oplog before it becomes
//     visible, so every acknowledged row is recoverable.
//   - Seal only cuts FULL shards (rows_per_shard each); the remainder
//     stays in the tail + log. Shard files are therefore a pure
//     function of (row stream, rows_per_shard) — independent of when
//     seals happen or how often the process crashed — which is what
//     makes the kill-point matrix's bitwise assertions possible at the
//     file level, not just the row level.
//   - Records are tagged with their global first_row; recovery replays
//     exactly the records past the manifest's n, bitwise. A crash
//     between the manifest rename and the log GC replays nothing twice.
//   - Append returns Unavailable (backpressure) when the unsealed tail
//     reaches max_unsealed_rows: the log has outrun compaction and the
//     caller must Seal() (or shed) before appending more.
//
// Read path: readers are never blocked by writes. Pin() snapshots the
// sealed dataset pointer and the tail's visible row counts under a
// brief mutex, then serves sealed rows from the mmap'd shards and tail
// rows from append-only segments whose storage never reallocates;
// sealing swaps the sealed pointer RCU-style (old shards stay alive
// until their last pin drops). Concurrent scans see a consistent
// prefix: rows become visible in append order, and a scan over [0, n)
// captured at time t sees exactly the rows acknowledged before t.

#ifndef KMEANSLL_DATA_LIVE_DATASET_H_
#define KMEANSLL_DATA_LIVE_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "data/oplog.h"
#include "data/shard_store.h"
#include "matrix/dataset_view.h"

namespace kmeansll::data {

struct LiveDatasetOptions {
  /// Seal granularity: every sealed shard holds exactly this many rows.
  int64_t rows_per_shard = 4096;
  /// Backpressure: Append rejects (Unavailable) once the unsealed tail
  /// holds this many rows. 0 = 4 * rows_per_shard.
  int64_t max_unsealed_rows = 0;
  /// Group-commit knobs for the write-ahead log.
  OpLogOptions oplog;
  /// Residency policy for the sealed shards.
  ShardedDatasetOptions sharded;
};

/// Ingest telemetry; exact counts (the workload harness smoke gate
/// asserts them deterministically).
struct IngestStats {
  int64_t appended_batches = 0;
  int64_t appended_rows = 0;
  int64_t backpressure_rejections = 0;
  int64_t seals = 0;          ///< Seal() calls that cut >= 1 shard
  int64_t sealed_rows = 0;    ///< rows moved from tail to shards
  int64_t recovered_rows = 0; ///< tail rows rebuilt by Open's replay
  int64_t torn_bytes = 0;     ///< oplog bytes truncated at Open
};

/// Writable dataset: sealed shards + oplog-backed in-memory tail.
/// Append/Seal are serialized internally (one logical writer); all
/// DatasetSource methods are thread-safe against both and against each
/// other. Weights optional, labels unsupported. Movable, not copyable.
class LiveDataset final : public DatasetSource {
 public:
  /// Opens (or starts) the live dataset rooted at `base_path`: the
  /// sealed manifest lives at "<base_path>.manifest", the oplog at
  /// "<base_path>.oplog". Recovery happens here — see file comment.
  static Result<LiveDataset> Open(const std::string& base_path, int64_t dim,
                                  bool has_weights,
                                  const LiveDatasetOptions& options);

  LiveDataset(LiveDataset&&) noexcept;
  LiveDataset& operator=(LiveDataset&&) noexcept;
  LiveDataset(const LiveDataset&) = delete;
  LiveDataset& operator=(const LiveDataset&) = delete;
  ~LiveDataset() override;

  /// Appends `rows` points (row-major, rows*dim; `weights` non-null iff
  /// the dataset has weights). Acknowledged (OK) batches are in the log
  /// and visible to readers. Unavailable = backpressure (Seal first);
  /// IOError from a poisoned log means reopen-and-recover.
  Status Append(const double* points, int64_t rows,
                const double* weights = nullptr);

  /// Compacts every FULL tail segment into sealed shards and publishes
  /// the combined manifest atomically; the partial remainder stays in
  /// the tail. No-op (OK) when no full segment exists. Readers are
  /// never blocked; concurrent Appends briefly queue on the writer
  /// lock.
  Status Seal();

  /// Forces the oplog's group commit (fsync) now.
  Status SyncLog();

  // DatasetSource:
  int64_t n() const override;
  int64_t dim() const override;
  bool has_weights() const override;
  bool has_labels() const override { return false; }
  double TotalWeight() const override;
  PinnedBlock Pin(int64_t begin, int64_t end) const override;
  /// Sticky: first error from the log, the sealed shards, or a failed
  /// seal. A non-OK live dataset still serves reads; writes fail.
  Status status() const override;

  int64_t sealed_rows() const;
  int64_t unsealed_rows() const;
  const std::string& manifest_path() const;
  IngestStats ingest_stats() const;

 private:
  struct Impl;
  explicit LiveDataset(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace kmeansll::data

#endif  // KMEANSLL_DATA_LIVE_DATASET_H_
