// Crash-safe continuous-ingest suite: the write-ahead oplog, the
// LiveDataset recovery/replay protocol, and the kill-point matrix
// (docs/ARCHITECTURE.md "Ingest & freshness").
//
// The contracts under test:
//   * The oplog acknowledges only CRC-whole records. Open() keeps the
//     longest valid prefix and TRUNCATES the torn tail — torn bytes are
//     never replayed as data — and a torn write poisons the log until
//     the owner reopens it.
//   * Recovery is a pure function of the surviving bytes: a run killed
//     at ANY ingest fault site ("oplog.append", "oplog.fsync",
//     "oplog.seal", "ingest.compact", the manifest rename) and then
//     reopened converges to row contents, shard files, and oplog bytes
//     BITWISE identical to an uninterrupted run's.
//   * Backpressure is a clean Unavailable, not an overflow.
//   * Readers are never blocked by Append/Seal and always see a
//     consistent prefix (this file is part of the TSan job).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/result.h"
#include "data/live_dataset.h"
#include "data/oplog.h"
#include "matrix/dataset_view.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using data::IngestStats;
using data::LiveDataset;
using data::LiveDatasetOptions;
using data::OpLog;
using data::OpLogOptions;
using data::OpLogStats;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRule;

#if !KMEANSLL_FAULT_INJECTION
#error "live_ingest_test requires KMEANSLL_FAULT_INJECTION=1 (the default)"
#endif

/// Every test disarms the process-wide injector on exit, pass or fail.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

std::string TempPath(const std::string& name) {
  return ScratchPath("kmll_live_" + name);
}

/// Removes every file a LiveDataset rooted at `base` can leave behind,
/// so reruns of one test binary start from a clean slate.
void CleanBase(const std::string& base) {
  std::remove((base + ".oplog").c_str());
  std::remove((base + ".manifest").c_str());
  for (int i = 0; i < 64; ++i) {
    std::remove((base + ".manifest.shard" + std::to_string(i)).c_str());
  }
}

/// Deterministic coordinate for global row r, column j — dim-agnostic,
/// so expected contents are a pure function of the row index.
double RowAt(int64_t r, int64_t j) {
  return 10.0 * rng::UniformAtIndex(0x11FE, static_cast<uint64_t>(
                                                r * 131 + j)) -
         5.0;
}

std::vector<double> MakeBatch(int64_t first_row, int64_t rows,
                              int64_t dim) {
  std::vector<double> out(static_cast<size_t>(rows * dim));
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < dim; ++j) {
      out[static_cast<size_t>(i * dim + j)] = RowAt(first_row + i, j);
    }
  }
  return out;
}

std::vector<double> ExpectedRows(int64_t n, int64_t dim) {
  return MakeBatch(0, n, dim);
}

/// Gathers every row of `ds` in global order via pinned blocks — the
/// reader-side view the bitwise assertions compare.
std::vector<double> GatherRows(const DatasetSource& ds) {
  std::vector<double> out(static_cast<size_t>(ds.n() * ds.dim()));
  if (ds.n() == 0) return out;
  ForEachBlock(ds, 0, ds.n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      const double* p = v.Point(i);
      std::copy(p, p + v.dim(),
                out.begin() + static_cast<size_t>(
                                  (v.first_row() + i) * v.dim()));
    }
  });
  return out;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------
// OpLog unit contracts.
// ---------------------------------------------------------------------

struct ReplayedRecord {
  int64_t first_row = 0;
  std::vector<double> points;
  std::vector<double> weights;
};

std::vector<ReplayedRecord> ReplayAll(const OpLog& log,
                                      int64_t min_first_row = 0) {
  std::vector<ReplayedRecord> out;
  Status st = log.Replay(
      min_first_row,
      [&](int64_t first_row, int64_t rows, const double* points,
          const double* weights) {
        ReplayedRecord rec;
        rec.first_row = first_row;
        rec.points.assign(points, points + rows * log.dim());
        if (weights != nullptr) {
          rec.weights.assign(weights, weights + rows);
        }
        out.push_back(std::move(rec));
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.message();
  return out;
}

TEST(OpLogTest, RoundTripReplayBitwise) {
  FaultGuard guard;
  const std::string path = TempPath("oplog_roundtrip");
  std::remove(path.c_str());
  OpLogOptions options;
  options.has_weights = true;

  Result<OpLog> created = OpLog::Create(path, /*dim=*/3, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  OpLog log = std::move(created).ValueOrDie();

  // Three records with distinct shapes: (first_row, rows) =
  // (0,2), (2,3), (5,4).
  struct Batch {
    int64_t first_row;
    int64_t rows;
  };
  const Batch batches[] = {{0, 2}, {2, 3}, {5, 4}};
  std::vector<std::vector<double>> points;
  std::vector<std::vector<double>> weights;
  for (const Batch& b : batches) {
    points.push_back(MakeBatch(b.first_row, b.rows, 3));
    std::vector<double> w(static_cast<size_t>(b.rows));
    for (int64_t i = 0; i < b.rows; ++i) w[i] = 0.5 + b.first_row + i;
    weights.push_back(std::move(w));
    ASSERT_TRUE(log.Append(b.first_row, b.rows, points.back().data(),
                           weights.back().data())
                    .ok());
  }
  ASSERT_TRUE(log.Sync().ok());

  OpLogStats stats = log.stats();
  EXPECT_EQ(stats.records_appended, 3);
  EXPECT_EQ(stats.rows_appended, 9);
  EXPECT_GE(stats.syncs, 1);
  EXPECT_GT(log.tail_bytes(), 0);

  std::vector<ReplayedRecord> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 3u);
  for (size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].first_row, batches[i].first_row);
    EXPECT_TRUE(replayed[i].points == points[i]) << "record " << i;
    EXPECT_TRUE(replayed[i].weights == weights[i]) << "record " << i;
  }

  // Record-level min_first_row filter: records starting before the
  // cutoff are skipped whole (LiveDataset does the row-wise split).
  std::vector<ReplayedRecord> tail = ReplayAll(log, /*min_first_row=*/2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].first_row, 2);
  EXPECT_EQ(tail[1].first_row, 5);
}

TEST(OpLogTest, TornTailTruncatedOnOpen) {
  FaultGuard guard;
  const std::string path = TempPath("oplog_torn_tail");
  std::remove(path.c_str());
  OpLogOptions options;  // no weights

  {
    Result<OpLog> created = OpLog::Create(path, /*dim=*/3, options);
    ASSERT_TRUE(created.ok());
    OpLog log = std::move(created).ValueOrDie();
    for (int64_t b = 0; b < 3; ++b) {
      std::vector<double> batch = MakeBatch(b * 2, 2, 3);
      ASSERT_TRUE(log.Append(b * 2, 2, batch.data(), nullptr).ok());
    }
    ASSERT_TRUE(log.Sync().ok());
  }  // closed

  // Simulate a crash mid-append: garbage bytes past the last record.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[11] = "torn\xff\xfe\xfd\xfc\xfb\xfa";
    ASSERT_EQ(std::fwrite(garbage, 1, 11, f), 11u);
    std::fclose(f);
  }

  {
    Result<OpLog> reopened = OpLog::Open(path, /*dim=*/3, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    OpLog log = std::move(reopened).ValueOrDie();
    OpLogStats stats = log.stats();
    EXPECT_EQ(stats.recovered_records, 3);
    EXPECT_EQ(stats.recovered_rows, 6);
    EXPECT_EQ(stats.torn_bytes, 11);
    EXPECT_EQ(ReplayAll(log).size(), 3u);
  }

  // The truncation is durable: a second open finds nothing torn.
  {
    Result<OpLog> again = OpLog::Open(path, /*dim=*/3, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.ValueUnsafe().stats().torn_bytes, 0);
  }

  // A corrupt byte INSIDE the last record invalidates its CRC: the
  // whole record is the torn tail (frame = 8 header + 16 body-fixed +
  // 2*3*8 points = 72 bytes), never partially replayed.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  {
    Result<OpLog> reopened = OpLog::Open(path, /*dim=*/3, options);
    ASSERT_TRUE(reopened.ok());
    OpLog log = std::move(reopened).ValueOrDie();
    OpLogStats stats = log.stats();
    EXPECT_EQ(stats.recovered_records, 2);
    EXPECT_EQ(stats.recovered_rows, 4);
    EXPECT_EQ(stats.torn_bytes, 72);
    std::vector<ReplayedRecord> replayed = ReplayAll(log);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_TRUE(replayed[1].points == MakeBatch(2, 2, 3));
  }
}

TEST(OpLogTest, CompactKeepsStraddlingRecord) {
  FaultGuard guard;
  const std::string path = TempPath("oplog_compact");
  std::remove(path.c_str());
  Result<OpLog> created = OpLog::Create(path, /*dim=*/3, OpLogOptions{});
  ASSERT_TRUE(created.ok());
  OpLog log = std::move(created).ValueOrDie();

  std::vector<double> a = MakeBatch(0, 4, 3);
  std::vector<double> b = MakeBatch(4, 4, 3);
  ASSERT_TRUE(log.Append(0, 4, a.data(), nullptr).ok());
  ASSERT_TRUE(log.Append(4, 4, b.data(), nullptr).ok());
  ASSERT_TRUE(log.Sync().ok());
  const int64_t both = log.tail_bytes();

  // Seal frontier at row 6: record A (rows 0-3) is fully sealed and
  // dropped; record B (rows 4-7) straddles and must survive WHOLE.
  ASSERT_TRUE(log.Compact(6).ok());
  EXPECT_LT(log.tail_bytes(), both);
  std::vector<ReplayedRecord> replayed = ReplayAll(log);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first_row, 4);
  EXPECT_TRUE(replayed[0].points == b);

  // Frontier at 8 covers everything: the log drains to its header.
  ASSERT_TRUE(log.Compact(8).ok());
  EXPECT_EQ(log.tail_bytes(), 0);
  EXPECT_EQ(ReplayAll(log).size(), 0u);

  // The log still accepts appends after GC.
  std::vector<double> c = MakeBatch(8, 2, 3);
  ASSERT_TRUE(log.Append(8, 2, c.data(), nullptr).ok());
  ASSERT_TRUE(log.Sync().ok());
  std::vector<ReplayedRecord> after = ReplayAll(log);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].first_row, 8);
}

TEST(OpLogTest, TornWritePoisonsUntilReopen) {
  FaultGuard guard;
  const std::string path = TempPath("oplog_poison");
  std::remove(path.c_str());
  Result<OpLog> created = OpLog::Create(path, /*dim=*/3, OpLogOptions{});
  ASSERT_TRUE(created.ok());
  OpLog log = std::move(created).ValueOrDie();

  std::vector<double> first = MakeBatch(0, 2, 3);
  ASSERT_TRUE(log.Append(0, 2, first.data(), nullptr).ok());
  ASSERT_TRUE(log.Sync().ok());

  // Call ordinals count from arming: this is armed-call #1.
  FaultInjector::Global().Arm(
      "oplog.append",
      FaultRule{.kind = FaultKind::kTornWrite, .nth_call = 1});
  std::vector<double> second = MakeBatch(2, 2, 3);
  Status torn = log.Append(2, 2, second.data(), nullptr);
  ASSERT_FALSE(torn.ok());

  // Poisoned: the sticky error repeats on every write-side call.
  EXPECT_FALSE(log.status().ok());
  EXPECT_EQ(log.Append(2, 2, second.data(), nullptr).message(),
            torn.message());
  EXPECT_EQ(log.Sync().message(), torn.message());
  FaultInjector::Global().Reset();

  // Reopen recovers exactly the whole records; the torn prefix of the
  // second record is truncated, never replayed.
  {
    OpLog dead = std::move(log);
  }
  Result<OpLog> reopened = OpLog::Open(path, /*dim=*/3, OpLogOptions{});
  ASSERT_TRUE(reopened.ok());
  OpLog recovered = std::move(reopened).ValueOrDie();
  OpLogStats stats = recovered.stats();
  EXPECT_EQ(stats.recovered_records, 1);
  EXPECT_GT(stats.torn_bytes, 0);
  std::vector<ReplayedRecord> replayed = ReplayAll(recovered);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(replayed[0].points == first);
}

// ---------------------------------------------------------------------
// LiveDataset: append/seal/recover round trips.
// ---------------------------------------------------------------------

constexpr int64_t kDim = 3;

LiveDatasetOptions SmallLiveOptions() {
  LiveDatasetOptions options;
  options.rows_per_shard = 8;
  options.oplog.group_commit_records = 2;
  return options;
}

TEST(LiveDatasetTest, AppendSealReopenBitwise) {
  FaultGuard guard;
  const std::string base = TempPath("live_roundtrip");
  CleanBase(base);
  LiveDatasetOptions options = SmallLiveOptions();

  {
    Result<LiveDataset> opened =
        LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    LiveDataset live = std::move(opened).ValueOrDie();
    EXPECT_EQ(live.n(), 0);

    for (int64_t b = 0; b < 5; ++b) {
      std::vector<double> batch = MakeBatch(b * 5, 5, kDim);
      ASSERT_TRUE(live.Append(batch.data(), 5).ok());
    }
    EXPECT_EQ(live.n(), 25);
    EXPECT_EQ(live.sealed_rows(), 0);
    EXPECT_EQ(live.unsealed_rows(), 25);
    EXPECT_TRUE(GatherRows(live) == ExpectedRows(25, kDim));

    // Seal cuts only FULL shards: 25 rows → 3 shards of 8, 1 row stays.
    ASSERT_TRUE(live.Seal().ok());
    EXPECT_EQ(live.sealed_rows(), 24);
    EXPECT_EQ(live.unsealed_rows(), 1);
    EXPECT_EQ(live.n(), 25);
    EXPECT_TRUE(GatherRows(live) == ExpectedRows(25, kDim));

    IngestStats stats = live.ingest_stats();
    EXPECT_EQ(stats.appended_batches, 5);
    EXPECT_EQ(stats.appended_rows, 25);
    EXPECT_EQ(stats.seals, 1);
    EXPECT_EQ(stats.sealed_rows, 24);
  }  // closed

  // Reopen: the sealed shards come from the manifest, the 1-row tail
  // replays from the oplog past the sealed frontier.
  Result<LiveDataset> reopened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  LiveDataset live = std::move(reopened).ValueOrDie();
  EXPECT_EQ(live.n(), 25);
  EXPECT_EQ(live.sealed_rows(), 24);
  EXPECT_EQ(live.unsealed_rows(), 1);
  EXPECT_EQ(live.ingest_stats().recovered_rows, 1);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(25, kDim));

  // The dataset keeps ingesting where it left off.
  std::vector<double> more = MakeBatch(25, 5, kDim);
  ASSERT_TRUE(live.Append(more.data(), 5).ok());
  EXPECT_EQ(live.n(), 30);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(30, kDim));
}

TEST(LiveDatasetTest, RecoversEverythingWithoutSeal) {
  FaultGuard guard;
  const std::string base = TempPath("live_noseal");
  CleanBase(base);
  LiveDatasetOptions options = SmallLiveOptions();

  {
    Result<LiveDataset> opened =
        LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
    ASSERT_TRUE(opened.ok());
    LiveDataset live = std::move(opened).ValueOrDie();
    for (int64_t b = 0; b < 4; ++b) {
      std::vector<double> batch = MakeBatch(b * 5, 5, kDim);
      ASSERT_TRUE(live.Append(batch.data(), 5).ok());
    }
    ASSERT_TRUE(live.SyncLog().ok());
  }  // crash before any seal: no manifest exists

  EXPECT_FALSE(FileExists(base + ".manifest"));
  Result<LiveDataset> reopened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  ASSERT_TRUE(reopened.ok());
  LiveDataset live = std::move(reopened).ValueOrDie();
  EXPECT_EQ(live.n(), 20);
  EXPECT_EQ(live.sealed_rows(), 0);
  EXPECT_EQ(live.ingest_stats().recovered_rows, 20);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(20, kDim));
}

TEST(LiveDatasetTest, WeightedRowsRoundTrip) {
  FaultGuard guard;
  const std::string base = TempPath("live_weighted");
  CleanBase(base);
  LiveDatasetOptions options = SmallLiveOptions();

  std::vector<double> weights(20);
  for (int64_t i = 0; i < 20; ++i) {
    weights[static_cast<size_t>(i)] = 1.0 + 0.25 * static_cast<double>(i);
  }
  {
    Result<LiveDataset> opened =
        LiveDataset::Open(base, kDim, /*has_weights=*/true, options);
    ASSERT_TRUE(opened.ok());
    LiveDataset live = std::move(opened).ValueOrDie();
    for (int64_t b = 0; b < 4; ++b) {
      std::vector<double> batch = MakeBatch(b * 5, 5, kDim);
      ASSERT_TRUE(
          live.Append(batch.data(), 5, weights.data() + b * 5).ok());
    }
    ASSERT_TRUE(live.Seal().ok());  // 16 sealed + 4 tail rows
    ASSERT_TRUE(live.SyncLog().ok());
  }

  Result<LiveDataset> reopened =
      LiveDataset::Open(base, kDim, /*has_weights=*/true, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  LiveDataset live = std::move(reopened).ValueOrDie();
  ASSERT_TRUE(live.has_weights());
  ASSERT_EQ(live.n(), 20);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(20, kDim));
  std::vector<double> got_weights(20);
  ForEachBlock(live, 0, live.n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      got_weights[static_cast<size_t>(v.first_row() + i)] = v.Weight(i);
    }
  });
  EXPECT_TRUE(got_weights == weights);
}

TEST(LiveDatasetTest, BackpressureRejectsWhenTailFull) {
  FaultGuard guard;
  const std::string base = TempPath("live_backpressure");
  CleanBase(base);
  LiveDatasetOptions options;
  options.rows_per_shard = 4;
  options.max_unsealed_rows = 8;

  Result<LiveDataset> opened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  ASSERT_TRUE(opened.ok());
  LiveDataset live = std::move(opened).ValueOrDie();

  std::vector<double> batch = MakeBatch(0, 8, kDim);
  ASSERT_TRUE(live.Append(batch.data(), 8).ok());
  std::vector<double> one = MakeBatch(8, 1, kDim);
  Status rejected = live.Append(one.data(), 1);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.message().find("unsealed tail is full"),
            std::string::npos);
  EXPECT_EQ(live.n(), 8);
  EXPECT_EQ(live.ingest_stats().backpressure_rejections, 1);
  // Backpressure is not an error state: the dataset stays healthy.
  EXPECT_TRUE(live.status().ok());

  // Seal drains the tail (8 rows → 2 full shards) and appends resume.
  ASSERT_TRUE(live.Seal().ok());
  EXPECT_EQ(live.unsealed_rows(), 0);
  ASSERT_TRUE(live.Append(one.data(), 1).ok());
  EXPECT_EQ(live.n(), 9);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(9, kDim));
}

TEST(LiveDatasetTest, TornAppendIsInvisibleAndRecoverable) {
  FaultGuard guard;
  const std::string base = TempPath("live_torn_append");
  CleanBase(base);
  LiveDatasetOptions options = SmallLiveOptions();

  {
    Result<LiveDataset> opened =
        LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
    ASSERT_TRUE(opened.ok());
    LiveDataset live = std::move(opened).ValueOrDie();
    std::vector<double> first = MakeBatch(0, 5, kDim);
    ASSERT_TRUE(live.Append(first.data(), 5).ok());

    FaultInjector::Global().Arm(
        "oplog.append",
        FaultRule{.kind = FaultKind::kTornWrite, .nth_call = 1});
    std::vector<double> second = MakeBatch(5, 5, kDim);
    ASSERT_FALSE(live.Append(second.data(), 5).ok());
    FaultInjector::Global().Reset();

    // Log-before-apply: the torn batch never became visible, and the
    // dataset is now sticky-failed for writes (reads still serve).
    EXPECT_EQ(live.n(), 5);
    EXPECT_FALSE(live.status().ok());
    EXPECT_FALSE(live.Append(second.data(), 5).ok());
    EXPECT_TRUE(GatherRows(live) == ExpectedRows(5, kDim));
  }

  Result<LiveDataset> reopened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  ASSERT_TRUE(reopened.ok());
  LiveDataset live = std::move(reopened).ValueOrDie();
  EXPECT_TRUE(live.status().ok());
  EXPECT_EQ(live.n(), 5);
  EXPECT_GT(live.ingest_stats().torn_bytes, 0);
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(5, kDim));

  // The truncated log accepts the batch again.
  std::vector<double> second = MakeBatch(5, 5, kDim);
  ASSERT_TRUE(live.Append(second.data(), 5).ok());
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(10, kDim));
}

// ---------------------------------------------------------------------
// Kill-point matrix: a run killed at any fault site converges bitwise.
// ---------------------------------------------------------------------

constexpr int64_t kBatchRows = 5;
constexpr int kBatches = 12;  // 60 rows → 7 shards of 8 + 4 tail rows

/// The deterministic producer: appends batches [*next, kBatches),
/// sealing after every 3rd batch, then one final Seal so every run —
/// crashed or not — ends at the same seal frontier. Returns the first
/// error (the "crash").
Status DriveFrom(LiveDataset* live, int* next) {
  while (*next < kBatches) {
    const int i = *next;
    std::vector<double> batch =
        MakeBatch(static_cast<int64_t>(i) * kBatchRows, kBatchRows, kDim);
    Status st = live->Append(batch.data(), kBatchRows);
    if (st.IsUnavailable()) {
      // Backpressure (a crash can skip a scheduled seal, letting the
      // tail fill): drain and re-send — the documented contract.
      KMEANSLL_RETURN_NOT_OK(live->Seal());
      st = live->Append(batch.data(), kBatchRows);
    }
    KMEANSLL_RETURN_NOT_OK(st);
    *next = i + 1;
    if (i % 3 == 2) KMEANSLL_RETURN_NOT_OK(live->Seal());
  }
  return live->Seal();
}

struct RunResult {
  std::vector<double> rows;
  int64_t sealed = 0;
  int64_t unsealed = 0;
  std::vector<std::string> shard_bytes;
  std::string oplog_bytes;
};

/// Runs the producer to completion. Any mid-run error simulates a
/// crash: drop the LiveDataset, disarm the injector, reopen (recovery),
/// and resume — the next batch index is derived from the RECOVERED row
/// count, exactly as a restarted ingest process would derive it.
Result<RunResult> RunIngest(const std::string& base, int* crashes) {
  LiveDatasetOptions options = SmallLiveOptions();
  Result<LiveDataset> opened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  KMEANSLL_RETURN_NOT_OK(opened.status());
  std::optional<LiveDataset> live(std::move(opened).ValueOrDie());

  int next = 0;
  for (int attempt = 0;; ++attempt) {
    Status st = DriveFrom(&*live, &next);
    if (st.ok()) break;
    if (attempt >= 8) return st;  // not converging: surface the error
    if (crashes != nullptr) ++*crashes;
    FaultInjector::Global().Reset();
    live.reset();  // crash: close files, drop all in-memory state
    Result<LiveDataset> reopened =
        LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
    KMEANSLL_RETURN_NOT_OK(reopened.status());
    live.emplace(std::move(reopened).ValueOrDie());
    next = static_cast<int>(live->n() / kBatchRows);
  }

  RunResult out;
  out.rows = GatherRows(*live);
  out.sealed = live->sealed_rows();
  out.unsealed = live->unsealed_rows();
  live.reset();  // flush + close before reading raw file bytes
  for (int s = 0; FileExists(base + ".manifest.shard" +
                             std::to_string(s));
       ++s) {
    out.shard_bytes.push_back(
        ReadFileBytes(base + ".manifest.shard" + std::to_string(s)));
  }
  out.oplog_bytes = ReadFileBytes(base + ".oplog");
  return out;
}

TEST(LiveIngestKillMatrixTest, RecoveryConvergesBitwise) {
  FaultGuard guard;
  const std::string baseline_base = TempPath("kill_baseline");
  CleanBase(baseline_base);
  Result<RunResult> baseline_run = RunIngest(baseline_base, nullptr);
  ASSERT_TRUE(baseline_run.ok()) << baseline_run.status().message();
  RunResult baseline = std::move(baseline_run).ValueOrDie();
  ASSERT_EQ(baseline.sealed, 56);
  ASSERT_EQ(baseline.unsealed, 4);
  ASSERT_EQ(baseline.shard_bytes.size(), 7u);
  ASSERT_TRUE(baseline.rows == ExpectedRows(60, kDim));

  struct KillCase {
    const char* name;
    const char* site;
    FaultKind kind;
    uint64_t nth_call;
  };
  const KillCase cases[] = {
      // Append dies before any byte lands: the batch is simply re-sent.
      {"append_writefail", "oplog.append", FaultKind::kWriteFail, 3},
      // Append dies mid-record: recovery truncates the torn tail.
      {"append_torn", "oplog.append", FaultKind::kTornWrite, 4},
      // fsync fails: durability unknown, the log poisons itself.
      {"fsync_fail", "oplog.fsync", FaultKind::kWriteFail, 2},
      // Killed entering a seal: nothing was cut, the seal re-runs.
      {"seal_entry", "oplog.seal", FaultKind::kWriteFail, 2},
      // Killed between shard writes: orphan shard files get rewritten
      // with identical bytes, the manifest never saw them.
      {"compact_mid_shard", "ingest.compact", FaultKind::kWriteFail, 2},
      // Killed at the seal's commit point (the manifest rename).
      {"manifest_rename", "manifest.write.rename", FaultKind::kWriteFail,
       1},
  };

  for (const KillCase& c : cases) {
    SCOPED_TRACE(c.name);
    FaultInjector::Global().Reset();
    const std::string base = TempPath(std::string("kill_") + c.name);
    CleanBase(base);
    FaultInjector::Global().Arm(
        c.site, FaultRule{.kind = c.kind, .nth_call = c.nth_call,
                          .max_triggers = 1});
    int crashes = 0;
    Result<RunResult> run = RunIngest(base, &crashes);
    ASSERT_TRUE(run.ok()) << run.status().message();
    // The fault fired: either the producer crashed on it, or an inner
    // retry layer absorbed it (counters survive because RunIngest only
    // resets the injector on the crash path).
    EXPECT_TRUE(crashes > 0 ||
                FaultInjector::Global().triggered_count() > 0);

    RunResult got = std::move(run).ValueOrDie();
    EXPECT_EQ(got.sealed, baseline.sealed);
    EXPECT_EQ(got.unsealed, baseline.unsealed);
    EXPECT_TRUE(got.rows == baseline.rows)
        << "recovered row contents diverged from the uninterrupted run";
    ASSERT_EQ(got.shard_bytes.size(), baseline.shard_bytes.size());
    for (size_t s = 0; s < got.shard_bytes.size(); ++s) {
      EXPECT_TRUE(got.shard_bytes[s] == baseline.shard_bytes[s])
          << "shard " << s << " bytes diverged";
    }
    EXPECT_TRUE(got.oplog_bytes == baseline.oplog_bytes)
        << "compacted oplog bytes diverged";
  }
}

TEST(LiveIngestKillMatrixTest, SeededRandomKillsConverge) {
  FaultGuard guard;
  const std::string baseline_base = TempPath("stress_baseline");
  CleanBase(baseline_base);
  Result<RunResult> baseline_run = RunIngest(baseline_base, nullptr);
  ASSERT_TRUE(baseline_run.ok());
  RunResult baseline = std::move(baseline_run).ValueOrDie();

  struct Site {
    const char* site;
    FaultKind kind;
  };
  const Site sites[] = {
      {"oplog.append", FaultKind::kWriteFail},
      {"oplog.append", FaultKind::kTornWrite},
      {"oplog.fsync", FaultKind::kWriteFail},
      {"oplog.seal", FaultKind::kWriteFail},
      {"ingest.compact", FaultKind::kWriteFail},
  };
  std::mt19937_64 rng(0xD15EA5E);  // fixed seed: the run is replayable
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    FaultInjector::Global().Reset();
    const std::string base =
        TempPath("stress_round" + std::to_string(round));
    CleanBase(base);
    const Site& site = sites[rng() % (sizeof(sites) / sizeof(sites[0]))];
    const uint64_t nth = 1 + rng() % 5;
    FaultInjector::Global().Arm(
        site.site,
        FaultRule{.kind = site.kind, .nth_call = nth, .max_triggers = 1});
    int crashes = 0;
    Result<RunResult> run = RunIngest(base, &crashes);
    ASSERT_TRUE(run.ok()) << site.site << " nth=" << nth << ": "
                          << run.status().message();
    RunResult got = std::move(run).ValueOrDie();
    EXPECT_TRUE(got.rows == baseline.rows)
        << site.site << " nth=" << nth;
    EXPECT_EQ(got.sealed, baseline.sealed);
    ASSERT_EQ(got.shard_bytes.size(), baseline.shard_bytes.size());
    for (size_t s = 0; s < got.shard_bytes.size(); ++s) {
      EXPECT_TRUE(got.shard_bytes[s] == baseline.shard_bytes[s]);
    }
  }
}

// ---------------------------------------------------------------------
// Readers are never blocked: concurrent scans during append/seal see a
// consistent prefix. (This test carries the TSan coverage for the
// RCU-style tail/seal swap.)
// ---------------------------------------------------------------------

TEST(LiveIngestConcurrencyTest, ReadersSeeConsistentPrefixDuringIngest) {
  FaultGuard guard;
  const std::string base = TempPath("live_concurrent");
  CleanBase(base);
  LiveDatasetOptions options;
  options.rows_per_shard = 8;
  options.oplog.group_commit_records = 4;
  options.max_unsealed_rows = 1 << 20;

  Result<LiveDataset> opened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  ASSERT_TRUE(opened.ok());
  LiveDataset live = std::move(opened).ValueOrDie();

  constexpr int kWriterBatches = 30;
  constexpr int64_t kRows = 4;
  std::atomic<bool> done{false};
  std::atomic<int64_t> bad_rows{0};

  std::thread writer([&] {
    for (int b = 0; b < kWriterBatches; ++b) {
      std::vector<double> batch =
          MakeBatch(static_cast<int64_t>(b) * kRows, kRows, kDim);
      Status st = live.Append(batch.data(), kRows);
      if (!st.ok()) break;
      if ((b + 1) % 5 == 0) {
        if (!live.Seal().ok()) break;
      }
    }
    (void)live.Seal();
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const int64_t total = live.n();  // snapshot, then scan [0, total)
        if (total == 0) continue;
        ForEachBlock(live, 0, total, [&](const DatasetView& v) {
          for (int64_t i = 0; i < v.rows(); ++i) {
            const int64_t g = v.first_row() + i;
            const double* p = v.Point(i);
            for (int64_t j = 0; j < kDim; ++j) {
              if (p[j] != RowAt(g, j)) {
                bad_rows.fetch_add(1, std::memory_order_relaxed);
                return;
              }
            }
          }
        });
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_rows.load(), 0)
      << "a concurrent scan observed a row that was never acknowledged";
  EXPECT_EQ(live.n(), kWriterBatches * kRows);
  EXPECT_TRUE(live.status().ok());
  EXPECT_TRUE(GatherRows(live) == ExpectedRows(kWriterBatches * kRows, kDim));
}

}  // namespace
}  // namespace kmeansll
