// Freshness-loop suite: drift-triggered refine→republish, the KMLLFRSH
// checkpoint/Recover protocol, the freshness SLO, and the fault sites
// "freshness.refine" / "freshness.checkpoint"
// (docs/ARCHITECTURE.md "Ingest & freshness").
//
// The contracts under test:
//   * A cycle below min_new_rows is a skip, not a failure; a cycle with
//     new rows republishes (version advances, readers never blocked).
//   * Small drift repairs with mini-batch SGD; past drift_reseed_ratio
//     the loop re-seeds with the full k-means|| pipeline.
//   * checkpoint-before-publish + Recover(): a loop recovered from its
//     checkpoint serves the checkpointed centers bitwise and its
//     CONTINUED cycles (cost history, served centers) are bitwise the
//     uninterrupted run's — cycle seeds derive from (seed, cycle),
//     never wall clock.
//   * Corrupt or mismatched-fingerprint checkpoints are ignored, never
//     trusted.
//   * The SLO watchdog flips MarkStale, visible through ModelServer
//     stats and the registry's TenantStats; a publish clears it.
//   * A cycle reads the rows [0, n) it began with, however far the
//     source grows meanwhile.
//   * The drift measurement is bitwise a full ComputeCost pass of the
//     served centers, yet a minibatch cycle whose served model is the
//     loop's own last minibatch publish scores only the new rows.
//   * The loop's pool size changes no bit of what it publishes or
//     checkpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/cost.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/result.h"
#include "data/live_dataset.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/model_server.h"
#include "serving/server_registry.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using data::LiveDataset;
using data::LiveDatasetOptions;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRule;
using serving::CenterIndex;
using serving::ModelServer;
using serving::RefineLoop;
using serving::RefineLoopOptions;
using serving::RefineStats;
using serving::ServerRegistry;

struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

std::string TempPath(const std::string& name) {
  return ScratchPath("kmll_fresh_" + name);
}

void CleanBase(const std::string& base) {
  std::remove((base + ".oplog").c_str());
  std::remove((base + ".manifest").c_str());
  for (int i = 0; i < 64; ++i) {
    std::remove((base + ".manifest.shard" + std::to_string(i)).c_str());
  }
}

constexpr int64_t kDim = 2;

/// Deterministic two-cluster stream: global row r draws near (0,0) for
/// even r and near (8,8) for odd r, with hashed-uniform jitter — the
/// same function of the row index in every run and every dataset copy.
double ClusterCoord(int64_t r, int64_t j) {
  const double base = (r % 2 == 0) ? 0.0 : 8.0;
  return base +
         rng::UniformAtIndex(0xF5E5, static_cast<uint64_t>(r * 17 + j));
}

LiveDataset OpenLive(const std::string& base) {
  CleanBase(base);
  LiveDatasetOptions options;
  options.rows_per_shard = 16;
  Result<LiveDataset> opened =
      LiveDataset::Open(base, kDim, /*has_weights=*/false, options);
  KMEANSLL_CHECK(opened.ok());
  return std::move(opened).ValueOrDie();
}

void AppendRows(LiveDataset* live, int64_t first_row, int64_t rows) {
  std::vector<double> batch(static_cast<size_t>(rows * kDim));
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < kDim; ++j) {
      batch[static_cast<size_t>(i * kDim + j)] =
          ClusterCoord(first_row + i, j);
    }
  }
  ASSERT_TRUE(live->Append(batch.data(), rows).ok());
}

/// Deliberately offset starting centers so every refine has work to do.
Matrix InitialCenters() {
  Matrix m(2, kDim);
  m.Row(0)[0] = 1.5;
  m.Row(0)[1] = 1.5;
  m.Row(1)[0] = 6.0;
  m.Row(1)[1] = 6.0;
  return m;
}

RefineLoopOptions SmallLoopOptions() {
  RefineLoopOptions options;
  options.seed = 0xF00D;
  options.minibatch.batch_size = 8;
  options.minibatch.iterations = 5;
  options.reseed.k = 2;
  options.reseed.lloyd.max_iterations = 3;
  options.reseed.kmeansll.rounds = 2;
  options.reseed.kmeansll.oversampling = 4.0;
  return options;
}

Matrix ServedCenters(const ModelServer& server) {
  return server.Acquire()->centers();
}

void ExpectBitwiseEqual(const Matrix& got, const Matrix& expected,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), expected.rows()) << what;
  ASSERT_EQ(got.cols(), expected.cols()) << what;
  const size_t len = static_cast<size_t>(got.rows() * got.cols());
  for (size_t i = 0; i < len; ++i) {
    EXPECT_EQ(got.data()[i], expected.data()[i]) << what << " [" << i << "]";
  }
}

TEST(RefineLoopTest, SkipsBelowMinNewRows) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("skip"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  RefineLoopOptions options = SmallLoopOptions();
  options.min_new_rows = 10;
  RefineLoop loop(&server, &live, options);

  // Empty dataset: nothing to refine.
  ASSERT_TRUE(loop.RunOnce().ok());
  // Below the threshold: still a skip.
  AppendRows(&live, 0, 5);
  ASSERT_TRUE(loop.RunOnce().ok());

  RefineStats stats = loop.stats();
  EXPECT_EQ(stats.cycles, 0);
  EXPECT_EQ(stats.skipped, 2);
  EXPECT_EQ(stats.watermark, 0);
  EXPECT_EQ(server.published_version(),
            CenterIndex::Build(InitialCenters())->version());
}

TEST(RefineLoopTest, MiniBatchRefinePublishes) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("minibatch"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  const uint64_t v0 = server.published_version();
  RefineLoop loop(&server, &live, SmallLoopOptions());

  AppendRows(&live, 0, 24);
  ASSERT_TRUE(loop.RunOnce().ok());

  RefineStats stats = loop.stats();
  EXPECT_EQ(stats.cycles, 1);
  EXPECT_EQ(stats.minibatch_refines, 1);
  EXPECT_EQ(stats.reseeds, 0);
  EXPECT_EQ(stats.watermark, 24);
  EXPECT_GT(stats.last_cost_per_point, 0.0);
  EXPECT_GT(stats.ewma_cost_per_point, 0.0);
  EXPECT_EQ(loop.cost_history().size(), 1u);
  EXPECT_EQ(server.published_version(), v0 + 1);

  // No new rows: the next cycle is a skip, nothing republishes.
  ASSERT_TRUE(loop.RunOnce().ok());
  EXPECT_EQ(loop.stats().skipped, 1);
  EXPECT_EQ(server.published_version(), v0 + 1);
}

TEST(RefineLoopTest, DriftTriggersReseed) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("reseed"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  RefineLoopOptions options = SmallLoopOptions();
  // Any positive served cost-per-point counts as drift once the first
  // cycle establishes the EWMA baseline.
  options.drift_reseed_ratio = 0.0;
  RefineLoop loop(&server, &live, options);

  AppendRows(&live, 0, 24);
  ASSERT_TRUE(loop.RunOnce().ok());  // no baseline yet: minibatch
  AppendRows(&live, 24, 24);
  ASSERT_TRUE(loop.RunOnce().ok());  // past the ratio: full re-seed

  RefineStats stats = loop.stats();
  EXPECT_EQ(stats.cycles, 2);
  EXPECT_EQ(stats.minibatch_refines, 1);
  EXPECT_EQ(stats.reseeds, 1);
  EXPECT_EQ(stats.watermark, 48);
  EXPECT_EQ(loop.cost_history().size(), 2u);
}

TEST(RefineLoopTest, RecoveredLoopContinuesBitwise) {
  FaultGuard guard;
  // Two identical ingest streams in separate directories; U runs
  // uninterrupted, C crashes after cycle 2 and recovers.
  LiveDataset live_u = OpenLive(TempPath("resume_u"));
  LiveDataset live_c = OpenLive(TempPath("resume_c"));
  const std::string ckpt_u = TempPath("resume_u.frsh");
  const std::string ckpt_c = TempPath("resume_c.frsh");
  std::remove(ckpt_u.c_str());
  std::remove(ckpt_c.c_str());

  RefineLoopOptions options_u = SmallLoopOptions();
  options_u.checkpoint_path = ckpt_u;
  RefineLoopOptions options_c = options_u;
  options_c.checkpoint_path = ckpt_c;

  ModelServer server_u(CenterIndex::Build(InitialCenters()));
  RefineLoop loop_u(&server_u, &live_u, options_u);

  // Uninterrupted: three cycles over a growing stream.
  AppendRows(&live_u, 0, 24);
  ASSERT_TRUE(loop_u.RunOnce().ok());
  AppendRows(&live_u, 24, 16);
  ASSERT_TRUE(loop_u.RunOnce().ok());
  Matrix centers_after_2 = ServedCenters(server_u);
  AppendRows(&live_u, 40, 16);
  ASSERT_TRUE(loop_u.RunOnce().ok());

  // Crashed: cycles 1-2 on the identical stream, then the process dies
  // (loop and server destroyed; only the checkpoint file survives).
  {
    ModelServer server_c(CenterIndex::Build(InitialCenters()));
    RefineLoop loop_c(&server_c, &live_c, options_c);
    AppendRows(&live_c, 0, 24);
    ASSERT_TRUE(loop_c.RunOnce().ok());
    AppendRows(&live_c, 24, 16);
    ASSERT_TRUE(loop_c.RunOnce().ok());
  }
  ASSERT_TRUE(FileExists(ckpt_c));

  // Recovery: a fresh server starts from the STALE initial snapshot;
  // Recover() republishes the checkpointed centers and restores the
  // loop state.
  ModelServer server_c(CenterIndex::Build(InitialCenters()));
  RefineLoop loop_c(&server_c, &live_c, options_c);
  ASSERT_TRUE(loop_c.Recover().ok());
  EXPECT_EQ(loop_c.stats().recoveries, 1);
  EXPECT_EQ(loop_c.stats().watermark, 40);
  ExpectBitwiseEqual(ServedCenters(server_c), centers_after_2,
                     "recovered served centers");

  // The recovered loop's next cycle is bitwise the uninterrupted run's:
  // same data, same restored state, same (seed, cycle)-derived RNG.
  AppendRows(&live_c, 40, 16);
  ASSERT_TRUE(loop_c.RunOnce().ok());
  ExpectBitwiseEqual(ServedCenters(server_c), ServedCenters(server_u),
                     "post-recovery cycle centers");
  std::vector<double> history_u = loop_u.cost_history();
  std::vector<double> history_c = loop_c.cost_history();
  ASSERT_EQ(history_c.size(), history_u.size());
  for (size_t i = 0; i < history_u.size(); ++i) {
    EXPECT_EQ(history_c[i], history_u[i]) << "cost history [" << i << "]";
  }
}

TEST(RefineLoopTest, CorruptOrForeignCheckpointIgnored) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("badckpt"));
  const std::string ckpt = TempPath("badckpt.frsh");
  std::remove(ckpt.c_str());
  RefineLoopOptions options = SmallLoopOptions();
  options.checkpoint_path = ckpt;

  {
    ModelServer server(CenterIndex::Build(InitialCenters()));
    RefineLoop loop(&server, &live, options);
    AppendRows(&live, 0, 24);
    ASSERT_TRUE(loop.RunOnce().ok());
  }
  ASSERT_TRUE(FileExists(ckpt));

  // Corrupt one byte: the CRC fails, Recover() starts fresh (OK, no
  // recovery counted, nothing republished).
  {
    std::FILE* f = std::fopen(ckpt.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  {
    ModelServer server(CenterIndex::Build(InitialCenters()));
    const uint64_t v0 = server.published_version();
    RefineLoop loop(&server, &live, options);
    ASSERT_TRUE(loop.Recover().ok());
    EXPECT_EQ(loop.stats().recoveries, 0);
    EXPECT_EQ(loop.stats().watermark, 0);
    EXPECT_EQ(server.published_version(), v0);
  }

  // Rewrite a valid checkpoint, then try to recover it under a
  // DIFFERENT root seed: the fingerprint mismatches — another job's
  // checkpoint must never seed this loop.
  {
    ModelServer server(CenterIndex::Build(InitialCenters()));
    RefineLoop loop(&server, &live, options);
    AppendRows(&live, 24, 8);
    ASSERT_TRUE(loop.RunOnce().ok());
  }
  {
    RefineLoopOptions foreign = options;
    foreign.seed = 0xBEEF;
    ModelServer server(CenterIndex::Build(InitialCenters()));
    RefineLoop loop(&server, &live, foreign);
    ASSERT_TRUE(loop.Recover().ok());
    EXPECT_EQ(loop.stats().recoveries, 0);
  }
}

TEST(RefineLoopTest, CheckpointWithOverflowingShapeIgnored) {
  // A crafted checkpoint with a valid CRC and this loop's fingerprint
  // declares k = 2^62 centers of d = 1 and no payload: (k*d)*8 wraps to
  // 0 bytes in int64, so an unchecked size rule would accept it and
  // allocate k rows. Recover() must ignore it like any bad checkpoint.
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("overflow"));
  const std::string ckpt = TempPath("overflow.frsh");
  RefineLoopOptions options = SmallLoopOptions();
  options.checkpoint_path = ckpt;
  {
    std::string buf("KMLLFRSH", 8);
    auto put = [&buf](const auto& value) {
      buf.append(reinterpret_cast<const char*>(&value), sizeof(value));
    };
    put(int32_t{1});
    put(rng::HashCombine(options.seed, static_cast<uint64_t>(kDim)));
    put(int64_t{1});           // cycle
    put(int64_t{24});          // watermark
    put(1.0);                  // ewma
    put(int64_t{1} << 62);     // k
    put(int64_t{1});           // d
    put(int64_t{0});           // history_len
    // Bitwise CRC-32 over every preceding byte.
    uint32_t crc = 0xFFFFFFFFu;
    for (char byte : buf) {
      crc ^= static_cast<unsigned char>(byte);
      for (int b = 0; b < 8; ++b) {
        crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    put(crc ^ 0xFFFFFFFFu);
    std::FILE* f = std::fopen(ckpt.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
  }
  ModelServer server(CenterIndex::Build(InitialCenters()));
  const uint64_t v0 = server.published_version();
  RefineLoop loop(&server, &live, options);
  ASSERT_TRUE(loop.Recover().ok());
  EXPECT_EQ(loop.stats().recoveries, 0);
  EXPECT_EQ(server.published_version(), v0);
  std::remove(ckpt.c_str());
}

TEST(RefineLoopTest, RefineFaultCountsFailureAndRecovers) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the freshness.refine fault site to fail a cycle";
#endif
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("refine_fault"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  const uint64_t v0 = server.published_version();
  RefineLoop loop(&server, &live, SmallLoopOptions());

  AppendRows(&live, 0, 24);
  FaultInjector::Global().Arm(
      "freshness.refine",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(loop.RunOnce().ok());
  FaultInjector::Global().Reset();

  RefineStats stats = loop.stats();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.cycles, 0);
  EXPECT_EQ(stats.watermark, 0);           // nothing advanced
  EXPECT_EQ(server.published_version(), v0);  // nothing published

  // The loop survives the failed cycle and refines on the next call.
  ASSERT_TRUE(loop.RunOnce().ok());
  EXPECT_EQ(loop.stats().cycles, 1);
  EXPECT_EQ(server.published_version(), v0 + 1);
}

TEST(RefineLoopTest, TransientCheckpointWriteIsRetriedAndCounted) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the freshness.checkpoint fault site";
#endif
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("ckpt_retry"));
  const std::string ckpt = TempPath("ckpt_retry.frsh");
  std::remove(ckpt.c_str());
  RefineLoopOptions options = SmallLoopOptions();
  options.checkpoint_path = ckpt;
  ModelServer server(CenterIndex::Build(InitialCenters()));
  RefineLoop loop(&server, &live, options);

  AppendRows(&live, 0, 24);
  FaultInjector::Global().Arm(
      "freshness.checkpoint",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1,
                .max_triggers = 1});
  ASSERT_TRUE(loop.RunOnce().ok());  // the retry absorbs the fault

  RefineStats stats = loop.stats();
  EXPECT_EQ(stats.cycles, 1);
  EXPECT_GE(stats.checkpoint_retries, 1);
  EXPECT_TRUE(FileExists(ckpt));
}

TEST(RefineLoopTest, SloWatchdogMarksStaleAndPublishClears) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("slo"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  RefineLoopOptions options = SmallLoopOptions();
  options.freshness_slo_ms = 1;
  options.tick_ms = 2;
  options.min_new_rows = 1 << 30;  // cycles always skip: no republish
  RefineLoop loop(&server, &live, options);

  loop.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  loop.Stop();

  EXPECT_GE(loop.stats().slo_misses, 1);
  ModelServer::Stats server_stats = server.stats();
  EXPECT_TRUE(server_stats.serving_stale);
  EXPECT_TRUE(server.serving_stale());
  EXPECT_GE(server_stats.staleness_ms, 1);

  // A successful publish is what restores freshness.
  ASSERT_TRUE(server.Publish(CenterIndex::Build(InitialCenters())).ok());
  EXPECT_FALSE(server.serving_stale());
}

TEST(RefineLoopTest, BackgroundThreadRefinesAndStaysFresh) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("bg"));
  ModelServer server(CenterIndex::Build(InitialCenters()));
  const uint64_t v0 = server.published_version();
  RefineLoopOptions options = SmallLoopOptions();
  options.tick_ms = 1;
  options.min_new_rows = 1;
  RefineLoop loop(&server, &live, options);

  AppendRows(&live, 0, 24);
  loop.Start();
  // Wait (bounded) for the background thread to pick up the rows.
  for (int spin = 0; spin < 500 && loop.stats().cycles == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop.Stop();

  EXPECT_GE(loop.stats().cycles, 1);
  EXPECT_GE(server.published_version(), v0 + 1);
  EXPECT_FALSE(server.serving_stale());
}

/// Counts the rows pinned through it (perfbench's CountingSource,
/// reduced to what these tests read).
class CountingSource final : public DatasetSource {
 public:
  explicit CountingSource(const DatasetSource* inner) : inner_(inner) {}

  int64_t n() const override { return inner_->n(); }
  int64_t dim() const override { return inner_->dim(); }
  bool has_weights() const override { return inner_->has_weights(); }
  bool has_labels() const override { return inner_->has_labels(); }
  double TotalWeight() const override { return inner_->TotalWeight(); }
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    PinnedBlock block = inner_->Pin(begin, end);
    rows_.fetch_add(block.view().rows());
    return block;
  }
  std::vector<std::pair<int64_t, int64_t>> ResidencyRanges() const override {
    return inner_->ResidencyRanges();
  }
  int64_t ResidentUnitCapacity() const override {
    return inner_->ResidentUnitCapacity();
  }
  Status status() const override { return inner_->status(); }

  int64_t rows_pinned() const { return rows_.load(); }

 private:
  const DatasetSource* inner_;
  mutable std::atomic<int64_t> rows_{0};
};

/// The first rows of a fixed table. Its visible prefix grows by `grow`
/// rows every time n() is read, as a LiveDataset grows under a producer
/// between a driver's reads; with grow = 0 it is the frozen source of
/// its current prefix.
class GrowingSource final : public DatasetSource {
 public:
  GrowingSource(const Matrix* table, int64_t visible, int64_t grow)
      : table_(table),
        all_(ConstMatrixView(table->data(), table->rows(), table->cols()),
             nullptr, nullptr),
        visible_(visible),
        grow_(grow) {}

  void set_visible(int64_t rows) { visible_.store(rows); }

  int64_t n() const override {
    const int64_t rows = visible_.load();
    if (grow_ > 0) visible_.store(std::min(rows + grow_, table_->rows()));
    return rows;
  }
  int64_t dim() const override { return table_->cols(); }
  bool has_weights() const override { return false; }
  bool has_labels() const override { return false; }
  double TotalWeight() const override {
    return static_cast<double>(visible_.load());
  }
  PinnedBlock Pin(int64_t begin, int64_t end) const override {
    return all_.Pin(begin, end);
  }

 private:
  const Matrix* table_;
  InMemorySource all_;
  mutable std::atomic<int64_t> visible_;
  const int64_t grow_;
};

void ExpectSameStats(const RefineStats& got, const RefineStats& expected,
                     const std::string& what) {
  EXPECT_EQ(got.cycles, expected.cycles) << what;
  EXPECT_EQ(got.skipped, expected.skipped) << what;
  EXPECT_EQ(got.minibatch_refines, expected.minibatch_refines) << what;
  EXPECT_EQ(got.reseeds, expected.reseeds) << what;
  EXPECT_EQ(got.failures, expected.failures) << what;
  EXPECT_EQ(got.checkpoint_retries, expected.checkpoint_retries) << what;
  EXPECT_EQ(got.recoveries, expected.recoveries) << what;
  EXPECT_EQ(got.slo_misses, expected.slo_misses) << what;
  EXPECT_EQ(got.last_cost_per_point, expected.last_cost_per_point) << what;
  EXPECT_EQ(got.ewma_cost_per_point, expected.ewma_cost_per_point) << what;
  EXPECT_EQ(got.watermark, expected.watermark) << what;
  EXPECT_EQ(got.served_cost_per_point, expected.served_cost_per_point)
      << what;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Centers far from every row: the next cycle's drift forces a re-seed.
Matrix FarCenters() {
  Matrix m = InitialCenters();
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += 50.0;
  return m;
}

TEST(RefineLoopTest, GrowingSourceRefinesLikeItsFrozenPrefix) {
  FaultGuard guard;
  Matrix table(400, kDim);
  for (int64_t r = 0; r < table.rows(); ++r) {
    for (int64_t j = 0; j < kDim; ++j) table.Row(r)[j] = ClusterCoord(r, j);
  }
  // G's source gains 8 rows at every look; F's holds the rows G's cycle
  // began with. Cycle 2 onwards re-seeds.
  GrowingSource growing(&table, /*visible=*/24, /*grow=*/8);
  GrowingSource frozen(&table, /*visible=*/0, /*grow=*/0);
  RefineLoopOptions options = SmallLoopOptions();
  options.drift_reseed_ratio = 0.0;
  ModelServer server_g(CenterIndex::Build(InitialCenters()));
  ModelServer server_f(CenterIndex::Build(InitialCenters()));
  RefineLoop loop_g(&server_g, &growing, options);
  RefineLoop loop_f(&server_f, &frozen, options);

  for (int cycle = 1; cycle <= 3; ++cycle) {
    const std::string what = "cycle " + std::to_string(cycle);
    ASSERT_TRUE(loop_g.RunOnce().ok()) << what;
    frozen.set_visible(loop_g.stats().watermark);
    ASSERT_TRUE(loop_f.RunOnce().ok()) << what;
    ExpectSameStats(loop_g.stats(), loop_f.stats(), what);
    ExpectBitwiseEqual(ServedCenters(server_g), ServedCenters(server_f),
                       what + " centers");
    EXPECT_EQ(loop_g.cost_history(), loop_f.cost_history()) << what;
    // A diverged cycle may already have scanned past what it sized.
    if (HasFailure()) return;
  }
  EXPECT_EQ(loop_g.stats().reseeds, 2);
}

TEST(RefineLoopTest, BackgroundReseedsBesideAnAppendingProducer) {
  // Every cycle after the first re-seeds (a full Fit, d = 32) while this
  // thread keeps appending: the Fit must stay inside the rows it began
  // with (sanitizer builds catch a scan past its per-row arrays).
  FaultGuard guard;
  constexpr int64_t kWideDim = 32;
  constexpr int64_t kBatchRows = 8;
  const std::string base = TempPath("bg_append");
  CleanBase(base);
  LiveDatasetOptions live_options;
  live_options.rows_per_shard = 64;
  Result<LiveDataset> opened = LiveDataset::Open(
      base, kWideDim, /*has_weights=*/false, live_options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  LiveDataset live = std::move(opened).ValueOrDie();
  Matrix initial(2, kWideDim);
  for (int64_t j = 0; j < kWideDim; ++j) {
    initial.Row(0)[j] = 1.5;
    initial.Row(1)[j] = 6.0;
  }
  ModelServer server(CenterIndex::Build(initial));
  RefineLoopOptions options = SmallLoopOptions();
  options.drift_reseed_ratio = 0.0;
  options.tick_ms = 1;
  RefineLoop loop(&server, &live, options);
  loop.Start();

  std::vector<double> batch(static_cast<size_t>(kBatchRows * kWideDim));
  int64_t rows = 0;
  for (int b = 0; b < 20000 && loop.stats().reseeds < 3; ++b) {
    for (int64_t i = 0; i < kBatchRows; ++i) {
      for (int64_t j = 0; j < kWideDim; ++j) {
        batch[static_cast<size_t>(i * kWideDim + j)] =
            ClusterCoord(rows + i, j);
      }
    }
    Status appended = live.Append(batch.data(), kBatchRows);
    if (appended.IsUnavailable()) {
      ASSERT_TRUE(live.Seal().ok());
      appended = live.Append(batch.data(), kBatchRows);
    }
    ASSERT_TRUE(appended.ok()) << appended;
    rows += kBatchRows;
  }
  loop.Stop();

  const RefineStats stats = loop.stats();
  EXPECT_GE(stats.reseeds, 3);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_LE(stats.watermark, live.n());
  EXPECT_EQ(server.published_version(),
            CenterIndex::Build(initial)->version() +
                static_cast<uint64_t>(stats.cycles));
}

TEST(RefineLoopTest, DriftIsTheFullPassAndNewRowsOnlyAfterOwnMinibatch) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("drift"));
  CountingSource counting(&live);
  const std::string ckpt = TempPath("drift.frsh");
  std::remove(ckpt.c_str());
  RefineLoopOptions options = SmallLoopOptions();
  options.checkpoint_path = ckpt;
  ModelServer server(CenterIndex::Build(InitialCenters()));
  auto loop = std::make_unique<RefineLoop>(&server, &counting, options);
  const int64_t sampled =
      options.minibatch.iterations * options.minibatch.batch_size;

  // Appends `rows` rows and runs one cycle. Its drift value must be the
  // test's own full pass over the centers served when it began. A
  // minibatch cycle pins the drift rows from `first_scored` (0: a full
  // pass), the SGD batches, and one full cost pass.
  int64_t appended = 0;
  auto cycle = [&](int64_t rows, bool reseed, int64_t first_scored) {
    AppendRows(&live, appended, rows);
    ASSERT_TRUE(live.Seal().ok());
    appended += rows;
    const Matrix served = ServedCenters(server);
    const RefineStats before = loop->stats();
    const int64_t pinned_before = counting.rows_pinned();
    ASSERT_TRUE(loop->RunOnce().ok());
    const RefineStats after = loop->stats();
    const int64_t n = live.n();
    EXPECT_EQ(after.served_cost_per_point,
              ComputeCost(live, served) / static_cast<double>(n))
        << "n = " << n;
    ASSERT_EQ(after.reseeds - before.reseeds, reseed ? 1 : 0) << "n = " << n;
    if (!reseed) {
      EXPECT_EQ(counting.rows_pinned() - pinned_before,
                (n - first_scored) + sampled + n)
          << "n = " << n;
    }
  };

  cycle(24, false, 0);   // nothing scored yet: full pass
  cycle(16, false, 24);  // serving its own minibatch: 16 new rows
  cycle(16, false, 40);
  // An outside publish of centers one ulp away: a full pass.
  Matrix nudged = ServedCenters(server);
  nudged.Row(0)[0] = std::nextafter(nudged.Row(0)[0], 1e9);
  ASSERT_TRUE(server.Publish(CenterIndex::Build(nudged)).ok());
  cycle(16, false, 0);
  cycle(16, false, 72);
  // Far-off centers force a re-seed; the cycle after it scores in full.
  ASSERT_TRUE(server.Publish(CenterIndex::Build(FarCenters())).ok());
  cycle(16, true, 0);
  cycle(16, false, 0);
  cycle(16, false, 120);
  // A recovered loop starts with nothing scored.
  loop = std::make_unique<RefineLoop>(&server, &counting, options);
  ASSERT_TRUE(loop->Recover().ok());
  ASSERT_EQ(loop->stats().recoveries, 1);
  cycle(16, false, 0);
  cycle(16, false, 152);
  EXPECT_EQ(loop->stats().minibatch_refines, 2);
  std::remove(ckpt.c_str());
}

TEST(RefineLoopTest, PoolSizeChangesNoPublishedOrCheckpointedBit) {
  FaultGuard guard;
  LiveDataset live_1 = OpenLive(TempPath("pool_1"));
  LiveDataset live_d = OpenLive(TempPath("pool_d"));
  const std::string ckpt_1 = TempPath("pool_1.frsh");
  const std::string ckpt_d = TempPath("pool_d.frsh");
  std::remove(ckpt_1.c_str());
  std::remove(ckpt_d.c_str());
  RefineLoopOptions options_1 = SmallLoopOptions();
  options_1.checkpoint_path = ckpt_1;
  options_1.reseed.num_threads = 1;
  RefineLoopOptions options_d = options_1;
  options_d.checkpoint_path = ckpt_d;
  options_d.reseed.num_threads = 0;  // ThreadPool::DefaultThreadCount()
  ModelServer server_1(CenterIndex::Build(InitialCenters()));
  ModelServer server_d(CenterIndex::Build(InitialCenters()));
  RefineLoop loop_1(&server_1, &live_1, options_1);
  RefineLoop loop_d(&server_d, &live_d, options_d);

  int64_t appended = 0;
  for (int cycle = 1; cycle <= 7; ++cycle) {
    const std::string what = "cycle " + std::to_string(cycle);
    const int64_t rows = cycle == 1 ? 24 : 16;
    AppendRows(&live_1, appended, rows);
    AppendRows(&live_d, appended, rows);
    ASSERT_TRUE(live_1.Seal().ok());
    ASSERT_TRUE(live_d.Seal().ok());
    appended += rows;
    if (cycle == 4) {  // force a re-seed on both
      ASSERT_TRUE(server_1.Publish(CenterIndex::Build(FarCenters())).ok());
      ASSERT_TRUE(server_d.Publish(CenterIndex::Build(FarCenters())).ok());
    }
    ASSERT_TRUE(loop_1.RunOnce().ok()) << what;
    ASSERT_TRUE(loop_d.RunOnce().ok()) << what;
    ExpectSameStats(loop_d.stats(), loop_1.stats(), what);
    ExpectBitwiseEqual(ServedCenters(server_d), ServedCenters(server_1),
                       what + " centers");
    EXPECT_EQ(loop_d.cost_history(), loop_1.cost_history()) << what;
    EXPECT_EQ(ReadBytes(ckpt_d), ReadBytes(ckpt_1)) << what;
  }
  EXPECT_EQ(loop_1.stats().reseeds, 1);
  std::remove(ckpt_1.c_str());
  std::remove(ckpt_d.c_str());
}

TEST(ServerRegistryFreshnessTest, TenantExposesStalenessAndLoopBinding) {
  FaultGuard guard;
  LiveDataset live = OpenLive(TempPath("tenant"));
  ServerRegistry registry;
  ASSERT_TRUE(
      registry.Register("ads", CenterIndex::Build(InitialCenters())).ok());

  // The RefineLoop binds to the tenant through the registry.
  Result<ModelServer*> bound = registry.server("ads");
  ASSERT_TRUE(bound.ok());
  ModelServer* server = bound.ValueUnsafe();
  RefineLoop loop(server, &live, SmallLoopOptions());
  AppendRows(&live, 0, 24);
  ASSERT_TRUE(loop.RunOnce().ok());

  Result<ServerRegistry::TenantStats> stats = registry.stats("ads");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueUnsafe().server.refines, 1);
  EXPECT_FALSE(stats.ValueUnsafe().server.serving_stale);

  // MarkStale through the same binding surfaces in TenantStats; an
  // unknown tenant still fails cleanly.
  server->MarkStale(true);
  EXPECT_TRUE(registry.stats("ads").ValueUnsafe().server.serving_stale);
  EXPECT_FALSE(registry.server("nope").ok());
}

}  // namespace
}  // namespace kmeansll
