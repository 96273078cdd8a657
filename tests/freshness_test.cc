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

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/result.h"
#include "data/live_dataset.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/model_server.h"
#include "serving/server_registry.h"

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
  return ::testing::TempDir() + "kmll_fresh_" + name;
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
