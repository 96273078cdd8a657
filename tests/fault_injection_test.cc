// Fault-tolerance suite: deterministic fault injection across the
// storage, MapReduce, checkpoint, and model-artifact layers.
//
// The contracts under test (docs/ARCHITECTURE.md "Fault tolerance"):
//   * Transient shard-map faults at a 10% rate are absorbed by the
//     retry layer — every driver (cost scan, k-means|| seeding, Lloyd,
//     at pool sizes null/1/4) stays BITWISE identical to its fault-free
//     run.
//   * An exhausted retry budget degrades to a clean Status at the
//     driver's Result boundary: a bad shard fails the scan, never the
//     process.
//   * MapReduce map-task faults are retried per task; retried runs are
//     bitwise fault-free runs, and a permanent fault surfaces as the
//     job's error Status.
//   * Durable artifacts (models, shard manifests) publish via
//     temp+fsync+rename: a crash at the write or rename boundary never
//     leaves a torn destination — the old contents survive intact or
//     the file simply does not exist.
//   * Checkpointed training killed right after a durable save resumes
//     bitwise-identically; stale or corrupt checkpoints are ignored.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "clustering/mapreduce_kmeans.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "core/kmeans.h"
#include "data/checkpoint_io.h"
#include "data/model_io.h"
#include "data/shard_store.h"
#include "matrix/dataset.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using data::ShardedDataset;
using data::ShardedDatasetOptions;
using data::ShardWriteOptions;
using data::WriteShards;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRule;

#if !KMEANSLL_FAULT_INJECTION
#error "fault_injection_test requires KMEANSLL_FAULT_INJECTION=1 (the default)"
#endif

/// Every test disarms the process-wide injector on exit, pass or fail,
/// so one test's armed sites can never leak into the next.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Reset(); }
  ~FaultGuard() { FaultInjector::Global().Reset(); }
};

[[maybe_unused]] ::testing::Environment* const kRemoveScratchFiles =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchFiles);

/// Deterministic hashed-uniform dataset (no weights/labels: the fault
/// matrix compares numeric trajectories, not metadata plumbing).
Dataset MakeData(int64_t n, int64_t d, uint64_t seed = 0xFA01) {
  Matrix points(n, d);
  for (int64_t i = 0; i < n; ++i) {
    double* row = points.Row(i);
    for (int64_t j = 0; j < d; ++j) {
      row[j] = 10.0 * rng::UniformAtIndex(
                          seed, static_cast<uint64_t>(i * d + j)) -
               5.0;
    }
  }
  return Dataset(std::move(points));
}

Matrix MakeCenters(int64_t k, int64_t d, uint64_t seed = 0xCE17) {
  Matrix m(k, d);
  for (int64_t i = 0; i < k * d; ++i) {
    m.data()[i] =
        8.0 * rng::UniformAtIndex(seed, static_cast<uint64_t>(i)) - 4.0;
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& got, const Matrix& expected,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), expected.rows()) << what;
  ASSERT_EQ(got.cols(), expected.cols()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], expected.data()[i])
        << what << " diverged at flat index " << i;
  }
}

void ExpectLloydBitwise(const LloydResult& got, const LloydResult& expected,
                        const std::string& what) {
  ExpectBitwiseEqual(got.centers, expected.centers, what + " centers");
  EXPECT_EQ(got.assignment.cluster, expected.assignment.cluster) << what;
  EXPECT_EQ(got.assignment.cost, expected.assignment.cost) << what;
  EXPECT_EQ(got.iterations, expected.iterations) << what;
  EXPECT_EQ(got.converged, expected.converged) << what;
  EXPECT_EQ(got.cost_history, expected.cost_history) << what;
  EXPECT_EQ(got.empty_cluster_repairs, expected.empty_cluster_repairs)
      << what;
}

/// Writes `data` as `shards` shard files and opens it with a resident
/// window of ~2 shards, zero retry backoff (tests must not sleep), and a
/// deep attempt budget so a bounded burst of injected faults can never
/// exhaust it.
ShardedDataset OpenSharded(const Dataset& data, const std::string& name,
                           int64_t shards) {
  const std::string manifest = TempPath(name);
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = shards});
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  ShardedDatasetOptions options;
  const int64_t rows_per_shard = (data.n() + shards - 1) / shards;
  options.max_resident_bytes = 2 * (32 + rows_per_shard * data.dim() * 8);
  options.io_retry.max_attempts = 8;
  options.io_retry.base_backoff_us = 0;
  auto opened = ShardedDataset::Open(manifest, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

/// Arms "shard.map" with the acceptance-criteria fault load: 10% of map
/// calls fail transiently. max_triggers = 4 keeps the burst strictly
/// below the 8-attempt retry budget, so recovery is guaranteed under
/// any interleaving while the per-call rate stays 10%.
void ArmTransientShardFaults() {
  FaultInjector::Global().Seed(0xD15EA5E);
  FaultInjector::Global().Arm(
      "shard.map", FaultRule{.kind = FaultKind::kMapFail,
                             .probability = 0.10,
                             .max_triggers = 4});
}

// --- Injector semantics --------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreSeededDeterministicAndBounded) {
  FaultGuard guard;
  FaultInjector& injector = FaultInjector::Global();

  // Disarmed: every check passes and counts nothing.
  EXPECT_TRUE(fault::Check("nowhere").ok());
  EXPECT_EQ(injector.triggered_count(), 0u);

  // Probabilistic decisions replay exactly under the same seed.
  auto run_sequence = [&]() {
    injector.Seed(42);
    injector.Arm("t.site", FaultRule{.kind = FaultKind::kMapFail,
                                     .probability = 0.25});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fault::Check("t.site").ok());
    }
    return fired;
  };
  std::vector<bool> first = run_sequence();
  std::vector<bool> second = run_sequence();
  EXPECT_EQ(first, second);
  EXPECT_GT(injector.triggered_count(), 0u);

  // nth_call fires exactly once, at the named ordinal.
  injector.Reset();
  injector.Arm("t.nth", FaultRule{.kind = FaultKind::kWriteFail,
                                  .nth_call = 3});
  EXPECT_TRUE(fault::Check("t.nth").ok());
  EXPECT_TRUE(fault::Check("t.nth").ok());
  EXPECT_FALSE(fault::Check("t.nth").ok());
  EXPECT_TRUE(fault::Check("t.nth").ok());

  // max_triggers caps a probability-1 rule.
  injector.Reset();
  injector.Arm("t.cap", FaultRule{.kind = FaultKind::kMapFail,
                                  .probability = 1.0,
                                  .max_triggers = 2});
  EXPECT_FALSE(fault::Check("t.cap").ok());
  EXPECT_FALSE(fault::Check("t.cap").ok());
  EXPECT_TRUE(fault::Check("t.cap").ok());
}

TEST(FaultInjectorTest, ArmAndResetRaceCheck) {
  // Arm rewrites a site's rule and Reset frees the site while another
  // thread's check may be deciding on it. Every fault that fires must
  // report an armed rule's kind, and the ASan and TSan builds flag any
  // read of the site made outside the injector's lock.
  FaultGuard guard;
  FaultInjector& injector = FaultInjector::Global();
  std::atomic<bool> started{false}, done{false};
  int64_t checks = 0, fired = 0, wrong_kind = 0;
  std::thread checker([&] {
    while (!done.load(std::memory_order_acquire)) {
      FaultKind kind = FaultKind::kMapFail;
      if (fault::CheckKind("t.race", &kind)) {
        ++fired;
        if (kind != FaultKind::kCrcError) ++wrong_kind;
      }
      ++checks;
      started.store(true, std::memory_order_release);
    }
  });
  // The loop below can finish before a freshly started thread runs at
  // all; start it only once the checker is checking.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < 20000; ++i) {
    injector.Arm("t.race", FaultRule{.kind = FaultKind::kCrcError,
                                     .probability = 1.0,
                                     .max_triggers = 3});
    injector.Arm("t.race", FaultRule{.kind = FaultKind::kCrcError,
                                     .nth_call = 2});
    injector.Reset();
  }
  done.store(true, std::memory_order_release);
  checker.join();
  EXPECT_GT(checks, 0);
  EXPECT_EQ(wrong_kind, 0) << "of " << fired << " fired checks";
}

// --- The fault matrix: transient shard faults are invisible --------------

TEST(FaultMatrixTest, CostScanBitwiseUnderTransientShardFaults) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix centers = MakeCenters(5, 6);
  const double expected = ComputeCost(data, centers);

  ShardedDataset sharded = OpenSharded(data, "cost.kml", 6);
  ArmTransientShardFaults();
  // Eight passes: with a 2-shard resident window every pass re-maps all
  // six shards, so ~48 map ordinals see the 10% fault rate. Each pass
  // must still produce the in-memory value bitwise.
  for (int pass = 0; pass < 8; ++pass) {
    EXPECT_EQ(ComputeCost(sharded, centers), expected);  // bitwise
  }
  EXPECT_TRUE(sharded.status().ok());
  EXPECT_GT(FaultInjector::Global().triggered_count(), 0u);
  EXPECT_GT(sharded.io_stats().map_retries, 0);
  EXPECT_EQ(sharded.io_stats().map_failures, 0);
}

TEST(FaultMatrixTest, SeedingBitwiseUnderTransientShardFaults) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  KMeansLLOptions options;
  options.oversampling = 10.0;
  options.rounds = 3;
  auto baseline = KMeansLLInit(data, 5, rng::MakeRootRng(7), options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (int threads : {0, 1, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ShardedDataset sharded = OpenSharded(data, "seed.kml", 6);
    ArmTransientShardFaults();
    auto got =
        KMeansLLInit(sharded, 5, rng::MakeRootRng(7), options, pool.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitwiseEqual(got->centers, baseline->centers,
                       "seeding centers, pool=" + std::to_string(threads));
    EXPECT_EQ(got->telemetry.round_potentials,
              baseline->telemetry.round_potentials);
    EXPECT_EQ(got->telemetry.intermediate_centers,
              baseline->telemetry.intermediate_centers);
    FaultInjector::Global().Reset();
  }
}

TEST(FaultMatrixTest, LloydBitwiseUnderTransientShardFaults) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial = MakeCenters(5, 6);
  LloydOptions options;
  options.max_iterations = 8;
  options.track_history = true;

  auto std_baseline = RunLloyd(data, initial, options);
  ASSERT_TRUE(std_baseline.ok());

  for (int threads : {0, 1, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ShardedDataset sharded = OpenSharded(data, "lloyd.kml", 6);
    ArmTransientShardFaults();
    auto got = RunLloyd(sharded, initial, options, pool.get());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectLloydBitwise(*got, *std_baseline,
                       "standard pool=" + std::to_string(threads));
    FaultInjector::Global().Reset();
  }
}

// --- Degraded scans fail the driver, not the process ---------------------

TEST(FaultMatrixTest, ExhaustedShardRetriesDegradeToCleanStatus) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix centers = MakeCenters(5, 6);

  const std::string manifest = TempPath("degrade.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 6});
  ASSERT_TRUE(written.ok());
  ShardedDatasetOptions options;
  options.io_retry.max_attempts = 2;
  options.io_retry.base_backoff_us = 0;
  auto opened = ShardedDataset::Open(manifest, options);
  ASSERT_TRUE(opened.ok());
  ShardedDataset sharded = std::move(opened).ValueOrDie();

  // Every map attempt fails: the retry budget exhausts on first pin.
  FaultInjector::Global().Arm(
      "shard.map",
      FaultRule{.kind = FaultKind::kMapFail, .probability = 1.0});

  // The raw scan completes structurally (fallback blocks) and the source
  // reports the root cause through its sticky status.
  (void)ComputeCost(sharded, centers);
  EXPECT_FALSE(sharded.status().ok());
  EXPECT_TRUE(sharded.status().IsIOError());
  EXPECT_GT(sharded.io_stats().map_failures, 0);

  // Drivers surface that status as their own clean error.
  auto lloyd = RunLloyd(sharded, centers, LloydOptions{});
  EXPECT_FALSE(lloyd.ok());
  EXPECT_TRUE(lloyd.status().IsIOError());

  auto init = KMeansLLInit(sharded, 5, rng::MakeRootRng(7),
                           KMeansLLOptions{});
  EXPECT_FALSE(init.ok());
  EXPECT_TRUE(init.status().IsIOError());
}

// --- MapReduce task faults -----------------------------------------------

TEST(FaultMatrixTest, MapReduceTaskRetriesKeepResultsBitwise) {
  FaultGuard guard;
  Dataset data = MakeData(300, 6);
  Matrix centers = MakeCenters(5, 6);
  MRContext ctx;
  ctx.num_partitions = 8;

  auto baseline = MRComputeCost(data, centers, ctx);
  ASSERT_TRUE(baseline.ok());

  KMeansConfig config;
  config.k = 5;
  config.init = InitMethod::kKMeansParallel;
  config.kmeansll.rounds = 3;
  config.kmeansll.oversampling = 10.0;
  config.lloyd.max_iterations = 5;
  config.use_mapreduce = true;
  config.num_partitions = 8;
  auto fit_baseline = KMeans(config).Fit(data);
  ASSERT_TRUE(fit_baseline.ok()) << fit_baseline.status().ToString();

  // 10% of task attempts die; max_triggers = 2 stays under the 3-attempt
  // budget so no task can exhaust it even if both land on one task.
  FaultInjector::Global().Seed(0xBADC0DE);
  FaultInjector::Global().Arm(
      "mr.task", FaultRule{.kind = FaultKind::kTaskFail,
                           .probability = 0.10,
                           .max_triggers = 2});
  mapreduce::Counters counters;
  ctx.counters = &counters;
  auto faulted = MRComputeCost(data, centers, ctx);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted.ValueOrDie(), baseline.ValueOrDie());  // bitwise

  // The full MR pipeline under the same fault load.
  FaultInjector::Global().Seed(0xBADC0DE);
  FaultInjector::Global().Arm(
      "mr.task", FaultRule{.kind = FaultKind::kTaskFail,
                           .probability = 0.10,
                           .max_triggers = 2});
  auto fit_faulted = KMeans(config).Fit(data);
  ASSERT_TRUE(fit_faulted.ok()) << fit_faulted.status().ToString();
  ExpectBitwiseEqual(fit_faulted->centers, fit_baseline->centers,
                     "MR Fit centers");
  EXPECT_EQ(fit_faulted->final_cost, fit_baseline->final_cost);
  EXPECT_EQ(fit_faulted->assignment.cluster,
            fit_baseline->assignment.cluster);
  EXPECT_GT(fit_faulted->counters.Get(mapreduce::kCounterTaskRetries), 0);
  EXPECT_EQ(fit_faulted->counters.Get(mapreduce::kCounterTaskFailures), 0);
}

TEST(FaultMatrixTest, MapReduceTaskBudgetExhaustionFailsCleanly) {
  FaultGuard guard;
  Dataset data = MakeData(300, 6);
  Matrix centers = MakeCenters(5, 6);
  MRContext ctx;
  ctx.num_partitions = 4;
  mapreduce::Counters counters;
  ctx.counters = &counters;

  FaultInjector::Global().Arm(
      "mr.task",
      FaultRule{.kind = FaultKind::kTaskFail, .probability = 1.0});
  auto result = MRComputeCost(data, centers, ctx);
  EXPECT_FALSE(result.ok());
  EXPECT_GT(counters.Get(mapreduce::kCounterTaskFailures), 0);
}

// --- Crash-safe artifact publication -------------------------------------

TEST(CrashConsistencyTest, ModelSaveNeverTearsTheDestination) {
  FaultGuard guard;
  Matrix centers_v1 = MakeCenters(5, 6, 0xA);
  Matrix centers_v2 = MakeCenters(5, 6, 0xB);
  const std::string path = TempPath("model_atomic.kmm");
  (void)RemoveFileIfExists(path);

  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers_v1, data::ModelMetadata{}),
                  path)
                  .ok());

  for (const char* site : {"model.write", "model.write.rename"}) {
    // Permanent fault (every retry attempt dies at this boundary): the
    // save fails, and the destination still holds v1 byte-for-byte.
    FaultInjector::Global().Reset();
    FaultInjector::Global().Arm(
        site, FaultRule{.kind = FaultKind::kWriteFail, .probability = 1.0});
    Status save = data::SaveModel(
        data::MakeModelArtifact(centers_v2, data::ModelMetadata{}), path);
    EXPECT_FALSE(save.ok()) << site;
    FaultInjector::Global().Reset();

    auto reloaded = data::LoadModel(path);
    ASSERT_TRUE(reloaded.ok()) << site << ": " << reloaded.status().ToString();
    ExpectBitwiseEqual(reloaded->centers, centers_v1,
                       std::string("after failed save at ") + site);
  }

  // A failed save to a fresh path leaves nothing behind — loadable or
  // otherwise.
  const std::string fresh = TempPath("model_never_born.kmm");
  (void)RemoveFileIfExists(fresh);
  FaultInjector::Global().Arm(
      "model.write.rename",
      FaultRule{.kind = FaultKind::kWriteFail, .probability = 1.0});
  EXPECT_FALSE(data::SaveModel(data::MakeModelArtifact(
                                   centers_v2, data::ModelMetadata{}),
                               fresh)
                   .ok());
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FileExists(fresh));
  std::remove(path.c_str());
}

TEST(CrashConsistencyTest, TornWriteLeavesTornTempAndUntouchedDest) {
  FaultGuard guard;
  Matrix centers_v1 = MakeCenters(5, 6, 0xA);
  Matrix centers_v2 = MakeCenters(5, 6, 0xB);
  const std::string path = TempPath("model_torn.kmm");
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  (void)RemoveFileIfExists(path);
  (void)RemoveFileIfExists(tmp);

  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers_v1, data::ModelMetadata{}),
                  path)
                  .ok());

  // kTornWrite is the crash-shaped failure: unlike kWriteFail (which
  // dies before any byte lands and cleans up), it persists a PREFIX of
  // the temp file and leaves it behind — a power cut mid-write. The
  // destination must still be v1 bitwise, and the stray torn temp must
  // never pass validation.
  FaultInjector::Global().Arm(
      "model.write",
      FaultRule{.kind = FaultKind::kTornWrite, .probability = 1.0});
  Status save = data::SaveModel(
      data::MakeModelArtifact(centers_v2, data::ModelMetadata{}), path);
  EXPECT_FALSE(save.ok());
  FaultInjector::Global().Reset();

  EXPECT_TRUE(FileExists(tmp)) << "torn temp should be left behind";
  EXPECT_FALSE(data::LoadModel(tmp).ok())
      << "a torn prefix must never validate";
  auto reloaded = data::LoadModel(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectBitwiseEqual(reloaded->centers, centers_v1,
                     "destination after torn write");
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(CrashConsistencyTest, TransientWriteFaultIsRetriedToSuccess) {
  FaultGuard guard;
  Matrix centers = MakeCenters(5, 6);
  const std::string path = TempPath("model_retry.kmm");
  (void)RemoveFileIfExists(path);

  // One injected failure, then the retry succeeds: the save reports OK
  // and the artifact is whole.
  FaultInjector::Global().Arm(
      "model.write",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers, data::ModelMetadata{}),
                  path)
                  .ok());
  auto reloaded = data::LoadModel(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectBitwiseEqual(reloaded->centers, centers, "retried save");
  std::remove(path.c_str());
}

TEST(CrashConsistencyTest, WriteRetriesSurfaceInTelemetry) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial = MakeCenters(5, 6);

  // One transient checkpoint-write failure: the save heals by retrying,
  // the run succeeds, and the burned retry is visible in the result —
  // the flaky-disk signal a postmortem needs, invisible in the Status.
  LloydOptions options;
  options.max_iterations = 8;
  options.checkpoint_path = TempPath("retry_count.ckpt");
  options.checkpoint_every = 2;
  (void)RemoveFileIfExists(options.checkpoint_path);
  FaultInjector::Global().Arm(
      "checkpoint.write",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  auto lloyd = RunLloyd(data, initial, options);
  ASSERT_TRUE(lloyd.ok()) << lloyd.status().ToString();
  EXPECT_GE(lloyd->checkpoint_write_retries, 1);
  FaultInjector::Global().Reset();

  // Same for the final model save, through the Fit facade.
  KMeansConfig config;
  config.k = 5;
  config.kmeansll.rounds = 2;
  config.kmeansll.oversampling = 10.0;
  config.lloyd.max_iterations = 3;
  config.model_output_path = TempPath("retry_count.kmm");
  (void)RemoveFileIfExists(config.model_output_path);
  FaultInjector::Global().Arm(
      "model.write",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  auto report = KMeans(config).Fit(data);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->model_write_retries, 1);
  std::remove(config.model_output_path.c_str());

  // No faults → zero retries: the counters never drift on their own.
  LloydOptions clean_options;
  clean_options.max_iterations = 3;
  auto clean = RunLloyd(data, initial, clean_options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->checkpoint_write_retries, 0);
}

TEST(CrashConsistencyTest, InjectedCrcCorruptionFailsModelLoadCleanly) {
  FaultGuard guard;
  Matrix centers = MakeCenters(5, 6);
  const std::string path = TempPath("model_crc.kmm");
  ASSERT_TRUE(data::SaveModel(
                  data::MakeModelArtifact(centers, data::ModelMetadata{}),
                  path)
                  .ok());

  FaultInjector::Global().Arm(
      "model.read",
      FaultRule{.kind = FaultKind::kCrcError, .nth_call = 1});
  auto corrupted = data::LoadModel(path);
  EXPECT_FALSE(corrupted.ok());
  // The fault fired once; the file itself was never modified.
  auto clean = data::LoadModel(path);
  ASSERT_TRUE(clean.ok());
  ExpectBitwiseEqual(clean->centers, centers, "post-CRC-fault reload");
  std::remove(path.c_str());
}

TEST(CrashConsistencyTest, ShardWriterCrashLeavesNoOpenableDataset) {
  FaultGuard guard;
  Dataset data = MakeData(120, 4);
  const std::string manifest = TempPath("writer_crash.kml");
  (void)RemoveFileIfExists(manifest);

  // Die at the manifest publish: shard files may exist, but without a
  // manifest nothing will ever open them as a dataset.
  data::ShardWriter::Options options;
  options.rows_per_shard = 40;
  auto writer = data::ShardWriter::Open(manifest, data.dim(), options);
  ASSERT_TRUE(writer.ok());
  InMemorySource source = data.AsSource();
  ASSERT_TRUE(writer->AppendRange(source, 0, data.n()).ok());
  FaultInjector::Global().Arm(
      "manifest.write",
      FaultRule{.kind = FaultKind::kWriteFail, .probability = 1.0});
  EXPECT_FALSE(writer->Finalize().ok());
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FileExists(manifest));
  EXPECT_FALSE(ShardedDataset::Open(manifest).ok());
}

// --- Checkpoint/resume: kill-point crash tests ---------------------------

TEST(CheckpointResumeTest, LloydKillAfterCheckpointResumesBitwise) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial = MakeCenters(5, 6);
  LloydOptions baseline_options;
  baseline_options.max_iterations = 8;
  baseline_options.track_history = true;

  auto baseline = RunLloyd(data, initial, baseline_options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline->iterations, 4)
      << "converged too early to exercise the kill point";

  LloydOptions ckpt_options = baseline_options;
  ckpt_options.checkpoint_path = TempPath("lloyd_resume.ckpt");
  ckpt_options.checkpoint_every = 2;
  (void)RemoveFileIfExists(ckpt_options.checkpoint_path);

  // Run 1: die right after the first durable checkpoint.
  FaultInjector::Global().Arm(
      "lloyd.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  auto killed = RunLloyd(data, initial, ckpt_options);
  EXPECT_FALSE(killed.ok());
  EXPECT_TRUE(FileExists(ckpt_options.checkpoint_path));
  FaultInjector::Global().Reset();

  // Run 2: resumes from the checkpoint and finishes; every observable
  // matches the uninterrupted run bitwise, and the checkpoint is gone.
  auto resumed = RunLloyd(data, initial, ckpt_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectLloydBitwise(*resumed, *baseline, "standard");
  EXPECT_FALSE(FileExists(ckpt_options.checkpoint_path));
}

TEST(CheckpointResumeTest, SeedingKillAfterCheckpointResumesBitwise) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  KMeansLLOptions baseline_options;
  baseline_options.oversampling = 10.0;
  baseline_options.rounds = 5;
  auto baseline =
      KMeansLLInit(data, 5, rng::MakeRootRng(7), baseline_options);
  ASSERT_TRUE(baseline.ok());

  KMeansLLOptions ckpt_options = baseline_options;
  ckpt_options.checkpoint_path = TempPath("seed_resume.ckpt");
  ckpt_options.checkpoint_every = 2;
  (void)RemoveFileIfExists(ckpt_options.checkpoint_path);

  FaultInjector::Global().Arm(
      "seed.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  auto killed = KMeansLLInit(data, 5, rng::MakeRootRng(7), ckpt_options);
  EXPECT_FALSE(killed.ok());
  ASSERT_TRUE(FileExists(ckpt_options.checkpoint_path));
  FaultInjector::Global().Reset();

  auto resumed = KMeansLLInit(data, 5, rng::MakeRootRng(7), ckpt_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitwiseEqual(resumed->centers, baseline->centers,
                     "resumed seeding centers");
  EXPECT_EQ(resumed->telemetry.round_potentials,
            baseline->telemetry.round_potentials);
  EXPECT_EQ(resumed->telemetry.intermediate_centers,
            baseline->telemetry.intermediate_centers);
  EXPECT_EQ(resumed->telemetry.data_passes,
            baseline->telemetry.data_passes);
  EXPECT_FALSE(FileExists(ckpt_options.checkpoint_path));
}

TEST(CheckpointResumeTest, FullFitResumesAcrossBothPhases) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  KMeansConfig config;
  config.k = 5;
  config.init = InitMethod::kKMeansParallel;
  config.kmeansll.oversampling = 10.0;
  config.kmeansll.rounds = 4;
  config.lloyd.max_iterations = 8;
  auto baseline = KMeans(config).Fit(data);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->lloyd_iterations, 4)
      << "converged too early to exercise the Lloyd kill point";

  KMeansConfig ckpt_config = config;
  ckpt_config.checkpoint_path = TempPath("fit_resume.ckpt");
  ckpt_config.checkpoint_every = 2;
  (void)RemoveFileIfExists(ckpt_config.checkpoint_path);
  (void)RemoveFileIfExists(ckpt_config.checkpoint_path + ".seed");

  // Crash 1: mid-seeding, right after a seeding-round checkpoint.
  FaultInjector::Global().Arm(
      "seed.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(KMeans(ckpt_config).Fit(data).ok());
  EXPECT_TRUE(FileExists(ckpt_config.checkpoint_path + ".seed"));
  FaultInjector::Global().Reset();

  // Crash 2: seeding resumes and completes, then Lloyd dies after its
  // first checkpoint.
  FaultInjector::Global().Arm(
      "lloyd.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(KMeans(ckpt_config).Fit(data).ok());
  EXPECT_TRUE(FileExists(ckpt_config.checkpoint_path));
  FaultInjector::Global().Reset();

  // Final run: resumes Lloyd and completes. The report is bitwise the
  // uninterrupted one; both checkpoint files are retired.
  auto resumed = KMeans(ckpt_config).Fit(data);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectBitwiseEqual(resumed->centers, baseline->centers, "Fit centers");
  EXPECT_EQ(resumed->final_cost, baseline->final_cost);
  EXPECT_EQ(resumed->seed_cost, baseline->seed_cost);
  EXPECT_EQ(resumed->assignment.cluster, baseline->assignment.cluster);
  EXPECT_EQ(resumed->lloyd_iterations, baseline->lloyd_iterations);
  EXPECT_FALSE(FileExists(ckpt_config.checkpoint_path));
  EXPECT_FALSE(FileExists(ckpt_config.checkpoint_path + ".seed"));
}

TEST(CheckpointResumeTest, StaleCheckpointIsIgnored) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial_a = MakeCenters(5, 6, 0xAA);
  Matrix initial_b = MakeCenters(5, 6, 0xBB);
  LloydOptions options;
  options.max_iterations = 8;
  options.checkpoint_path = TempPath("stale.ckpt");
  options.checkpoint_every = 2;
  (void)RemoveFileIfExists(options.checkpoint_path);

  // Leave a checkpoint behind from a killed run over initial_a.
  FaultInjector::Global().Arm(
      "lloyd.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(RunLloyd(data, initial_a, options).ok());
  ASSERT_TRUE(FileExists(options.checkpoint_path));
  FaultInjector::Global().Reset();

  // A run over DIFFERENT initial centers at the same path must ignore
  // it (fingerprint mismatch) and match its own fresh baseline.
  LloydOptions plain;
  plain.max_iterations = 8;
  auto baseline_b = RunLloyd(data, initial_b, plain);
  ASSERT_TRUE(baseline_b.ok());
  auto got = RunLloyd(data, initial_b, options);
  ASSERT_TRUE(got.ok());
  ExpectLloydBitwise(*got, *baseline_b, "stale-checkpoint run");
  EXPECT_FALSE(FileExists(options.checkpoint_path));
}

TEST(CheckpointResumeTest, CorruptCheckpointIsIgnored) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial = MakeCenters(5, 6);
  LloydOptions options;
  options.max_iterations = 8;
  options.checkpoint_path = TempPath("corrupt.ckpt");
  options.checkpoint_every = 2;
  (void)RemoveFileIfExists(options.checkpoint_path);

  LloydOptions plain;
  plain.max_iterations = 8;
  auto baseline = RunLloyd(data, initial, plain);
  ASSERT_TRUE(baseline.ok());

  FaultInjector::Global().Arm(
      "lloyd.kill",
      FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(RunLloyd(data, initial, options).ok());
  ASSERT_TRUE(FileExists(options.checkpoint_path));
  FaultInjector::Global().Reset();

  // Torn checkpoint (flipped payload byte → CRC mismatch): the resume
  // path must warn, discard it, and restart from scratch bitwise.
  {
    std::FILE* f = std::fopen(options.checkpoint_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 80, SEEK_SET), 0);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 80, SEEK_SET), 0);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
  }
  auto got = RunLloyd(data, initial, options);
  ASSERT_TRUE(got.ok());
  ExpectLloydBitwise(*got, *baseline, "corrupt-checkpoint run");
  EXPECT_FALSE(FileExists(options.checkpoint_path));
}

TEST(CheckpointResumeTest, PermanentCheckpointWriteFaultFailsTraining) {
  FaultGuard guard;
  Dataset data = MakeData(240, 6);
  Matrix initial = MakeCenters(5, 6);
  LloydOptions options;
  options.max_iterations = 8;
  options.checkpoint_path = TempPath("writefail.ckpt");
  options.checkpoint_every = 2;
  (void)RemoveFileIfExists(options.checkpoint_path);

  // Checkpointing is part of the run's contract once requested: if the
  // durable save cannot be made (every attempt fails), the run reports
  // the I/O error instead of silently training on without coverage.
  FaultInjector::Global().Arm(
      "checkpoint.write",
      FaultRule{.kind = FaultKind::kWriteFail, .probability = 1.0});
  auto result = RunLloyd(data, initial, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_FALSE(FileExists(options.checkpoint_path));
}

}  // namespace
}  // namespace kmeansll
