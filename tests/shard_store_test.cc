// Tests for the out-of-core storage layer (data/shard_store.h): binary
// shard format failure paths, round-trips across shard boundaries, the
// LRU residency window, and the headline determinism contract — a
// dataset clustered through a ShardedDataset with a pinned window
// smaller than the data produces bitwise-identical centers, assignments,
// and cost histories to the in-memory path for both seeders and Lloyd
// at pool sizes null/1/4.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clustering/cost.h"
#include "clustering/init_kmeansll.h"
#include "clustering/init_kmeanspp.h"
#include "clustering/lloyd.h"
#include "clustering/mapreduce_kmeans.h"
#include "clustering/minibatch.h"
#include "common/fault_injection.h"
#include "data/binary_io.h"
#include "data/shard_store.h"
#include "matrix/dataset.h"
#include "matrix/dataset_view.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using data::ReadShardManifest;
using data::ShardedDataset;
using data::ShardedDatasetOptions;
using data::ShardManifest;
using data::ShardWriteOptions;
using data::ShardWriter;
using data::WriteShards;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRule;

[[maybe_unused]] ::testing::Environment* const kRemoveScratchFiles =
    ::testing::AddGlobalTestEnvironment(new RemoveScratchFiles);

/// Deterministic dataset: hashed-uniform coordinates, weights in
/// (0.5, 1.5), labels i % 7.
Dataset MakeData(int64_t n, int64_t d, bool weighted, bool labeled,
                 uint64_t seed = 0x5eed) {
  Matrix points(n, d);
  for (int64_t i = 0; i < n; ++i) {
    double* row = points.Row(i);
    for (int64_t j = 0; j < d; ++j) {
      row[j] = 10.0 * rng::UniformAtIndex(
                          seed, static_cast<uint64_t>(i * d + j)) -
               5.0;
    }
  }
  if (!weighted && !labeled) return Dataset(std::move(points));
  std::vector<double> weights;
  std::vector<int32_t> labels;
  if (weighted) {
    for (int64_t i = 0; i < n; ++i) {
      weights.push_back(0.5 + rng::UniformAtIndex(
                                  seed ^ 0x77, static_cast<uint64_t>(i)));
    }
  }
  if (labeled) {
    for (int64_t i = 0; i < n; ++i) {
      labels.push_back(static_cast<int32_t>(i % 7));
    }
  }
  if (weighted && labeled) {
    auto result = Dataset::WithWeightsAndLabels(
        std::move(points), std::move(weights), std::move(labels));
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueOrDie();
  }
  if (weighted) {
    auto result =
        Dataset::WithWeights(std::move(points), std::move(weights));
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueOrDie();
  }
  auto result = Dataset::WithLabels(std::move(points), std::move(labels));
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie();
}

/// Bytes one shard of `rows` rows occupies on disk (v2: header +
/// payload + trailing CRC-32).
int64_t ShardBytes(int64_t rows, int64_t d, bool weighted, bool labeled) {
  int64_t bytes = 32 + rows * d * 8;
  if (weighted) bytes += rows * 8;
  if (labeled) bytes += rows * 4;
  return bytes + 4;
}

/// Up to k distinct rows of `data`, spread by a stride of 31.
Matrix FirstKCenters(const Dataset& data, int64_t k) {
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < k; ++i) indices.push_back(i * 31 % data.n());
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()),
                indices.end());
  return data.points().GatherRows(indices);
}

// --- Format round-trip and failure paths -------------------------------

TEST(ShardFormatTest, ShardsLoadStandaloneAndConcatenateToOriginal) {
  Dataset data = MakeData(211, 5, /*weighted=*/true, /*labeled=*/true);
  std::string manifest = TempPath("roundtrip.kml");
  auto written = WriteShards(data, manifest, ShardWriteOptions{.num_shards = 5});
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(written->shards.size(), 5u);

  int64_t row = 0;
  for (const auto& info : written->shards) {
    auto shard = data::ReadBinary(ShardFilePath(manifest, info.file));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    ASSERT_EQ(shard->n(), info.rows);
    ASSERT_EQ(shard->dim(), data.dim());
    ASSERT_TRUE(shard->has_weights());
    ASSERT_TRUE(shard->has_labels());
    for (int64_t i = 0; i < shard->n(); ++i, ++row) {
      for (int64_t j = 0; j < data.dim(); ++j) {
        EXPECT_EQ(shard->Point(i)[j], data.Point(row)[j]);
      }
      EXPECT_EQ(shard->Weight(i), data.Weight(row));
      EXPECT_EQ(shard->labels()[i], data.labels()[row]);
    }
  }
  EXPECT_EQ(row, data.n());
}

TEST(ShardFormatTest, ViewsRoundTripAcrossShardBoundaries) {
  Dataset data = MakeData(103, 4, /*weighted=*/true, /*labeled=*/true);
  std::string manifest = TempPath("views.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 4}).ok());
  auto sharded = ShardedDataset::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->n(), data.n());
  EXPECT_EQ(sharded->dim(), data.dim());
  EXPECT_TRUE(sharded->has_weights());
  EXPECT_TRUE(sharded->has_labels());
  EXPECT_EQ(sharded->TotalWeight(), data.TotalWeight());

  int64_t rows_seen = 0;
  ForEachBlock(*sharded, 0, sharded->n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      const int64_t g = v.first_row() + i;
      for (int64_t j = 0; j < data.dim(); ++j) {
        EXPECT_EQ(v.Point(i)[j], data.Point(g)[j]);
      }
      EXPECT_EQ(v.Weight(i), data.Weight(g));
      EXPECT_EQ(v.Label(i), data.labels()[static_cast<size_t>(g)]);
      ++rows_seen;
    }
  });
  EXPECT_EQ(rows_seen, data.n());

  // A pin that starts mid-shard is clipped to that shard's end.
  PinnedBlock pin = sharded->Pin(20, data.n());
  EXPECT_EQ(pin.view().first_row(), 20);
  EXPECT_LE(pin.view().end_row(), data.n());
  EXPECT_EQ(pin.view().Point(0)[0], data.Point(20)[0]);
}

TEST(ShardFormatTest, RowsPerShardSplit) {
  Dataset data = MakeData(100, 3, false, false);
  std::string manifest = TempPath("rps.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.rows_per_shard = 30});
  ASSERT_TRUE(written.ok());
  ASSERT_EQ(written->shards.size(), 4u);  // 30 + 30 + 30 + 10
  EXPECT_EQ(written->shards.back().rows, 10);
}

TEST(ShardFormatTest, WriteRejectsBadOptions) {
  Dataset data = MakeData(10, 2, false, false);
  EXPECT_FALSE(WriteShards(data, TempPath("bad.kml"), ShardWriteOptions{})
                   .ok());
  EXPECT_FALSE(WriteShards(data, TempPath("bad.kml"),
                           ShardWriteOptions{.num_shards = 2,
                                             .rows_per_shard = 5})
                   .ok());
  EXPECT_FALSE(WriteShards(data, TempPath("bad.kml"),
                           ShardWriteOptions{.num_shards = 11})
                   .ok());
}

TEST(ShardFormatTest, CorruptManifestMagicFails) {
  Dataset data = MakeData(50, 3, false, false);
  std::string manifest = TempPath("badmagic.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 2}).ok());
  {
    std::fstream f(manifest,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("GARBAGE!", 8);
  }
  auto opened = ShardedDataset::Open(manifest);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

TEST(ShardFormatTest, TruncatedManifestFails) {
  Dataset data = MakeData(50, 3, false, false);
  std::string manifest = TempPath("shortmanifest.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 2}).ok());
  std::ifstream in(manifest, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_FALSE(ShardedDataset::Open(manifest).ok());
}

// Appends one byte to a file.
void AppendByte(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.put('\0');
}

TEST(ShardFormatTest, ManifestWithTrailingBytesFails) {
  Dataset data = MakeData(50, 3, false, false);
  std::string manifest = TempPath("longmanifest.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 2}).ok());
  ASSERT_TRUE(ReadShardManifest(manifest).ok());
  AppendByte(manifest);
  auto read = ReadShardManifest(manifest);
  EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
  EXPECT_FALSE(ShardedDataset::Open(manifest).ok());
}

TEST(ShardFormatTest, ShardWithTrailingBytesFailsAtOpen) {
  Dataset data = MakeData(60, 4, /*weighted=*/true, /*labeled=*/false);
  std::string manifest = TempPath("longshard.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 3});
  ASSERT_TRUE(written.ok());
  ASSERT_TRUE(ShardedDataset::Open(manifest).ok());
  AppendByte(ShardFilePath(manifest, written->shards[1].file));
  auto opened = ShardedDataset::Open(manifest);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

TEST(ShardFormatTest, CorruptShardMagicFailsAtOpen) {
  Dataset data = MakeData(50, 3, false, false);
  std::string manifest = TempPath("badshard.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 2});
  ASSERT_TRUE(written.ok());
  {
    std::fstream f(ShardFilePath(manifest, written->shards[1].file),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("NOTADATA", 8);
  }
  auto opened = ShardedDataset::Open(manifest);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsInvalidArgument())
      << opened.status().ToString();
}

TEST(ShardFormatTest, TruncatedShardFailsAtOpen) {
  Dataset data = MakeData(60, 4, /*weighted=*/true, /*labeled=*/false);
  std::string manifest = TempPath("truncshard.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 3});
  ASSERT_TRUE(written.ok());
  // Short read: the header promises 20 rows but the file ends mid-points.
  std::string shard_path = ShardFilePath(manifest, written->shards[2].file);
  std::ifstream in(shard_path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), 32 + 7 * 4 * 8 + 3);  // 7.x of 20 rows
  out.close();
  auto opened = ShardedDataset::Open(manifest);
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsIOError()) << opened.status().ToString();
}

TEST(ShardFormatTest, ShardHeaderMismatchFails) {
  Dataset a = MakeData(50, 3, false, false);
  Dataset b = MakeData(50, 6, false, false, /*seed=*/0xF00D);
  std::string manifest = TempPath("mismatch.kml");
  auto written = WriteShards(a, manifest, ShardWriteOptions{.num_shards = 2});
  ASSERT_TRUE(written.ok());
  // Replace shard 0 with a file whose header shape disagrees.
  ASSERT_TRUE(data::WriteBinary(
                  b, ShardFilePath(manifest, written->shards[0].file))
                  .ok());
  EXPECT_FALSE(ShardedDataset::Open(manifest).ok());
}

TEST(ShardFormatTest, OverflowingShardShapeFailsAtOpen) {
  // A manifest and a 36-byte shard that agree on n = 2^40 rows of
  // dim = 2^24: rows * dim * 8 overflows int64, so an unchecked size
  // rule would accept the shard and a Pin would read past its mapping.
  const int64_t n = int64_t{1} << 40, dim = int64_t{1} << 24;
  const std::string manifest = TempPath("overflow.kml");
  const std::string shard = ScratchPrefix() + "overflow.kml.shard0";
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    const int32_t version = 1, num_shards = 1;
    const uint32_t flags = 0;
    const auto len = static_cast<int32_t>(shard.size());
    out.write("KMLLSHRD", 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
    out.write(reinterpret_cast<const char*>(&num_shards), sizeof(num_shards));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(shard.data(), len);
  }
  {
    std::ofstream out(ShardFilePath(manifest, shard),
                      std::ios::binary | std::ios::trunc);
    const int32_t version = 2;
    const uint32_t flags = 1u << 2, crc = 0;
    out.write("KMLLDATA", 8);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  auto opened = ShardedDataset::Open(manifest);
  EXPECT_FALSE(opened.ok()) << "opened as n=" << opened->n()
                            << " dim=" << opened->dim();
}

TEST(ShardFormatTest, PayloadBitRotDegradesAtFirstMap) {
  Dataset data = MakeData(60, 3, false, false);
  std::string manifest = TempPath("bitrot.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 3});
  ASSERT_TRUE(written.ok());
  // Flip one payload byte in shard 1: the header stays plausible, so
  // Open (which only validates manifests and headers) succeeds — the
  // shard's trailing CRC catches the rot at first map.
  std::string shard_path = ShardFilePath(manifest, written->shards[1].file);
  {
    FILE* f = fopen(shard_path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, 40, SEEK_SET), 0);
    int c = fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(fseek(f, 40, SEEK_SET), 0);
    fputc(c ^ 0x10, f);
    fclose(f);
  }
  auto opened = ShardedDataset::Open(manifest);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedDataset sharded = std::move(opened).ValueOrDie();
  EXPECT_TRUE(sharded.status().ok());

  // A full scan crosses the corrupt shard: the source degrades with a
  // clean sticky status instead of serving corrupt bytes. Corruption is
  // deterministic (InvalidArgument), so the retry layer does NOT burn
  // its transient-fault budget re-mapping it.
  ForEachBlock(sharded, 0, sharded.n(), [](const DatasetView&) {});
  Status degraded = sharded.status();
  EXPECT_TRUE(degraded.IsInvalidArgument()) << degraded.ToString();
  EXPECT_NE(degraded.message().find("payload CRC mismatch"),
            std::string::npos);

  // Sticky: the first root cause survives later scans.
  ForEachBlock(sharded, 0, sharded.n(), [](const DatasetView&) {});
  EXPECT_EQ(sharded.status().message(), degraded.message());
}

// --- Residency window --------------------------------------------------

TEST(ShardWindowTest, LruWindowEvictsAndRemaps) {
  const int64_t n = 200, d = 6;
  Dataset data = MakeData(n, d, false, false);
  std::string manifest = TempPath("window.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 4}).ok());
  const int64_t shard_bytes = ShardBytes(50, d, false, false);

  ShardedDatasetOptions options;
  options.max_resident_bytes = 2 * shard_bytes;  // half the data
  auto sharded = ShardedDataset::Open(manifest, options);
  ASSERT_TRUE(sharded.ok());

  // Two full passes: the second must re-map shards the window evicted.
  for (int pass = 0; pass < 2; ++pass) {
    int64_t rows = 0;
    ForEachBlock(*sharded, 0, n,
                 [&](const DatasetView& v) { rows += v.rows(); });
    EXPECT_EQ(rows, n);
  }
  auto stats = sharded->io_stats();
  EXPECT_GT(stats.maps, 4) << "window never forced a re-map";
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.resident_bytes, options.max_resident_bytes);
  // Transient overshoot is bounded by one pinned shard.
  EXPECT_LE(stats.peak_resident_bytes,
            options.max_resident_bytes + shard_bytes);
}

TEST(ShardWindowTest, UnboundedWindowMapsEachShardOnce) {
  Dataset data = MakeData(120, 4, false, false);
  std::string manifest = TempPath("unbounded.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 4}).ok());
  auto sharded = ShardedDataset::Open(manifest);
  ASSERT_TRUE(sharded.ok());
  for (int pass = 0; pass < 3; ++pass) {
    ForEachBlock(*sharded, 0, sharded->n(), [](const DatasetView&) {});
  }
  auto stats = sharded->io_stats();
  EXPECT_EQ(stats.maps, 4);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(ShardWindowTest, PooledScansStayWithinResidencyBound) {
  // Shards map only on demand: a map is published, and the window
  // evicts back under budget, in one critical section, and every worker
  // pins one block at a time. A map therefore lands beside at most P - 1
  // pinned shards, so P workers keep at most
  // max(window, (P - 1) * largest) + largest bytes mapped, and once every
  // pin is released the window holds (docs/ARCHITECTURE.md, "Residency
  // window"). n >= 64 * kPointTile, so the cost pass takes the
  // shard-scheduled chunk path as the seeding and Lloyd passes do.
  const int64_t n = 4099, d = 8, k = 6;
  Dataset data = MakeData(n, d, /*weighted=*/true, /*labeled=*/false);
  const std::string manifest = TempPath("pooled_window.kml");
  auto written =
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 8});
  ASSERT_TRUE(written.ok());
  int64_t largest = 0;
  for (const auto& info : written->shards) {
    largest = std::max(largest, ShardBytes(info.rows, d, true, false));
  }

  const Matrix centers = FirstKCenters(data, k);
  KMeansLLOptions ll_options;
  ll_options.rounds = 3;
  LloydOptions lloyd_options;
  lloyd_options.max_iterations = 3;
  const double expected_cost = ComputeCost(data, centers);
  auto expected_ll =
      KMeansLLInit(data, k, rng::MakeRootRng(13), ll_options);
  auto expected_lloyd = RunLloyd(data, centers, lloyd_options);
  ASSERT_TRUE(expected_ll.ok());
  ASSERT_TRUE(expected_lloyd.ok());

  for (int64_t window_shards : {2, 3, 4}) {
    for (int threads : {0, 1, 2, 4}) {
      SCOPED_TRACE("window of " + std::to_string(window_shards) +
                   " shards, pool " + std::to_string(threads));
      ShardedDatasetOptions options;
      options.max_resident_bytes = window_shards * largest;
      auto sharded = ShardedDataset::Open(manifest, options);
      ASSERT_TRUE(sharded.ok());
      std::unique_ptr<ThreadPool> pool =
          threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
      const int64_t workers = std::max(threads, 1);
      const int64_t bound =
          std::max(options.max_resident_bytes, (workers - 1) * largest) +
          largest;
      const auto expect_window_held = [&](const char* pass) {
        const ShardedDataset::IoStats stats = sharded->io_stats();
        EXPECT_LE(stats.resident_bytes, options.max_resident_bytes)
            << "after " << pass;
        EXPECT_LE(stats.peak_resident_bytes, bound) << "after " << pass;
      };

      EXPECT_EQ(ComputeCost(*sharded, centers, pool.get()), expected_cost);
      expect_window_held("ComputeCost");
      auto ll = KMeansLLInit(*sharded, k, rng::MakeRootRng(13), ll_options,
                             pool.get());
      ASSERT_TRUE(ll.ok());
      EXPECT_TRUE(ll->centers == expected_ll->centers);
      expect_window_held("KMeansLLInit");
      auto lloyd = RunLloyd(*sharded, centers, lloyd_options, pool.get());
      ASSERT_TRUE(lloyd.ok());
      EXPECT_TRUE(lloyd->centers == expected_lloyd->centers);
      expect_window_held("RunLloyd");
      EXPECT_GT(sharded->io_stats().evictions, 0);
    }
  }
}

// --- Bitwise equivalence: sharded vs in-memory -------------------------

struct EquivalenceCase {
  Dataset data;
  std::unique_ptr<ShardedDataset> sharded;
};

/// n=503 rows in 5 shards with a window of ~2 shards, weighted, d
/// selectable so both engine kernels get covered.
EquivalenceCase MakeEquivalence(int64_t d, const std::string& tag) {
  EquivalenceCase c;
  c.data = MakeData(503, d, /*weighted=*/true, /*labeled=*/false);
  std::string manifest = TempPath("equiv_" + tag + ".kml");
  auto written =
      WriteShards(c.data, manifest, ShardWriteOptions{.num_shards = 5});
  EXPECT_TRUE(written.ok());
  ShardedDatasetOptions options;
  options.max_resident_bytes =
      2 * ShardBytes(101, d, /*weighted=*/true, /*labeled=*/false);
  auto sharded = ShardedDataset::Open(manifest, options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  c.sharded =
      std::make_unique<ShardedDataset>(std::move(sharded).ValueOrDie());
  return c;
}

TEST(ShardEquivalenceTest, CostAndAssignmentBitwiseAtAnyPoolSize) {
  for (int64_t d : {8, 48}) {  // plain and expanded kernels
    EquivalenceCase c = MakeEquivalence(d, "cost_d" + std::to_string(d));
    Matrix centers = FirstKCenters(c.data, 9);
    std::unique_ptr<ThreadPool> pools[3] = {
        nullptr, std::make_unique<ThreadPool>(1),
        std::make_unique<ThreadPool>(4)};
    const double expected_cost = ComputeCost(c.data, centers);
    Assignment expected = ComputeAssignment(c.data, centers);
    for (auto& pool : pools) {
      EXPECT_EQ(ComputeCost(*c.sharded, centers, pool.get()),
                expected_cost);
      Assignment actual =
          ComputeAssignment(*c.sharded, centers, pool.get());
      EXPECT_EQ(actual.cluster, expected.cluster);
      EXPECT_EQ(actual.cost, expected.cost);
    }
  }
}

TEST(ShardEquivalenceTest, SeedersBitwiseIdentical) {
  for (int64_t d : {8, 48}) {  // plain and expanded kernels
    EquivalenceCase c = MakeEquivalence(d, "seed_d" + std::to_string(d));
    KMeansLLOptions ll_options;
    ll_options.rounds = 4;
    auto expected_ll =
        KMeansLLInit(c.data, 10, rng::MakeRootRng(7), ll_options);
    auto expected_pp = KMeansPPInit(c.data, 10, rng::MakeRootRng(9));
    ASSERT_TRUE(expected_ll.ok());
    ASSERT_TRUE(expected_pp.ok());
    std::unique_ptr<ThreadPool> pools[3] = {
        nullptr, std::make_unique<ThreadPool>(1),
        std::make_unique<ThreadPool>(4)};
    for (auto& pool : pools) {
      auto actual = KMeansLLInit(*c.sharded, 10, rng::MakeRootRng(7),
                                 ll_options, pool.get());
      ASSERT_TRUE(actual.ok());
      EXPECT_TRUE(actual->centers == expected_ll->centers);
      EXPECT_EQ(actual->telemetry.round_potentials,
                expected_ll->telemetry.round_potentials);

      auto actual_pp = KMeansPPInit(*c.sharded, 10, rng::MakeRootRng(9),
                                    KMeansPPOptions{}, pool.get());
      ASSERT_TRUE(actual_pp.ok());
      EXPECT_TRUE(actual_pp->centers == expected_pp->centers);
    }
  }
}

TEST(ShardEquivalenceTest, LloydBitwiseIdentical) {
  for (int64_t d : {8, 48}) {
    EquivalenceCase c = MakeEquivalence(d, "lloyd_d" + std::to_string(d));
    Matrix seed = FirstKCenters(c.data, 8);
    LloydOptions options;
    options.max_iterations = 6;
    options.track_history = true;

    auto expected = RunLloyd(c.data, seed, options);
    ASSERT_TRUE(expected.ok());
    std::unique_ptr<ThreadPool> pools[3] = {
        nullptr, std::make_unique<ThreadPool>(1),
        std::make_unique<ThreadPool>(4)};
    for (auto& pool : pools) {
      auto actual = RunLloyd(*c.sharded, seed, options, pool.get());
      ASSERT_TRUE(actual.ok());
      EXPECT_TRUE(actual->centers == expected->centers);
      EXPECT_EQ(actual->assignment.cluster, expected->assignment.cluster);
      EXPECT_EQ(actual->assignment.cost, expected->assignment.cost);
      EXPECT_EQ(actual->cost_history, expected->cost_history);
    }
  }
}

TEST(ShardEquivalenceTest, SeedPlusLloydPipelineBitwise) {
  // The acceptance pipeline: k-means|| seeding then Lloyd, entirely over
  // the sharded source with a window smaller than the data.
  EquivalenceCase c = MakeEquivalence(48, "pipeline");
  KMeansLLOptions ll_options;
  ll_options.rounds = 3;
  LloydOptions lloyd_options;
  lloyd_options.max_iterations = 5;
  lloyd_options.track_history = true;

  auto mem_seed = KMeansLLInit(c.data, 8, rng::MakeRootRng(3), ll_options);
  ASSERT_TRUE(mem_seed.ok());
  auto mem_lloyd = RunLloyd(c.data, mem_seed->centers, lloyd_options);
  ASSERT_TRUE(mem_lloyd.ok());

  ThreadPool pool(4);
  auto shard_seed = KMeansLLInit(*c.sharded, 8, rng::MakeRootRng(3),
                                 ll_options, &pool);
  ASSERT_TRUE(shard_seed.ok());
  EXPECT_TRUE(shard_seed->centers == mem_seed->centers);
  auto shard_lloyd =
      RunLloyd(*c.sharded, shard_seed->centers, lloyd_options, &pool);
  ASSERT_TRUE(shard_lloyd.ok());
  EXPECT_TRUE(shard_lloyd->centers == mem_lloyd->centers);
  EXPECT_EQ(shard_lloyd->assignment.cluster,
            mem_lloyd->assignment.cluster);
  EXPECT_EQ(shard_lloyd->assignment.cost, mem_lloyd->assignment.cost);
  EXPECT_EQ(shard_lloyd->cost_history, mem_lloyd->cost_history);

  // The window really was exercised: the streaming passes evicted.
  EXPECT_GT(c.sharded->io_stats().evictions, 0);
}

TEST(ShardEquivalenceTest, MapReduceDriversBitwiseIdentical) {
  EquivalenceCase c = MakeEquivalence(48, "mr");
  Matrix centers = FirstKCenters(c.data, 8);
  ThreadPool pool(4);
  MRContext mem_ctx{.num_partitions = 5, .pool = &pool};
  MRContext shard_ctx{.num_partitions = 5, .pool = &pool};

  EXPECT_EQ(MRComputeCost(*c.sharded, centers, shard_ctx).ValueOrDie(),
            MRComputeCost(c.data, centers, mem_ctx).ValueOrDie());

  KMeansLLOptions options;
  options.rounds = 3;
  auto mem = MRKMeansLLInit(c.data, 8, rng::MakeRootRng(11), options,
                            mem_ctx);
  auto shard = MRKMeansLLInit(*c.sharded, 8, rng::MakeRootRng(11), options,
                              shard_ctx);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(shard.ok());
  EXPECT_TRUE(shard->centers == mem->centers);

  LloydOptions lloyd_options;
  lloyd_options.max_iterations = 4;
  auto mem_lloyd = MRRunLloyd(c.data, centers, lloyd_options, mem_ctx);
  auto shard_lloyd =
      MRRunLloyd(*c.sharded, centers, lloyd_options, shard_ctx);
  ASSERT_TRUE(mem_lloyd.ok());
  ASSERT_TRUE(shard_lloyd.ok());
  EXPECT_TRUE(shard_lloyd->centers == mem_lloyd->centers);
  EXPECT_EQ(shard_lloyd->assignment.cluster,
            mem_lloyd->assignment.cluster);
}

// --- ShardWriter: streaming sink ---------------------------------------

TEST(ShardWriterTest, StreamedAppendRoundTripsBitwise) {
  Dataset data = MakeData(157, 6, /*weighted=*/true, /*labeled=*/true);
  std::string manifest = TempPath("writer.kml");
  ShardWriter::Options options;
  options.rows_per_shard = 40;
  options.has_weights = true;
  options.has_labels = true;
  auto writer = ShardWriter::Open(manifest, data.dim(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  // Append in odd-sized view blocks that straddle every shard cut.
  InMemorySource source = data.AsSource();
  int64_t row = 0;
  const int64_t steps[] = {1, 13, 39, 40, 41, 7};
  size_t step = 0;
  while (row < data.n()) {
    int64_t take = std::min(steps[step % 6], data.n() - row);
    ++step;
    PinnedBlock pin = source.Pin(row, row + take);
    ASSERT_TRUE(writer->Append(pin.view()).ok());
    row += take;
  }
  EXPECT_EQ(writer->rows_appended(), data.n());
  auto finalized = writer->Finalize();
  ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
  EXPECT_EQ(finalized->n, data.n());
  EXPECT_EQ(finalized->shards.size(), 4u);  // 40+40+40+37

  // The written dataset reads back bitwise, and each shard stands alone.
  auto sharded = ShardedDataset::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->n(), data.n());
  ForEachBlock(*sharded, 0, sharded->n(), [&](const DatasetView& v) {
    for (int64_t i = 0; i < v.rows(); ++i) {
      const int64_t g = v.first_row() + i;
      for (int64_t j = 0; j < data.dim(); ++j) {
        EXPECT_EQ(v.Point(i)[j], data.Point(g)[j]);
      }
      EXPECT_EQ(v.Weight(i), data.Weight(g));
      EXPECT_EQ(v.Label(i), data.labels()[static_cast<size_t>(g)]);
    }
  });
  auto standalone =
      data::ReadBinary(ShardFilePath(manifest, finalized->shards[1].file));
  ASSERT_TRUE(standalone.ok());
  EXPECT_EQ(standalone->n(), 40);
  EXPECT_EQ(standalone->Point(0)[0], data.Point(40)[0]);
}

TEST(ShardWriterTest, AppendRangeStreamsASource) {
  Dataset data = MakeData(90, 4, /*weighted=*/false, /*labeled=*/false);
  std::string manifest = TempPath("writer_range.kml");
  auto writer = ShardWriter::Open(manifest, data.dim(),
                                  ShardWriter::Options{.rows_per_shard = 25});
  ASSERT_TRUE(writer.ok());
  InMemorySource source = data.AsSource();
  ASSERT_TRUE(writer->AppendRange(source, 0, data.n()).ok());
  auto finalized = writer->Finalize();
  ASSERT_TRUE(finalized.ok());
  EXPECT_EQ(finalized->shards.size(), 4u);  // 25+25+25+15

  auto sharded = ShardedDataset::Open(manifest);
  ASSERT_TRUE(sharded.ok());
  Matrix centers = FirstKCenters(data, 5);
  EXPECT_EQ(ComputeCost(*sharded, centers), ComputeCost(data, centers));
}

TEST(ShardWriterTest, RejectsShapeAndFlagMismatches) {
  EXPECT_FALSE(ShardWriter::Open(TempPath("w_bad.kml"), 0,
                                 ShardWriter::Options{.rows_per_shard = 4})
                   .ok());
  EXPECT_FALSE(
      ShardWriter::Open(TempPath("w_bad.kml"), 3, ShardWriter::Options{})
          .ok());

  Dataset weighted = MakeData(10, 3, /*weighted=*/true, /*labeled=*/false);
  Dataset labeled = MakeData(10, 3, /*weighted=*/false, /*labeled=*/true);
  Dataset plain = MakeData(10, 4, /*weighted=*/false, /*labeled=*/false);

  auto writer = ShardWriter::Open(TempPath("w_plain.kml"), 3,
                                  ShardWriter::Options{.rows_per_shard = 8});
  ASSERT_TRUE(writer.ok());
  InMemorySource weighted_src = weighted.AsSource();
  InMemorySource labeled_src = labeled.AsSource();
  InMemorySource plain_src = plain.AsSource();
  {
    PinnedBlock pin = weighted_src.Pin(0, 10);
    EXPECT_FALSE(writer->Append(pin.view()).ok());  // weights dropped
  }
  {
    PinnedBlock pin = labeled_src.Pin(0, 10);
    EXPECT_FALSE(writer->Append(pin.view()).ok());  // label mismatch
  }
  {
    PinnedBlock pin = plain_src.Pin(0, 10);
    EXPECT_FALSE(writer->Append(pin.view()).ok());  // dim mismatch
  }
  // Nothing valid was appended: Finalize must refuse.
  EXPECT_FALSE(writer->Finalize().ok());

  // A weight-less view into a weighted writer appends 1.0 weights.
  auto wweighted = ShardWriter::Open(
      TempPath("w_weighted.kml"), 3,
      ShardWriter::Options{.rows_per_shard = 8, .has_weights = true});
  ASSERT_TRUE(wweighted.ok());
  Dataset plain3 = MakeData(10, 3, false, false);
  InMemorySource plain3_src = plain3.AsSource();
  {
    PinnedBlock pin = plain3_src.Pin(0, 10);
    ASSERT_TRUE(wweighted->Append(pin.view()).ok());
  }
  auto finalized = wweighted->Finalize();
  ASSERT_TRUE(finalized.ok());
  EXPECT_FALSE(wweighted->Finalize().ok());  // spent
  auto reopened = ShardedDataset::Open(TempPath("w_weighted.kml"));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->TotalWeight(), 10.0);
}

// --- IoStats: atomic, tear-free snapshots ------------------------------

TEST(ShardStatsTest, ConcurrentSnapshotsNeverTearOrRegress) {
  const int64_t n = 400, d = 8;
  Dataset data = MakeData(n, d, false, false);
  std::string manifest = TempPath("stats.kml");
  ASSERT_TRUE(
      WriteShards(data, manifest, ShardWriteOptions{.num_shards = 8}).ok());
  ShardedDatasetOptions options;
  options.max_resident_bytes = 3 * ShardBytes(50, d, false, false);
  auto opened = ShardedDataset::Open(manifest, options);
  ASSERT_TRUE(opened.ok());
  ShardedDataset sharded = std::move(opened).ValueOrDie();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  // Reader: every monotonic counter must be non-negative and
  // non-decreasing across successive snapshots — a torn 64-bit read
  // would violate both immediately.
  std::thread reader([&] {
    ShardedDataset::IoStats last;
    while (!stop.load(std::memory_order_relaxed)) {
      ShardedDataset::IoStats s = sharded.io_stats();
      if (s.maps < last.maps || s.evictions < last.evictions ||
          s.stall_nanos < last.stall_nanos || s.resident_bytes < 0 ||
          s.peak_resident_bytes < 0) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      last = s;
    }
  });

  // Writers: concurrent streamed passes (pins, maps, evictions).
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&, t] {
      for (int pass = 0; pass < 20; ++pass) {
        const int64_t begin = (t * 100) % n;
        ForEachBlock(sharded, begin, n, [](const DatasetView&) {});
      }
    });
  }
  for (auto& s : scanners) s.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_FALSE(failed.load());

  // Quiescent: every map is either still resident or was evicted, and
  // with no pin left the window holds.
  auto stats = sharded.io_stats();
  EXPECT_GT(stats.maps, 0);
  EXPECT_EQ(stats.resident_bytes,
            (stats.maps - stats.evictions) * ShardBytes(50, d, false, false));
  EXPECT_LE(stats.resident_bytes, options.max_resident_bytes);
}

TEST(ShardEquivalenceTest, MiniBatchBitwiseIdentical) {
  EquivalenceCase c = MakeEquivalence(16, "minibatch");
  Matrix seed = FirstKCenters(c.data, 6);
  MiniBatchOptions options;
  options.batch_size = 64;
  options.iterations = 10;
  auto mem = RunMiniBatch(c.data, seed, options, rng::MakeRootRng(5));
  auto shard =
      RunMiniBatch(*c.sharded, seed, options, rng::MakeRootRng(5));
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(shard.ok());
  EXPECT_TRUE(shard->centers == mem->centers);
  EXPECT_EQ(shard->final_cost, mem->final_cost);
}

}  // namespace
}  // namespace kmeansll
