// Golden bytes for the six on-disk formats: KMLLDATA datasets and
// shards, KMLLSHRD manifests, KMLLMODL models, KMLLCKPT training
// checkpoints, the KMLLOPLG write-ahead log, and KMLLFRSH refine-loop
// checkpoints (docs/ARCHITECTURE.md "On-disk formats").
//
// Every expected file is assembled here from the documented layout with
// a bitwise reference CRC-32, never with the library's own encoders, so
// an encoder that drifts by one byte fails this suite. Inputs are exactly
// representable (integer-valued coordinates, hand-set metadata), so the
// bytes are the same under every compiler, sanitizer, and kernel build.
// The formats whose inputs are fully hand-set are also pinned by a
// literal 64-bit hash of the whole file. (A whole-file CRC-32 would not
// do: over a file that ends in its own CRC-32 it is a constant.)
// KMLLCKPT and KMLLFRSH are also written from inside training and the
// refine loop: there the expected file is built from the values the code
// reports, the loader must accept it, and the file the code wrote must
// equal it. Last, a sweep pins data::Crc32 itself (the PCLMULQDQ folding
// path and the table loop alike) to the bitwise reference over every
// length, alignment and resume split the folding could get wrong.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "clustering/lloyd.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "data/binary_io.h"
#include "data/checkpoint_io.h"
#include "data/model_io.h"
#include "data/oplog.h"
#include "data/record_io.h"
#include "data/shard_store.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"
#include "rng/splitmix64.h"
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/model_server.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultRule;

/// Bitwise CRC-32 (IEEE 802.3, reflected, init and final xor
/// 0xFFFFFFFF), resumable via `seed` like data::Crc32: the reference both
/// of the library's paths (PCLMULQDQ folding and the table loop) must
/// match.
uint32_t RefCrc32(const char* bytes, size_t size, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= static_cast<unsigned char>(bytes[i]);
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t RefCrc32(const std::string& bytes) {
  return RefCrc32(bytes.data(), bytes.size());
}

/// The literal pin of a golden file: FNV-1a 64 of its bytes.
uint64_t Pin(const std::string& bytes) {
  return data::HashBytes(bytes.data(), bytes.size());
}

/// Little-endian layout builder for the expected files.
class Layout {
 public:
  Layout& Magic(const char* tag) {
    bytes_.append(tag, 8);
    return *this;
  }
  template <typename T>
  Layout& Put(T value) {
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof(T));
    return *this;
  }
  template <typename T>
  Layout& Array(const T* values, size_t count) {
    bytes_.append(reinterpret_cast<const char*>(values), count * sizeof(T));
    return *this;
  }
  template <typename T>
  Layout& Array(const std::vector<T>& values) {
    return Array(values.data(), values.size());
  }
  Layout& Text(const std::string& text) {
    Put<int32_t>(static_cast<int32_t>(text.size()));
    bytes_.append(text);
    return *this;
  }
  /// Appends the CRC-32 of every byte so far.
  Layout& Crc() { return Put<uint32_t>(RefCrc32(bytes_)); }
  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

std::string TempPath(const std::string& name) {
  return ScratchPath("kmll_golden_" + name);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void RemoveShardedDataset(const std::string& manifest) {
  std::remove(manifest.c_str());
  for (int s = 0; s < 8; ++s) {
    std::remove((manifest + ".shard" + std::to_string(s)).c_str());
  }
}

/// Byte-level comparison with the first differing offset in the message.
void ExpectSameBytes(const std::string& got, const std::string& expected,
                     const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << what << ": first difference at byte "
                                   << i;
  }
}

// ---------------------------------------------------------------------------
// KMLLDATA
// ---------------------------------------------------------------------------

constexpr uint32_t kDataWeights = 1u << 0;
constexpr uint32_t kDataLabels = 1u << 1;
constexpr uint32_t kDataPayloadCrc = 1u << 2;

/// Four rows, d = 3, integer coordinates, weights and labels.
Dataset GoldenDataset() {
  Matrix points = Matrix::FromValues(
      4, 3, {1, 2, 3, -4, 5, -6, 7, 0, 9, 10, -11, 12});
  auto dataset = Dataset::WithWeightsAndLabels(
      std::move(points), {1.0, 2.0, 0.5, 4.0}, {0, 1, 1, -1});
  KMEANSLL_CHECK(dataset.ok());
  return std::move(dataset).ValueOrDie();
}

/// KMLLDATA v2 (v1 when `version` is 1: no payload-CRC flag or trailer)
/// of rows [begin, end): magic | i32 version | i64 n | i64 d | u32 flags
/// | f64 points[n*d] | f64 weights[n]? | i32 labels[n]? | u32 crc (v2).
std::string DataFile(const Dataset& data, int64_t begin, int64_t end,
                     int32_t version = 2) {
  const int64_t n = end - begin, d = data.dim();
  uint32_t flags = version >= 2 ? kDataPayloadCrc : 0;
  if (data.has_weights()) flags |= kDataWeights;
  if (data.has_labels()) flags |= kDataLabels;
  Layout out;
  out.Magic("KMLLDATA").Put<int32_t>(version).Put<int64_t>(n).Put<int64_t>(
      d).Put<uint32_t>(flags);
  out.Array(data.points().data() + begin * d, static_cast<size_t>(n * d));
  if (data.has_weights()) {
    out.Array(data.weights().data() + begin, static_cast<size_t>(n));
  }
  if (data.has_labels()) {
    out.Array(data.labels().data() + begin, static_cast<size_t>(n));
  }
  if (version >= 2) out.Crc();
  return out.bytes();
}

TEST(FormatGoldenTest, KmllDataBytes) {
  const Dataset data = GoldenDataset();
  const std::string path = TempPath("data.bin");
  ASSERT_TRUE(data::WriteBinary(data, path).ok());
  const std::string expected = DataFile(data, 0, data.n());
  ExpectSameBytes(ReadFile(path), expected, "WriteBinary");
  EXPECT_EQ(expected.size(), 32u + 4 * 3 * 8 + 4 * 8 + 4 * 4 + 4);
  EXPECT_EQ(Pin(expected), 17736171394938350183ull);

  ASSERT_TRUE(data::WriteBinaryRange(data, 1, 3, path).ok());
  ExpectSameBytes(ReadFile(path), DataFile(data, 1, 3), "WriteBinaryRange");

  WriteFile(path, expected);
  auto loaded = data::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->points() == data.points());
  EXPECT_EQ(loaded->weights(), data.weights());
  EXPECT_EQ(loaded->labels(), data.labels());
  std::remove(path.c_str());
}

TEST(FormatGoldenTest, KmllDataVersion1StillLoads) {
  const Dataset data = GoldenDataset();
  const std::string path = TempPath("data_v1.bin");
  WriteFile(path, DataFile(data, 0, data.n(), /*version=*/1));
  auto loaded = data::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->points() == data.points());
  EXPECT_EQ(loaded->weights(), data.weights());
  EXPECT_EQ(loaded->labels(), data.labels());
  std::remove(path.c_str());

  // A v1 shard inside a sharded dataset opens and serves its rows too.
  const std::string manifest = TempPath("v1shard.kml");
  auto written = data::WriteShards(data, manifest,
                                   data::ShardWriteOptions{.num_shards = 2});
  ASSERT_TRUE(written.ok()) << written.status();
  WriteFile(ShardFilePath(manifest, written->shards[0].file),
            DataFile(data, 0, written->shards[0].rows, /*version=*/1));
  auto sharded = data::ShardedDataset::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  PinnedBlock block = sharded->Pin(0, written->shards[0].rows);
  for (int64_t i = 0; i < block.view().rows(); ++i) {
    for (int64_t j = 0; j < data.dim(); ++j) {
      EXPECT_EQ(block.view().Point(i)[j], data.Point(i)[j]);
    }
    EXPECT_EQ(block.view().Weight(i), data.weights()[i]);
    EXPECT_EQ(block.view().Label(i), data.labels()[i]);
  }
  EXPECT_TRUE(sharded->status().ok());
  RemoveShardedDataset(manifest);
}

// ---------------------------------------------------------------------------
// KMLLSHRD
// ---------------------------------------------------------------------------

/// magic | i32 version=1 | i64 n | i64 dim | u32 flags | i32 num_shards
/// | per shard: i64 rows | i32 len | name[len]. No checksum.
std::string ManifestFile(const Dataset& data, const std::string& base,
                         const std::vector<int64_t>& rows) {
  uint32_t flags = 0;
  if (data.has_weights()) flags |= kDataWeights;
  if (data.has_labels()) flags |= kDataLabels;
  Layout out;
  out.Magic("KMLLSHRD").Put<int32_t>(1).Put<int64_t>(data.n()).Put<int64_t>(
      data.dim()).Put<uint32_t>(flags).Put<int32_t>(
      static_cast<int32_t>(rows.size()));
  for (size_t s = 0; s < rows.size(); ++s) {
    out.Put<int64_t>(rows[s]).Text(base + ".shard" + std::to_string(s));
  }
  return out.bytes();
}

TEST(FormatGoldenTest, KmllShrdBytesFromBothWriters) {
  const Dataset data = GoldenDataset();
  const std::string manifest = TempPath("shrd.kml");
  const std::string base = "kmll_golden_shrd.kml";
  const std::string expected = ManifestFile(data, base, {3, 1});
  EXPECT_EQ(Pin(expected), 10759660161227806298ull);

  auto check_files = [&](const char* writer) {
    ExpectSameBytes(ReadFile(manifest), expected, writer);
    ExpectSameBytes(ReadFile(manifest + ".shard0"), DataFile(data, 0, 3),
                    std::string(writer) + " shard0");
    ExpectSameBytes(ReadFile(manifest + ".shard1"), DataFile(data, 3, 4),
                    std::string(writer) + " shard1");
  };

  auto written = data::WriteShards(
      data, manifest, data::ShardWriteOptions{.rows_per_shard = 3});
  ASSERT_TRUE(written.ok()) << written.status();
  check_files("WriteShards");

  for (const char* suffix : {"", ".shard0", ".shard1"}) {
    std::remove((manifest + suffix).c_str());
  }
  auto writer = data::ShardWriter::Open(
      manifest, data.dim(),
      {.rows_per_shard = 3, .has_weights = true, .has_labels = true});
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->AppendRange(data.AsSource(), 0, data.n()).ok());
  ASSERT_TRUE(writer->Finalize().ok());
  check_files("ShardWriter");

  WriteFile(manifest, expected);
  auto read = data::ReadShardManifest(manifest);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->n, 4);
  EXPECT_EQ(read->dim, 3);
  ASSERT_EQ(read->shards.size(), 2u);
  EXPECT_EQ(read->shards[1].first_row, 3);
  EXPECT_EQ(read->shards[1].file, base + ".shard1");
  RemoveShardedDataset(manifest);
}

// ---------------------------------------------------------------------------
// KMLLMODL
// ---------------------------------------------------------------------------

TEST(FormatGoldenTest, KmllModlBytes) {
  data::ModelMetadata md;
  md.init_method = "k-means||";
  md.seed = 0x0123456789ABCDEFull;
  md.lloyd_iterations = 7;
  md.trained_rows = 1000;
  md.seed_cost = 12.5;
  md.final_cost = 3.25;
  data::ModelArtifact artifact = data::MakeModelArtifact(
      Matrix::FromValues(2, 3, {1, 2, 3, -4, 0, 2}), md);
  const std::string path = TempPath("model.kmm");
  ASSERT_TRUE(data::SaveModel(artifact, path).ok());

  // magic | i32 version=2 | i64 k | i64 d | u32 flags=0 | u64 seed
  // | i64 lloyd_iterations | i64 trained_rows | f64 seed_cost
  // | f64 final_cost | i32 len + init_method | f64 centers[k*d]
  // | f64 norms[k] | u32 crc.
  Layout expected;
  expected.Magic("KMLLMODL").Put<int32_t>(2).Put<int64_t>(2).Put<int64_t>(3)
      .Put<uint32_t>(0).Put<uint64_t>(md.seed).Put<int64_t>(7)
      .Put<int64_t>(1000).Put<double>(12.5).Put<double>(3.25)
      .Text("k-means||");
  const std::vector<double> centers = {1, 2, 3, -4, 0, 2};
  expected.Array(centers).Array(std::vector<double>{14, 20}).Crc();
  ExpectSameBytes(ReadFile(path), expected.bytes(), "SaveModel");
  EXPECT_EQ(Pin(expected.bytes()), 1889270413053034100ull);

  WriteFile(path, expected.bytes());
  auto loaded = data::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->centers == artifact.centers);
  EXPECT_EQ(loaded->center_norms, (std::vector<double>{14, 20}));
  EXPECT_EQ(loaded->metadata.init_method, "k-means||");
  EXPECT_EQ(loaded->metadata.seed, md.seed);
  EXPECT_EQ(loaded->metadata.final_cost, 3.25);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// KMLLCKPT
// ---------------------------------------------------------------------------

/// magic | i32 version=1 | i32 phase | u64 fingerprint | i64 iteration
/// | i64 repairs | i64 data_passes | i64 k | i64 d | i64 prev_k
/// | i64 history_len | f64 centers | f64 prev_centers | f64 history | crc.
std::string CheckpointFile(const data::TrainingCheckpoint& c) {
  Layout out;
  out.Magic("KMLLCKPT").Put<int32_t>(1)
      .Put<int32_t>(static_cast<int32_t>(c.phase))
      .Put<uint64_t>(c.fingerprint).Put<int64_t>(c.iteration)
      .Put<int64_t>(c.empty_cluster_repairs).Put<int64_t>(c.data_passes)
      .Put<int64_t>(c.centers.rows()).Put<int64_t>(c.centers.cols())
      .Put<int64_t>(c.prev_centers.rows())
      .Put<int64_t>(static_cast<int64_t>(c.cost_history.size()));
  out.Array(c.centers.data(), static_cast<size_t>(c.centers.size()));
  out.Array(c.prev_centers.data(),
            static_cast<size_t>(c.prev_centers.size()));
  out.Array(c.cost_history).Crc();
  return out.bytes();
}

TEST(FormatGoldenTest, KmllCkptBytes) {
  data::TrainingCheckpoint lloyd;
  lloyd.phase = data::TrainingCheckpoint::Phase::kLloyd;
  lloyd.fingerprint = 0xFEDCBA9876543210ull;
  lloyd.iteration = 3;
  lloyd.centers = Matrix::FromValues(2, 2, {1, 2, 3, 4});
  lloyd.prev_centers = Matrix::FromValues(2, 2, {0, 2, 4, 4});
  lloyd.cost_history = {8.0, 2.5, 1.0};
  lloyd.empty_cluster_repairs = 1;

  data::TrainingCheckpoint seeding;
  seeding.phase = data::TrainingCheckpoint::Phase::kSeeding;
  seeding.fingerprint = 42;
  seeding.iteration = 2;
  seeding.centers = Matrix::FromValues(3, 1, {-1, 0, 5});
  seeding.cost_history = {100.0, 40.0};
  seeding.data_passes = 5;

  const std::string path = TempPath("train.ckpt");
  const uint64_t pins[] = {11018431608811585264ull,
                           17005032762491581165ull};
  const data::TrainingCheckpoint* cases[] = {&lloyd, &seeding};
  for (int i = 0; i < 2; ++i) {
    const data::TrainingCheckpoint& c = *cases[i];
    ASSERT_TRUE(data::SaveCheckpoint(c, path).ok());
    const std::string expected = CheckpointFile(c);
    ExpectSameBytes(ReadFile(path), expected, "SaveCheckpoint");
    EXPECT_EQ(Pin(expected), pins[i]) << "case " << i;

    WriteFile(path, expected);
    auto loaded = data::LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->phase, c.phase);
    EXPECT_EQ(loaded->fingerprint, c.fingerprint);
    EXPECT_EQ(loaded->iteration, c.iteration);
    EXPECT_TRUE(loaded->centers == c.centers);
    EXPECT_TRUE(loaded->prev_centers == c.prev_centers);
    EXPECT_EQ(loaded->cost_history, c.cost_history);
    EXPECT_EQ(loaded->empty_cluster_repairs, c.empty_cluster_repairs);
    EXPECT_EQ(loaded->data_passes, c.data_passes);
  }
  std::remove(path.c_str());
}

TEST(FormatGoldenTest, KmllCkptWrittenByLloyd) {
#if !KMEANSLL_FAULT_INJECTION
  GTEST_SKIP() << "needs the lloyd.kill fault site to stop after a save";
#endif
  FaultInjector::Global().Reset();
  Matrix points(12, 2);
  for (int64_t i = 0; i < points.rows(); ++i) {
    points.At(i, 0) = static_cast<double>((i % 3) * 10 + i % 2);
    points.At(i, 1) = static_cast<double>((i % 3) * -5 + i / 6);
  }
  const Dataset data(std::move(points));
  const Matrix initial = Matrix::FromValues(3, 2, {0, 0, 1, 1, 2, 2});

  // What one Lloyd iteration reports: the centers and cost history the
  // checkpoint after iteration 1 must carry.
  LloydOptions one;
  one.max_iterations = 1;
  one.track_history = true;
  auto reported = RunLloyd(data, initial, one);
  ASSERT_TRUE(reported.ok()) << reported.status();
  ASSERT_EQ(reported->iterations, 1);

  // The same run, killed right after its first durable checkpoint.
  LloydOptions ckpt = one;
  ckpt.max_iterations = 10;
  ckpt.checkpoint_path = TempPath("lloyd.ckpt");
  ckpt.checkpoint_every = 1;
  (void)RemoveFileIfExists(ckpt.checkpoint_path);
  FaultInjector::Global().Arm(
      "lloyd.kill", FaultRule{.kind = FaultKind::kWriteFail, .nth_call = 1});
  EXPECT_FALSE(RunLloyd(data, initial, ckpt).ok());
  FaultInjector::Global().Reset();
  const std::string written = ReadFile(ckpt.checkpoint_path);

  // The fingerprint is the trainer's job hash, not a reported value;
  // everything else comes from the one-iteration run.
  auto loaded = data::LoadCheckpoint(ckpt.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  data::TrainingCheckpoint expected;
  expected.phase = data::TrainingCheckpoint::Phase::kLloyd;
  expected.fingerprint = loaded->fingerprint;
  expected.iteration = 1;
  expected.centers = reported->centers;
  expected.prev_centers = initial;
  expected.cost_history = reported->cost_history;
  expected.empty_cluster_repairs = reported->empty_cluster_repairs;
  ExpectSameBytes(written, CheckpointFile(expected), "Lloyd checkpoint");
  (void)RemoveFileIfExists(ckpt.checkpoint_path);
}

// ---------------------------------------------------------------------------
// KMLLOPLG
// ---------------------------------------------------------------------------

/// header: magic | i32 version=1 | i64 dim | u32 flags (bit 0 weights).
/// record: u32 crc | u32 len | i64 first_row | i64 rows | f64 points
/// [| f64 weights], crc over (len || body).
class OplogFile {
 public:
  OplogFile(int64_t dim, bool weights) {
    header_.Magic("KMLLOPLG").Put<int32_t>(1).Put<int64_t>(dim).Put<uint32_t>(
        weights ? 1u : 0u);
    bytes_ = header_.bytes();
  }
  void Record(int64_t first_row, int64_t rows,
              const std::vector<double>& points,
              const std::vector<double>& weights) {
    Layout body;
    body.Put<int64_t>(first_row).Put<int64_t>(rows).Array(points).Array(
        weights);
    Layout covered;
    covered.Put<uint32_t>(static_cast<uint32_t>(body.bytes().size()));
    std::string covered_bytes = covered.bytes() + body.bytes();
    Layout crc;
    crc.Put<uint32_t>(RefCrc32(covered_bytes));
    bytes_ += crc.bytes() + covered_bytes;
  }
  const std::string& bytes() const { return bytes_; }

 private:
  Layout header_;
  std::string bytes_;
};

TEST(FormatGoldenTest, KmllOplgBytes) {
  FaultInjector::Global().Reset();
  const std::string path = TempPath("ingest.oplog");
  std::remove(path.c_str());
  const std::vector<double> p0 = {1, 2, 3, 4}, w0 = {1, 0.5};
  const std::vector<double> p1 = {-7, 8}, w1 = {3};

  data::OpLogOptions options;
  options.has_weights = true;
  {
    auto log = data::OpLog::Create(path, /*dim=*/2, options);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE(log->Append(0, 2, p0.data(), w0.data()).ok());
    ASSERT_TRUE(log->Append(2, 1, p1.data(), w1.data()).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  OplogFile expected(2, /*weights=*/true);
  expected.Record(0, 2, p0, w0);
  expected.Record(2, 1, p1, w1);
  ExpectSameBytes(ReadFile(path), expected.bytes(), "OpLog::Append");
  EXPECT_EQ(Pin(expected.bytes()), 914684813580863381ull);

  // Open's scan keeps every record; Replay serves them back.
  WriteFile(path, expected.bytes());
  auto reopened = data::OpLog::Open(path, 2, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->stats().recovered_records, 2);
  EXPECT_EQ(reopened->stats().torn_bytes, 0);
  std::vector<double> replayed;
  ASSERT_TRUE(reopened
                  ->Replay(0,
                           [&](int64_t, int64_t rows, const double* points,
                               const double* weights) {
                             replayed.insert(replayed.end(), points,
                                             points + rows * 2);
                             replayed.insert(replayed.end(), weights,
                                             weights + rows);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(replayed, (std::vector<double>{1, 2, 3, 4, 1, 0.5, -7, 8, 3}));

  // Compact keeps the surviving frames verbatim behind the header.
  ASSERT_TRUE(reopened->Compact(/*min_first_row=*/2).ok());
  OplogFile compacted(2, /*weights=*/true);
  compacted.Record(2, 1, p1, w1);
  ExpectSameBytes(ReadFile(path), compacted.bytes(), "OpLog::Compact");

  // A weight-less log has flags 0 and no weight section.
  std::remove(path.c_str());
  {
    auto log = data::OpLog::Create(path, 2, data::OpLogOptions{});
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(5, 2, p0.data(), nullptr).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  OplogFile plain(2, /*weights=*/false);
  plain.Record(5, 2, p0, {});
  ExpectSameBytes(ReadFile(path), plain.bytes(), "weight-less OpLog");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// KMLLFRSH
// ---------------------------------------------------------------------------

/// magic | i32 version=1 | u64 fingerprint | i64 cycle | i64 watermark
/// | f64 ewma | i64 k | i64 d | i64 history_len | f64 centers[k*d]
/// | f64 history | u32 crc.
std::string FreshnessFile(uint64_t fingerprint, int64_t cycle,
                          int64_t watermark, double ewma,
                          const Matrix& centers,
                          const std::vector<double>& history) {
  Layout out;
  out.Magic("KMLLFRSH").Put<int32_t>(1).Put<uint64_t>(fingerprint)
      .Put<int64_t>(cycle).Put<int64_t>(watermark).Put<double>(ewma)
      .Put<int64_t>(centers.rows()).Put<int64_t>(centers.cols())
      .Put<int64_t>(static_cast<int64_t>(history.size()));
  out.Array(centers.data(), static_cast<size_t>(centers.size()));
  out.Array(history).Crc();
  return out.bytes();
}

TEST(FormatGoldenTest, KmllFrshWrittenByRefineLoop) {
  FaultInjector::Global().Reset();
  Matrix points(16, 2);
  for (int64_t i = 0; i < points.rows(); ++i) {
    points.At(i, 0) = static_cast<double>((i % 2) * 8 + i % 3);
    points.At(i, 1) = static_cast<double>((i % 2) * 8 - i % 4);
  }
  const Dataset data(std::move(points));
  const InMemorySource source = data.AsSource();
  const Matrix initial = Matrix::FromValues(2, 2, {1, 1, 6, 6});

  serving::RefineLoopOptions options;
  options.seed = 0xF00D;
  options.minibatch.batch_size = 8;
  options.minibatch.iterations = 3;
  options.checkpoint_path = TempPath("loop.frsh");
  (void)RemoveFileIfExists(options.checkpoint_path);

  serving::ModelServer server(serving::CenterIndex::Build(initial));
  serving::RefineLoop loop(&server, &source, options);
  ASSERT_TRUE(loop.RunOnce().ok());
  const serving::RefineStats stats = loop.stats();
  ASSERT_EQ(stats.cycles, 1);
  const Matrix served = server.Acquire()->centers();
  const std::string expected = FreshnessFile(
      rng::HashCombine(options.seed, static_cast<uint64_t>(data.dim())),
      stats.cycles, stats.watermark, stats.ewma_cost_per_point, served,
      loop.cost_history());
  ExpectSameBytes(ReadFile(options.checkpoint_path), expected,
                  "RefineLoop checkpoint");

  // The loader accepts the layout-built file: a fresh loop recovers it.
  WriteFile(options.checkpoint_path, expected);
  serving::ModelServer restarted(serving::CenterIndex::Build(initial));
  serving::RefineLoop recovered(&restarted, &source, options);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.stats().recoveries, 1);
  EXPECT_EQ(recovered.stats().watermark, stats.watermark);
  EXPECT_EQ(recovered.cost_history(), loop.cost_history());
  EXPECT_TRUE(restarted.Acquire()->centers() == served);
  (void)RemoveFileIfExists(options.checkpoint_path);
}

// ---------------------------------------------------------------------------
// The CRC-32 kernel behind every checksum above
// ---------------------------------------------------------------------------

/// `size` pseudo-random bytes.
std::vector<char> NoiseBytes(size_t size, uint64_t seed) {
  std::vector<char> bytes(size);
  uint64_t state = seed;
  for (size_t i = 0; i < size; i += sizeof(uint64_t)) {
    const uint64_t word = rng::SplitMix64Next(&state);
    std::memcpy(bytes.data() + i, &word,
                std::min(sizeof(word), size - i));
  }
  return bytes;
}

TEST(Crc32KernelTest, EveryLengthAndAlignmentMatchesReference) {
  // Lengths 0-1024 cross the 64-byte folding threshold, every count of
  // 64-byte steps and 16-byte folds up to 16, and every tail size; each
  // start offset 0-63 moves the 16-byte loads across a cache line.
  std::printf("[ dispatch ] crc32: %s\n", data::Crc32Kernel());
  const std::vector<char> bytes = NoiseBytes(64 + 1024, 0xC5C5);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t size = 0; size <= 1024; ++size) {
      const auto seed = static_cast<uint32_t>(
          rng::HashCombine(offset, size) | 1u);
      const char* at = bytes.data() + offset;
      ASSERT_EQ(data::Crc32(at, size, seed), RefCrc32(at, size, seed))
          << "offset " << offset << ", " << size << " bytes";
    }
  }
}

TEST(Crc32KernelTest, ResumedCallsMatchAtEverySplit) {
  // A streamed record folds its CRC piece by piece (RecordWriter,
  // RecordReader). Splitting at every point puts one, both or neither
  // piece over the 64-byte threshold, with every tail size on each side.
  const std::vector<char> bytes = NoiseBytes(300 + 7, 0x5EED);
  const char* base = bytes.data() + 7;  // off the 16-byte grid
  for (size_t size = 0; size <= 300; ++size) {
    for (uint32_t seed : {0u, 0x9E3779B9u}) {
      const uint32_t whole = RefCrc32(base, size, seed);
      for (size_t split = 0; split <= size; ++split) {
        ASSERT_EQ(data::Crc32(base + split, size - split,
                              data::Crc32(base, split, seed)),
                  whole)
            << size << " bytes split at " << split << ", seed " << seed;
      }
    }
  }
}

TEST(Crc32KernelTest, SixtyFourMiBBufferMatchesReference) {
  // The whole train_sharded dataset's size: millions of 64-byte steps
  // through one folding chain.
  const std::vector<char> bytes = NoiseBytes(size_t{64} << 20, 0xB16);
  EXPECT_EQ(data::Crc32(bytes.data(), bytes.size(), 0x12345678u),
            RefCrc32(bytes.data(), bytes.size(), 0x12345678u));
}

}  // namespace
}  // namespace kmeansll
