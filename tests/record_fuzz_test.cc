// Seeded corruption fuzzer for the six on-disk formats (KMLLDATA,
// KMLLSHRD, KMLLMODL, KMLLCKPT, KMLLOPLG, KMLLFRSH), in plain C++.
//
// For each format it takes valid artifacts written by the library and
// feeds the format's loader a fixed, seeded set of mutants:
//   * bit flips (1-4 random bits),
//   * truncation at every byte offset (so at every field boundary),
//   * every length and count field inflated up to 2^40 and beyond, both
//     raw and with the CRC re-computed so the size checks are reached
//     behind a valid checksum,
//   * spliced records (a prefix of one valid artifact joined to a suffix
//     of another).
// The property: each mutant either loads and validates, or returns a
// non-OK Status. None crashes; none hangs (SIGALRM's default action
// kills a stuck run); and, in builds without a sanitizer, no allocation
// made while loading is larger than the file itself plus a fixed slack
// for stream buffers and error messages — the loader never allocates in
// proportion to a corrupt length field. (Sanitizer runtimes own the
// allocator; there a huge request aborts the run instead.)

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

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
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/model_server.h"
#include "test_paths.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KMLL_FUZZ_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KMLL_FUZZ_SANITIZED 1
#endif
#if !defined(KMLL_FUZZ_SANITIZED) && defined(__GLIBC__)
#define KMLL_FUZZ_TRACK_ALLOCATIONS 1
#endif

namespace {

// Largest single allocation request made while a load is being watched.
std::atomic<bool> g_watching{false};
std::atomic<size_t> g_largest{0};

[[maybe_unused]] void NoteAllocation(size_t size) {
  if (!g_watching.load(std::memory_order_relaxed)) return;
  size_t prev = g_largest.load(std::memory_order_relaxed);
  while (size > prev && !g_largest.compare_exchange_weak(prev, size)) {
  }
}

}  // namespace

#if defined(KMLL_FUZZ_TRACK_ALLOCATIONS)
#if defined(__GNUC__) && !defined(__clang__)
// gcc inlines these replacements into std::allocator and then reports
// the free() in operator delete as mismatched with operator new
// (-Wmismatched-new-delete), although each operator new below
// malloc()s exactly what its operator delete free()s.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
// Every allocation path the loaders use: operator new (strings, vectors)
// and aligned_alloc (Matrix storage, aligned operator new).
extern "C" void* aligned_alloc(size_t alignment, size_t size) noexcept {
  NoteAllocation(size);
  void* p = nullptr;
  return posix_memalign(&p, alignment, size) == 0 ? p : nullptr;
}
void* operator new(size_t size) {
  NoteAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  NoteAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace kmeansll {
namespace {

// Stream buffers, paths, and error messages: allocations every load
// makes whatever the file says.
constexpr size_t kAllocationSlack = 64 * 1024;
// Wall-clock budget per format before SIGALRM kills a hung run.
constexpr unsigned kHangSeconds = 300;

std::string TempPath(const std::string& name) {
  return ScratchPath("kmll_fuzz_" + name);
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

/// A length or count field: its offset and width (4 or 8 bytes).
struct Field {
  size_t offset;
  size_t width;
};

/// How a format's CRC covers the file, for re-checksummed mutants.
enum class Crc {
  kNone,     // no checksum (KMLLSHRD; KMLLDATA v1)
  kTrailer,  // u32 trailer over every preceding byte
  kFrames,   // KMLLOPLG: each frame's leading u32 covers (len || body)
};

struct Target {
  std::string name;
  std::string path;  // where mutants are written
  std::vector<std::string> valid;  // at least two distinct artifacts
  std::vector<Field> fields;       // offsets into valid[0]
  Crc crc = Crc::kNone;
  /// Loads the file at `path` (of `size` bytes). A non-OK outcome is
  /// fine; an OK one must validate (checked with EXPECTs inside).
  std::function<void(size_t size)> load;
};

/// Re-computes the checksums a mutant's own bytes imply, so the parser
/// gets past the CRC to the structural checks behind it.
std::string Rechecksum(std::string bytes, Crc crc) {
  if (crc == Crc::kTrailer && bytes.size() >= 4) {
    const uint32_t sum = data::Crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &sum, sizeof(sum));
  } else if (crc == Crc::kFrames) {
    size_t at = 24;  // KMLLOPLG header
    while (at + 8 <= bytes.size()) {
      uint32_t len = 0;
      std::memcpy(&len, bytes.data() + at + 4, sizeof(len));
      if (len > bytes.size() - at - 8) break;
      const uint32_t sum = data::Crc32(bytes.data() + at + 4, 4 + size_t{len});
      std::memcpy(bytes.data() + at, &sum, sizeof(sum));
      at += 8 + size_t{len};
    }
  }
  return bytes;
}

/// Writes `bytes` as the target's file and loads it with the allocation
/// watch armed.
void LoadMutant(const Target& target, const std::string& bytes,
                const std::string& what) {
  SCOPED_TRACE(target.name + " " + what);
  WriteFile(target.path, bytes);
  g_largest.store(0);
  g_watching.store(true);
  target.load(bytes.size());
  g_watching.store(false);
#if defined(KMLL_FUZZ_TRACK_ALLOCATIONS)
  EXPECT_LE(g_largest.load(), bytes.size() + kAllocationSlack);
#endif
}

void Fuzz(const Target& target) {
  ASSERT_GE(target.valid.size(), 2u);
  for (const std::string& valid : target.valid) {
    // Mutants pick offsets modulo the size: an artifact that read back
    // empty (a wrong path) has none to pick.
    ASSERT_FALSE(valid.empty())
        << target.name << ": a valid artifact read back empty";
  }
  alarm(kHangSeconds);
  std::mt19937_64 rng(data::HashBytes(target.name.data(), target.name.size()));
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::string& base = target.valid[0];

  // The unmodified artifacts load.
  for (const std::string& valid : target.valid) {
    LoadMutant(target, valid, "valid");
  }

  // Bit flips.
  for (int m = 0; m < 160; ++m) {
    std::string bytes = base;
    const int flips = 1 + static_cast<int>(pick(4));
    for (int f = 0; f < flips; ++f) {
      bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
    }
    LoadMutant(target, bytes, "bit flip " + std::to_string(m));
  }

  // Truncation at every offset.
  for (size_t cut = 0; cut < base.size(); ++cut) {
    LoadMutant(target, base.substr(0, cut), "cut at " + std::to_string(cut));
  }

  // Inflated length and count fields.
  const int64_t wide[] = {-1, int64_t{1} << 8, int64_t{1} << 16,
                          int64_t{1} << 24, int64_t{1} << 31,
                          int64_t{1} << 32, int64_t{1} << 40,
                          int64_t{1} << 62, INT64_MAX};
  const int64_t narrow[] = {-1, 1 << 8, 1 << 16, 1 << 24, 1 << 30,
                            INT32_MAX};
  for (const Field& field : target.fields) {
    ASSERT_LE(field.offset + field.width, base.size()) << target.name;
    std::vector<int64_t> values;
    if (field.width == 8) {
      values.assign(std::begin(wide), std::end(wide));
    } else {
      values.assign(std::begin(narrow), std::end(narrow));
    }
    for (int64_t value : values) {
      std::string bytes = base;
      if (field.width == 8) {
        std::memcpy(bytes.data() + field.offset, &value, 8);
      } else {
        const auto v32 = static_cast<int32_t>(value);
        std::memcpy(bytes.data() + field.offset, &v32, 4);
      }
      const std::string what = "field @" + std::to_string(field.offset) +
                               " = " + std::to_string(value);
      LoadMutant(target, bytes, what);
      LoadMutant(target, Rechecksum(bytes, target.crc), what + " + crc");
    }
  }

  // Spliced records: a prefix of one artifact, a suffix of another.
  for (int m = 0; m < 64; ++m) {
    const std::string& a = target.valid[pick(target.valid.size())];
    const std::string& b = target.valid[pick(target.valid.size())];
    std::string bytes = a.substr(0, pick(a.size() + 1)) +
                        b.substr(pick(b.size() + 1));
    LoadMutant(target, bytes, "splice " + std::to_string(m));
    LoadMutant(target, Rechecksum(bytes, target.crc),
               "splice " + std::to_string(m) + " + crc");
  }
  alarm(0);
  std::remove(target.path.c_str());
}

Dataset SmallDataset(int64_t n, int64_t d, double offset) {
  Matrix points(n, d);
  std::vector<double> weights(static_cast<size_t>(n));
  std::vector<int32_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < d; ++j) points.At(i, j) = offset + i * d + j;
    weights[static_cast<size_t>(i)] = 1.0 + static_cast<double>(i % 3);
    labels[static_cast<size_t>(i)] = static_cast<int32_t>(i % 2);
  }
  auto dataset = Dataset::WithWeightsAndLabels(
      std::move(points), std::move(weights), std::move(labels));
  KMEANSLL_CHECK(dataset.ok());
  return std::move(dataset).ValueOrDie();
}

/// A loaded object must fit in the file it came from.
void ExpectFits(int64_t count, int64_t elem_bytes, size_t file_size) {
  const int64_t bytes = data::CheckedBytes(count, elem_bytes);
  EXPECT_GE(bytes, 0);
  EXPECT_LE(bytes, static_cast<int64_t>(file_size));
}

TEST(RecordFuzzTest, KmllData) {
  Target target;
  target.name = "KMLLDATA";
  target.path = TempPath("data.bin");
  for (int64_t n : {6, 4}) {
    ASSERT_TRUE(
        data::WriteBinary(SmallDataset(n, 3, 0.5 * n), target.path).ok());
    target.valid.push_back(ReadFile(target.path));
  }
  // version, n, d, flags.
  target.fields = {{8, 4}, {12, 8}, {20, 8}, {28, 4}};
  target.crc = Crc::kTrailer;
  target.load = [&target](size_t size) {
    auto loaded = data::ReadBinary(target.path);
    if (!loaded.ok()) return;
    ExpectFits(loaded->n() * loaded->dim(), 8, size);
  };
  Fuzz(target);
}

TEST(RecordFuzzTest, KmllDataShardAndShrdManifest) {
  // Mutate the manifest, then (with a valid manifest) the second shard;
  // a load is Open plus a full scan, which maps and CRC-checks shards.
  const std::string manifest = TempPath("shards.kml");
  const Dataset data = SmallDataset(9, 2, 1.0);
  auto written = data::WriteShards(data, manifest,
                                   data::ShardWriteOptions{.num_shards = 3});
  ASSERT_TRUE(written.ok()) << written.status();
  const std::string manifest_bytes = ReadFile(manifest);
  const std::string shard_path =
      ShardFilePath(manifest, written->shards[1].file);
  const std::string shard_bytes = ReadFile(shard_path);

  auto open_and_scan = [&manifest](size_t) {
    auto opened = data::ShardedDataset::Open(manifest);
    if (!opened.ok()) return;
    int64_t rows = 0;
    ForEachBlock(*opened, 0, opened->n(),
                 [&rows](const DatasetView& view) { rows += view.rows(); });
    EXPECT_EQ(rows, opened->n());
  };

  Target shrd;
  shrd.name = "KMLLSHRD";
  shrd.path = manifest;
  shrd.valid = {manifest_bytes};
  {
    auto other = data::WriteShards(
        data, TempPath("shards_b.kml"),
        data::ShardWriteOptions{.rows_per_shard = 2});
    ASSERT_TRUE(other.ok());
    shrd.valid.push_back(ReadFile(TempPath("shards_b.kml")));
  }
  // version, n, dim, flags, num_shards, shard 0 rows and name length.
  shrd.fields = {{8, 4}, {12, 8}, {20, 8}, {28, 4}, {32, 4}, {36, 8},
                 {44, 4}};
  shrd.load = open_and_scan;
  Fuzz(shrd);
  WriteFile(manifest, manifest_bytes);

  Target shard;
  shard.name = "KMLLDATA shard";
  shard.path = shard_path;
  shard.valid = {shard_bytes,
                 ReadFile(ShardFilePath(manifest, written->shards[0].file))};
  shard.fields = {{8, 4}, {12, 8}, {20, 8}, {28, 4}};
  shard.crc = Crc::kTrailer;
  shard.load = open_and_scan;
  Fuzz(shard);
  RemoveShardedDataset(manifest);
  RemoveShardedDataset(TempPath("shards_b.kml"));
}

TEST(RecordFuzzTest, KmllModl) {
  Target target;
  target.name = "KMLLMODL";
  target.path = TempPath("model.kmm");
  for (int64_t k : {3, 2}) {
    Matrix centers(k, 4);
    for (int64_t i = 0; i < centers.size(); ++i) {
      centers.data()[i] = static_cast<double>(i % 7) - 3.0;
    }
    data::ModelMetadata md;
    md.init_method = k == 3 ? "k-means||" : "random";
    md.seed = 99;
    ASSERT_TRUE(data::SaveModel(
                    data::MakeModelArtifact(std::move(centers), md),
                    target.path)
                    .ok());
    target.valid.push_back(ReadFile(target.path));
  }
  // version, k, d, flags, init_method length.
  target.fields = {{8, 4}, {12, 8}, {20, 8}, {28, 4}, {72, 4}};
  target.crc = Crc::kTrailer;
  target.load = [&target](size_t size) {
    auto loaded = data::LoadModel(target.path);
    if (!loaded.ok()) return;
    ExpectFits(loaded->centers.size(), 8, size);
    EXPECT_EQ(loaded->center_norms.size(),
              static_cast<size_t>(loaded->centers.rows()));
  };
  Fuzz(target);
}

TEST(RecordFuzzTest, KmllCkpt) {
  Target target;
  target.name = "KMLLCKPT";
  target.path = TempPath("train.ckpt");
  for (int64_t k : {3, 2}) {
    data::TrainingCheckpoint ckpt;
    ckpt.fingerprint = 7;
    ckpt.iteration = k;
    ckpt.centers = Matrix(k, 2);
    ckpt.prev_centers = Matrix(k, 2);
    for (int64_t i = 0; i < ckpt.centers.size(); ++i) {
      ckpt.centers.data()[i] = static_cast<double>(i);
      ckpt.prev_centers.data()[i] = static_cast<double>(-i);
    }
    ckpt.cost_history = {5.0, 4.0, 3.5};
    ASSERT_TRUE(data::SaveCheckpoint(ckpt, target.path).ok());
    target.valid.push_back(ReadFile(target.path));
  }
  // version, phase, k, d, prev_k, history_len.
  target.fields = {{8, 4}, {12, 4}, {48, 8}, {56, 8}, {64, 8}, {72, 8}};
  target.crc = Crc::kTrailer;
  target.load = [&target](size_t size) {
    auto loaded = data::LoadCheckpoint(target.path);
    if (!loaded.ok()) return;
    ExpectFits(loaded->centers.size() + loaded->prev_centers.size() +
                   static_cast<int64_t>(loaded->cost_history.size()),
               8, size);
  };
  Fuzz(target);
}

TEST(RecordFuzzTest, KmllOplg) {
  Target target;
  target.name = "KMLLOPLG";
  target.path = TempPath("ingest.oplog");
  data::OpLogOptions options;
  options.has_weights = true;
  for (int64_t rows : {2, 3}) {
    std::remove(target.path.c_str());
    auto log = data::OpLog::Create(target.path, 2, options);
    ASSERT_TRUE(log.ok()) << log.status();
    int64_t first_row = 0;
    for (int r = 0; r < 3; ++r) {
      std::vector<double> points(static_cast<size_t>(rows * 2), 1.0 + r);
      std::vector<double> weights(static_cast<size_t>(rows), 0.5);
      ASSERT_TRUE(
          log->Append(first_row, rows, points.data(), weights.data()).ok());
      first_row += rows;
    }
    ASSERT_TRUE(log->Sync().ok());
    target.valid.push_back(ReadFile(target.path));
  }
  // version, dim, flags, then the first frame's len, first_row, rows.
  target.fields = {{8, 4}, {12, 8}, {20, 4}, {28, 4}, {32, 8}, {40, 8}};
  target.crc = Crc::kFrames;
  target.load = [&target, options](size_t size) {
    auto log = data::OpLog::Open(target.path, 2, options);
    if (!log.ok()) return;
    ExpectFits(log->stats().recovered_rows, 3 * 8, size);
    int64_t replayed = 0;
    Status st = log->Replay(0, [&](int64_t, int64_t rows, const double*,
                                   const double*) {
      replayed += rows;
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_EQ(replayed, log->stats().recovered_rows);
  };
  Fuzz(target);
}

TEST(RecordFuzzTest, KmllFrsh) {
  fault::FaultInjector::Global().Reset();
  const Dataset data = SmallDataset(16, 2, 0.0);
  const Dataset more = SmallDataset(24, 2, 0.0);
  const InMemorySource source = data.AsSource();
  const Matrix initial = Matrix::FromValues(2, 2, {1, 1, 20, 20});
  serving::RefineLoopOptions options;
  options.minibatch.batch_size = 8;
  options.minibatch.iterations = 2;

  Target target;
  target.name = "KMLLFRSH";
  target.path = TempPath("loop.frsh");
  options.checkpoint_path = target.path;
  // Two artifacts of the same dimension (so both match the loader's
  // fingerprint): one cycle over 16 rows, one over 24.
  for (const Dataset* rows : {&data, &more}) {
    (void)RemoveFileIfExists(target.path);
    const InMemorySource cycle_source = rows->AsSource();
    serving::ModelServer server(serving::CenterIndex::Build(initial));
    serving::RefineLoop loop(&server, &cycle_source, options);
    ASSERT_TRUE(loop.RunOnce().ok());
    target.valid.push_back(ReadFile(target.path));
  }
  // version, k, d, history_len.
  target.fields = {{8, 4}, {44, 8}, {52, 8}, {60, 8}};
  target.crc = Crc::kTrailer;
  target.load = [&](size_t size) {
    serving::ModelServer server(serving::CenterIndex::Build(initial));
    serving::RefineLoop loop(&server, &source, options);
    // A corrupt or foreign checkpoint is ignored, never an error.
    Status st = loop.Recover();
    EXPECT_TRUE(st.ok()) << st;
    if (loop.stats().recoveries == 1) {
      ExpectFits(server.Acquire()->centers().size(), 8, size);
    }
  };
  Fuzz(target);
}

}  // namespace
}  // namespace kmeansll
