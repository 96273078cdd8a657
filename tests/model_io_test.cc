// KMLLMODL artifact tests: lossless round-trip of centers + norms +
// metadata, and the eager-validation failure paths — corrupt magic,
// unsupported version, truncation at every section, dim/k mismatch
// against the actual payload, CRC mismatch, and semantic checks a valid
// CRC cannot catch (tampered-then-re-checksummed norms, non-finite
// coordinates).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/kmeans.h"
#include "data/model_io.h"
#include "data/record_io.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll {
namespace {

using data::Crc32;
using data::LoadModel;
using data::MakeModelArtifact;
using data::ModelArtifact;
using data::ModelMetadata;
using data::SaveModel;

Matrix RandomCenters(int64_t k, int64_t d, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(k, d);
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < d; ++j) m.At(i, j) = rng.NextGaussian();
  }
  return m;
}

std::string TempPath(const std::string& name) {
  return ScratchPath(name);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

ModelArtifact MakeTestArtifact(int64_t k = 6, int64_t d = 17) {
  ModelMetadata md;
  md.init_method = "k-means||";
  md.seed = 12345;
  md.lloyd_iterations = 42;
  md.trained_rows = 100000;
  md.seed_cost = 123.456;
  md.final_cost = 78.9;
  return MakeModelArtifact(RandomCenters(k, d, 771), std::move(md));
}

TEST(ModelArtifactTest, RoundTripIsLossless) {
  const std::string path = TempPath("model_roundtrip.kmm");
  ModelArtifact artifact = MakeTestArtifact();
  ASSERT_TRUE(SaveModel(artifact, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->centers == artifact.centers);
  ASSERT_EQ(loaded->center_norms.size(), artifact.center_norms.size());
  EXPECT_EQ(0, std::memcmp(loaded->center_norms.data(),
                           artifact.center_norms.data(),
                           artifact.center_norms.size() * sizeof(double)));
  EXPECT_EQ(loaded->metadata.init_method, "k-means||");
  EXPECT_EQ(loaded->metadata.seed, 12345u);
  EXPECT_EQ(loaded->metadata.lloyd_iterations, 42);
  EXPECT_EQ(loaded->metadata.trained_rows, 100000);
  EXPECT_EQ(loaded->metadata.seed_cost, 123.456);
  EXPECT_EQ(loaded->metadata.final_cost, 78.9);
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, SaveRejectsInconsistentNorms) {
  ModelArtifact artifact = MakeTestArtifact();
  artifact.center_norms.pop_back();
  EXPECT_TRUE(SaveModel(artifact, TempPath("model_bad.kmm"))
                  .IsInvalidArgument());
}

TEST(ModelArtifactTest, LoadRejectsMissingAndCorruptMagic) {
  EXPECT_TRUE(LoadModel("/nonexistent/dir/model.kmm")
                  .status()
                  .IsIOError());

  const std::string path = TempPath("model_magic.kmm");
  ASSERT_TRUE(SaveModel(MakeTestArtifact(), path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  auto loaded = LoadModel(path);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, LoadRejectsTruncationEverywhere) {
  const std::string path = TempPath("model_trunc.kmm");
  ASSERT_TRUE(SaveModel(MakeTestArtifact(), path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Cut inside the magic, the header, the metadata, the centers, the
  // norms, and the CRC trailer.
  for (size_t cut : {size_t{4}, size_t{20}, size_t{60}, bytes.size() / 2,
                     bytes.size() - 12, bytes.size() - 2}) {
    ASSERT_LT(cut, bytes.size());
    WriteFileBytes(path, bytes.substr(0, cut));
    auto loaded = LoadModel(path);
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, LoadRejectsShapeMismatchAgainstPayload) {
  const std::string path = TempPath("model_shape.kmm");
  ASSERT_TRUE(SaveModel(MakeTestArtifact(/*k=*/6, /*d=*/17), path).ok());
  std::string bytes = ReadFileBytes(path);

  // Declare one more center than the payload holds (k lives right after
  // magic + version). The declared shape then disagrees with the actual
  // payload size -> truncation error, CRC never even consulted.
  int64_t k = 7;
  std::memcpy(bytes.data() + 12, &k, sizeof(k));
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadModel(path).ok());

  // Declare one fewer: the surplus trailing bytes are rejected too.
  k = 5;
  std::memcpy(bytes.data() + 12, &k, sizeof(k));
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(LoadModel(path).ok());
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, LoadRejectsCrcMismatch) {
  const std::string path = TempPath("model_crc.kmm");
  ASSERT_TRUE(SaveModel(MakeTestArtifact(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one bit in the centers payload; sizes stay valid, CRC does not.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  WriteFileBytes(path, bytes);
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, LoadRejectsNormsInconsistentWithCenters) {
  const std::string path = TempPath("model_norms.kmm");
  ASSERT_TRUE(SaveModel(MakeTestArtifact(), path).ok());
  std::string bytes = ReadFileBytes(path);
  // Tamper with the last stored norm, then RE-CHECKSUM the file so the
  // CRC passes — only the semantic norms-vs-centers check can catch it.
  const size_t norm_off = bytes.size() - 4 - sizeof(double);
  double norm = 0.0;
  std::memcpy(&norm, bytes.data() + norm_off, sizeof(norm));
  norm += 1.0;
  std::memcpy(bytes.data() + norm_off, &norm, sizeof(norm));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  WriteFileBytes(path, bytes);
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("norm"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, CrcIsTheReferenceImplementation) {
  // Known-answer test (IEEE CRC-32 of "123456789" is 0xCBF43926), plus
  // the resumable-seed property SaveModel's single-pass writer relies on.
  const char* kBytes = "123456789";
  EXPECT_EQ(Crc32(kBytes, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(kBytes + 4, 5, Crc32(kBytes, 4)), 0xCBF43926u);
}

TEST(ModelArtifactTest, FitEmitsLoadableArtifact) {
  rng::Rng rng(99);
  Matrix points(200, 8);
  for (int64_t i = 0; i < points.rows(); ++i) {
    for (int64_t j = 0; j < points.cols(); ++j) {
      points.At(i, j) = rng.NextGaussian();
    }
  }
  Dataset dataset(std::move(points));

  const std::string path = TempPath("model_from_fit.kmm");
  KMeansConfig config;
  config.k = 5;
  config.lloyd.max_iterations = 5;
  config.model_output_path = path;
  auto report = KMeans(config).Fit(dataset);
  ASSERT_TRUE(report.ok()) << report.status();

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->centers == report->centers);
  EXPECT_EQ(loaded->metadata.init_method, "k-means||");
  EXPECT_EQ(loaded->metadata.trained_rows, 200);
  EXPECT_EQ(loaded->metadata.lloyd_iterations, report->lloyd_iterations);
  EXPECT_EQ(loaded->metadata.final_cost, report->final_cost);
  std::remove(path.c_str());
}

TEST(ModelArtifactTest, FitFailsWhenArtifactUnwritable) {
  rng::Rng rng(100);
  Matrix points(50, 4);
  for (int64_t i = 0; i < points.rows(); ++i) {
    for (int64_t j = 0; j < points.cols(); ++j) {
      points.At(i, j) = rng.NextGaussian();
    }
  }
  Dataset dataset(std::move(points));
  KMeansConfig config;
  config.k = 3;
  config.model_output_path = "/nonexistent/dir/model.kmm";
  EXPECT_TRUE(KMeans(config).Fit(dataset).status().IsIOError());
}

}  // namespace
}  // namespace kmeansll
