// Tests for the binary dataset format (data/binary_io.h).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "data/binary_io.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "test_paths.h"

namespace kmeansll::data {
namespace {

std::string TempPath(const char* name) {
  return ScratchPath(name);
}

TEST(BinaryIoTest, RoundTripPlainPoints) {
  auto uniform = GenerateUniform(123, 7, -5.0, 5.0, rng::Rng(1));
  ASSERT_TRUE(uniform.ok());
  std::string path = TempPath("kmeansll_plain.bin");
  ASSERT_TRUE(WriteBinary(*uniform, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->points() == uniform->points());
  EXPECT_FALSE(loaded->has_weights());
  EXPECT_FALSE(loaded->has_labels());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripWeights) {
  Matrix points = Matrix::FromValues(3, 2, {1, 2, 3, 4, 5, 6});
  auto weighted = Dataset::WithWeights(points, {0.5, 2.0, 7.25});
  ASSERT_TRUE(weighted.ok());
  std::string path = TempPath("kmeansll_weighted.bin");
  ASSERT_TRUE(WriteBinary(*weighted, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_weights());
  EXPECT_EQ(loaded->weights(), weighted->weights());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripLabels) {
  auto gauss = GenerateGaussMixture({.n = 50, .k = 3, .dim = 4},
                                    rng::Rng(2));
  ASSERT_TRUE(gauss.ok());
  std::string path = TempPath("kmeansll_labeled.bin");
  ASSERT_TRUE(WriteBinary(gauss->data, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_labels());
  EXPECT_EQ(loaded->labels(), gauss->data.labels());
  EXPECT_TRUE(loaded->points() == gauss->data.points());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripWeightsAndLabels) {
  Matrix points = Matrix::FromValues(2, 1, {10, 20});
  auto both = Dataset::WithWeightsAndLabels(points, {1.5, 2.5}, {7, -1});
  ASSERT_TRUE(both.ok());
  std::string path = TempPath("kmeansll_both.bin");
  ASSERT_TRUE(WriteBinary(*both, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->weights(), both->weights());
  EXPECT_EQ(loaded->labels(), both->labels());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsMissingAndCorrupt) {
  EXPECT_TRUE(ReadBinary("/nonexistent/data.bin").status().IsIOError());
  std::string path = TempPath("kmeansll_garbage.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    fputs("definitely not a dataset", f);
    fclose(f);
  }
  EXPECT_TRUE(ReadBinary(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncated) {
  auto uniform = GenerateUniform(100, 5, 0.0, 1.0, rng::Rng(3));
  ASSERT_TRUE(uniform.ok());
  std::string path = TempPath("kmeansll_trunc.bin");
  ASSERT_TRUE(WriteBinary(*uniform, path).ok());
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_EQ(ftruncate(fileno(f), 64), 0);
    fclose(f);
  }
  EXPECT_TRUE(ReadBinary(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTrailingBytes) {
  auto uniform = GenerateUniform(40, 3, 0.0, 1.0, rng::Rng(5));
  ASSERT_TRUE(uniform.ok());
  std::string path = TempPath("kmeansll_trailing.bin");
  ASSERT_TRUE(WriteBinary(*uniform, path).ok());
  ASSERT_TRUE(ReadBinary(path).ok());
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fputc(0, f);
    fclose(f);
  }
  auto loaded = ReadBinary(path);
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(BinaryIoTest, PayloadCorruptionFailsTheCrc) {
  auto uniform = GenerateUniform(60, 4, -1.0, 1.0, rng::Rng(7));
  ASSERT_TRUE(uniform.ok());
  std::string path = TempPath("kmeansll_bitrot.bin");
  ASSERT_TRUE(WriteBinary(*uniform, path).ok());
  // Flip one payload byte (offset 32 is the first point coordinate —
  // past the header, so magic/version/shape checks all still pass).
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fseek(f, 32 + 17, SEEK_SET), 0);
    int c = fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(fseek(f, 32 + 17, SEEK_SET), 0);
    fputc(c ^ 0x01, f);
    fclose(f);
  }
  auto loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("payload CRC mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, Version1FilesWithoutCrcStayReadable) {
  auto uniform = GenerateUniform(40, 3, 0.0, 2.0, rng::Rng(11));
  ASSERT_TRUE(uniform.ok());
  std::string path = TempPath("kmeansll_v1.bin");
  ASSERT_TRUE(WriteBinary(*uniform, path).ok());
  // Rewrite the v2 file as the v1 layout it extends: version = 1 at
  // offset 8, payload-CRC flag (bit 2) cleared at offset 28, and the
  // trailing 4 checksum bytes dropped.
  {
    FILE* f = fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    int32_t version = 1;
    ASSERT_EQ(fseek(f, 8, SEEK_SET), 0);
    ASSERT_EQ(fwrite(&version, sizeof(version), 1, f), 1u);
    uint32_t flags = 0;
    ASSERT_EQ(fseek(f, 28, SEEK_SET), 0);
    ASSERT_EQ(fread(&flags, sizeof(flags), 1, f), 1u);
    flags &= ~(1u << 2);
    ASSERT_EQ(fseek(f, 28, SEEK_SET), 0);
    ASSERT_EQ(fwrite(&flags, sizeof(flags), 1, f), 1u);
    ASSERT_EQ(fseek(f, 0, SEEK_END), 0);
    long end = ftell(f);
    ASSERT_GT(end, 4);
    ASSERT_EQ(ftruncate(fileno(f), end - 4), 0);
    fclose(f);
  }
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->points() == uniform->points());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, HugeDeclaredShapeFailsBeforeAllocating) {
  // A 36-byte file whose header declares n = 2^30, d = 1024 (8 TiB of
  // points) and then ends: the declared payload is checked against the
  // file size before the matrix is allocated, so the read fails cleanly.
  std::string path = TempPath("kmeansll_huge_header.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const int32_t version = 2;
    const int64_t n = int64_t{1} << 30, d = 1024;
    const uint32_t flags = 1u << 2, crc = 0;
    fwrite("KMLLDATA", 1, 8, f);
    fwrite(&version, sizeof(version), 1, f);
    fwrite(&n, sizeof(n), 1, f);
    fwrite(&d, sizeof(d), 1, f);
    fwrite(&flags, sizeof(flags), 1, f);
    fwrite(&crc, sizeof(crc), 1, f);
    fclose(f);
  }
  auto loaded = ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  std::remove(path.c_str());
}

TEST(DatasetBuilderTest, WithWeightsAndLabelsValidates) {
  Matrix points = Matrix::FromValues(2, 1, {1, 2});
  EXPECT_FALSE(
      Dataset::WithWeightsAndLabels(points, {1.0}, {0, 1}).ok());
  EXPECT_FALSE(
      Dataset::WithWeightsAndLabels(points, {1.0, 2.0}, {0}).ok());
  EXPECT_FALSE(
      Dataset::WithWeightsAndLabels(points, {1.0, -2.0}, {0, 1}).ok());
  auto ok = Dataset::WithWeightsAndLabels(points, {1.0, 2.0}, {0, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->has_weights());
  EXPECT_TRUE(ok->has_labels());
}

}  // namespace
}  // namespace kmeansll::data
