// Scratch-file paths for the test suites. ::testing::TempDir() is
// TEST_TMPDIR when that is set, with or without a trailing separator, so
// names are joined as paths rather than appended as strings.

#ifndef KMEANSLL_TESTS_TEST_PATHS_H_
#define KMEANSLL_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace kmeansll {

/// `name` inside the test scratch directory.
inline std::string ScratchPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Name prefix of this process's scratch files: unique per process, so
/// concurrent runs of a suite never map (or truncate) each other's files.
inline std::string ScratchPrefix() {
  return "kmll_" + std::to_string(::getpid()) + "_";
}

/// `name` inside the test scratch directory, under this process's prefix.
inline std::string TempPath(const std::string& name) {
  return ScratchPath(ScratchPrefix() + name);
}

/// Deletes this process's scratch files (manifests, shards, oplogs,
/// checkpoints: every TempPath name and the names derived from it)
/// after the last test. A suite that writes through TempPath registers
/// it once:
///
///   [[maybe_unused]] ::testing::Environment* const kRemoveScratchFiles =
///       ::testing::AddGlobalTestEnvironment(new RemoveScratchFiles);
class RemoveScratchFiles : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(::testing::TempDir(), ec)) {
      if (entry.path().filename().string().starts_with(ScratchPrefix())) {
        std::filesystem::remove_all(entry.path(), ec);
      }
    }
  }
};

/// A shard file that a KMLLSHRD manifest names: shard names are
/// relative to the manifest's directory.
inline std::string ShardFilePath(const std::string& manifest_path,
                                 const std::string& file) {
  return (std::filesystem::path(manifest_path).parent_path() / file)
      .string();
}

}  // namespace kmeansll

#endif  // KMEANSLL_TESTS_TEST_PATHS_H_
