// Scratch-file paths for the test suites. ::testing::TempDir() is
// TEST_TMPDIR when that is set, with or without a trailing separator, so
// names are joined as paths rather than appended as strings.

#ifndef KMEANSLL_TESTS_TEST_PATHS_H_
#define KMEANSLL_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace kmeansll {

/// `name` inside the test scratch directory.
inline std::string ScratchPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A shard file that a KMLLSHRD manifest names: shard names are
/// relative to the manifest's directory.
inline std::string ShardFilePath(const std::string& manifest_path,
                                 const std::string& file) {
  return (std::filesystem::path(manifest_path).parent_path() / file)
      .string();
}

}  // namespace kmeansll

#endif  // KMEANSLL_TESTS_TEST_PATHS_H_
