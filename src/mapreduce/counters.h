// Named counters, mirroring Hadoop job counters. Algorithms running on
// the MapReduce engine report passes over the data, records read, bytes
// shuffled, etc.; the cluster simulator consumes these to model wall-clock
// time on an m-machine cluster (docs/ARCHITECTURE.md, "Execution
// engines").

#ifndef KMEANSLL_MAPREDUCE_COUNTERS_H_
#define KMEANSLL_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kmeansll::mapreduce {

/// Thread-safe map from counter name to int64 value.
class Counters {
 public:
  Counters() = default;
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other) {
    if (this != &other) {
      auto snap = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      values_ = std::move(snap);
    }
    return *this;
  }

  /// Adds `delta` to `name` (creating it at zero).
  void Add(const std::string& name, int64_t delta) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name] += delta;
  }

  /// Current value of `name` (0 if never touched).
  int64_t Get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  /// Adds every counter of `other` into this.
  void Merge(const Counters& other) {
    auto snap = other.Snapshot();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : snap) values_[name] += value;
  }

  /// Name-sorted copy of all counters.
  std::map<std::string, int64_t> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    values_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> values_;
};

/// Canonical counter names used across the engine and algorithms.
inline constexpr char kCounterMapTasks[] = "map_tasks";
inline constexpr char kCounterMapInputRecords[] = "map_input_records";
inline constexpr char kCounterMapOutputPairs[] = "map_output_pairs";
inline constexpr char kCounterCombineOutputPairs[] = "combine_output_pairs";
inline constexpr char kCounterReduceGroups[] = "reduce_groups";
inline constexpr char kCounterJobs[] = "jobs";
inline constexpr char kCounterDataPasses[] = "data_passes";
inline constexpr char kCounterTaskRetries[] = "map_task_retries";
inline constexpr char kCounterTaskFailures[] = "map_task_failures";

}  // namespace kmeansll::mapreduce

#endif  // KMEANSLL_MAPREDUCE_COUNTERS_H_
