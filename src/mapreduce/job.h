// A typed, in-memory MapReduce engine.
//
// Semantics mirror Hadoop's:
//   map:      (partition_id, Input) -> list of (K, V)
//   combine:  associative V ⊕ V, applied per map task (optional)
//   shuffle:  group by key, deterministic key order (std::map)
//   reduce:   (K, [V]) -> Out, one group per reduce call
//
// The engine executes map tasks and reduce groups on a ThreadPool, but its
// output is bit-identical for any thread count: map tasks are submitted
// in task order, per-task emissions are collected separately and folded
// in task order, and reduce outputs are emitted in key order.
//
// This is the substrate on which the parallel k-means|| of paper §3.5
// runs (cost job, sampling job, weight job, Lloyd job — see
// clustering/mapreduce_kmeans.h).

#ifndef KMEANSLL_MAPREDUCE_JOB_H_
#define KMEANSLL_MAPREDUCE_JOB_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/status.h"
#include "mapreduce/counters.h"
#include "parallel/thread_pool.h"

namespace kmeansll::mapreduce {

/// Collects (key, value) pairs emitted by one map task.
template <typename K, typename V>
class Emitter {
 public:
  void Emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  std::vector<std::pair<K, V>>& pairs() { return pairs_; }
  const std::vector<std::pair<K, V>>& pairs() const { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// Configuration and execution of one job.
///
/// Input:  the element type of the partition list (one map task each).
/// K, V:   intermediate key/value types. K needs operator<.
/// Out:    reduce output type.
template <typename Input, typename K, typename V, typename Out>
class Job {
 public:
  using MapFn =
      std::function<void(int64_t partition_id, const Input& input,
                         Emitter<K, V>* emitter)>;
  /// Associative combiner; applied eagerly per map task and again at
  /// shuffle, exactly like a Hadoop combiner.
  using CombineFn = std::function<V(const V&, const V&)>;
  using ReduceFn = std::function<Out(const K& key, std::vector<V>& values)>;

  Job& WithMap(MapFn map) {
    map_ = std::move(map);
    return *this;
  }
  Job& WithCombine(CombineFn combine) {
    combine_ = std::move(combine);
    return *this;
  }
  Job& WithReduce(ReduceFn reduce) {
    reduce_ = std::move(reduce);
    return *this;
  }
  Job& WithCounters(Counters* counters) {
    counters_ = counters;
    return *this;
  }
  /// Task-attempt budget: a map task whose attempt fails (an injected
  /// "mr.task" fault or an exception escaping the map function) is
  /// re-executed up to `attempts` times total before the job declares
  /// it failed. Every attempt runs against a fresh emitter, so a failed
  /// attempt contributes nothing — the fold still sees exactly one
  /// emission set per task, in task-index order, which keeps retried
  /// runs bitwise identical to fault-free runs.
  Job& WithTaskAttempts(int attempts) {
    max_task_attempts_ = attempts;
    return *this;
  }
  /// Error channel: when any task exhausts its attempt budget, the
  /// first such failure is stored in `*status`, Run returns an empty
  /// output vector, and nothing reduces. Without an error channel a
  /// terminal task failure aborts (the pre-fault-tolerance behavior —
  /// appropriate for callers that cannot observe partial results).
  /// The caller owns `status` and should reset it before each Run.
  Job& WithErrorOut(Status* status) {
    error_out_ = status;
    return *this;
  }

  /// Runs the job over `partitions` on `pool` (nullptr = inline execution).
  /// Returns reduce outputs in ascending key order.
  std::vector<Out> Run(ThreadPool* pool,
                       const std::vector<Input>& partitions) const {
    KMEANSLL_CHECK(map_ != nullptr);
    KMEANSLL_CHECK(reduce_ != nullptr);
    const int64_t num_tasks = static_cast<int64_t>(partitions.size());

    // --- Map phase (+ eager per-task combine, run inside the task) -------
    // The per-emitter combiner fold is embarrassingly parallel across
    // tasks, so it executes on the pool right after each task's map
    // function instead of serially inside the shuffle loop below. Each
    // task's fold only touches its own emitter and `locals` slot; the
    // shuffle then walks the folded maps in task order, so the grouped
    // value order — and therefore every reduce — is bitwise the same as
    // the serial fold's at any thread count.
    std::vector<Emitter<K, V>> emitters(partitions.size());
    std::vector<std::map<K, V>> locals(
        combine_ != nullptr ? partitions.size() : 0);
    std::vector<int64_t> task_pairs(partitions.size(), 0);

    // Fault-tolerance state. Each task installs the emissions of its
    // one successful attempt; pool->Wait() is the barrier that makes
    // them visible to the shuffle.
    std::atomic<int64_t> task_retries{0};
    std::atomic<int64_t> task_failures{0};
    std::mutex fail_mu;
    Status first_failure;

    auto install_result = [&](int64_t t, Emitter<K, V>&& scratch) {
      auto& emitter = emitters[static_cast<size_t>(t)];
      emitter.pairs() = std::move(scratch.pairs());
      task_pairs[static_cast<size_t>(t)] =
          static_cast<int64_t>(emitter.pairs().size());
      if (combine_ != nullptr) {
        auto& local = locals[static_cast<size_t>(t)];
        for (auto& [key, value] : emitter.pairs()) {
          auto [it, inserted] = local.emplace(key, value);
          if (!inserted) it->second = combine_(it->second, value);
        }
        emitter.pairs().clear();
        emitter.pairs().shrink_to_fit();
      }
    };
    auto run_map_task = [&](int64_t t) {
      const int attempts = max_task_attempts_ < 1 ? 1 : max_task_attempts_;
      for (int attempt = 1; attempt <= attempts; ++attempt) {
        // A fresh emitter per attempt: a failed attempt's partial
        // emissions never leak into the fold.
        Emitter<K, V> scratch;
        Status status = fault::Check("mr.task");
        if (status.ok()) {
          try {
            map_(t, partitions[static_cast<size_t>(t)], &scratch);
          } catch (const std::exception& e) {
            status = Status::Unknown(std::string("map task threw: ") +
                                     e.what());
          } catch (...) {
            status = Status::Unknown("map task threw");
          }
        }
        if (status.ok()) {
          install_result(t, std::move(scratch));
          return;
        }
        if (attempt < attempts) {
          task_retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        task_failures.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(fail_mu);
        if (first_failure.ok()) {
          first_failure = Status(
              status.code(),
              "map task " + std::to_string(t) + " failed after " +
                  std::to_string(attempts) + " attempts: " +
                  status.message());
        }
      }
    };
    if (pool == nullptr) {
      for (int64_t t = 0; t < num_tasks; ++t) run_map_task(t);
    } else {
      for (int64_t t = 0; t < num_tasks; ++t) {
        pool->Submit([&run_map_task, t] { run_map_task(t); });
      }
      pool->Wait();
    }

    if (counters_ != nullptr) {
      counters_->Add(kCounterTaskRetries,
                     task_retries.load(std::memory_order_relaxed));
      counters_->Add(kCounterTaskFailures,
                     task_failures.load(std::memory_order_relaxed));
    }
    if (!first_failure.ok()) {
      if (error_out_ != nullptr) {
        *error_out_ = std::move(first_failure);
        return {};
      }
      // No error channel: fail loudly rather than reduce over a
      // partial fold (the pre-fault-tolerance contract).
      first_failure.Abort("mapreduce job without an error channel");
    }

    int64_t map_output_pairs = 0;
    for (int64_t pairs : task_pairs) map_output_pairs += pairs;

    // --- Shuffle (task order => deterministic) ---------------------------
    std::map<K, std::vector<V>> groups;
    int64_t combined_pairs = 0;
    if (combine_ != nullptr) {
      for (auto& local : locals) {
        combined_pairs += static_cast<int64_t>(local.size());
        for (auto& [key, value] : local) {
          groups[key].push_back(std::move(value));
        }
        local.clear();
      }
    } else {
      for (auto& emitter : emitters) {
        combined_pairs += static_cast<int64_t>(emitter.pairs().size());
        for (auto& [key, value] : emitter.pairs()) {
          groups[key].push_back(std::move(value));
        }
        emitter.pairs().clear();
        emitter.pairs().shrink_to_fit();
      }
    }

    // --- Reduce phase ----------------------------------------------------
    // Collapse combined values again so each reducer sees one value when a
    // combiner exists (matching Hadoop's "combiner may run 0..n times").
    std::vector<const K*> keys;
    keys.reserve(groups.size());
    for (auto& [key, values] : groups) {
      if (combine_ != nullptr && values.size() > 1) {
        V acc = values[0];
        for (size_t i = 1; i < values.size(); ++i) {
          acc = combine_(acc, values[i]);
        }
        values.clear();
        values.push_back(std::move(acc));
      }
      keys.push_back(&key);
    }

    std::vector<Out> outputs(groups.size());
    auto run_reduce = [&](size_t g) {
      const K& key = *keys[g];
      outputs[g] = reduce_(key, groups[key]);
    };
    if (pool == nullptr || groups.size() <= 1) {
      for (size_t g = 0; g < keys.size(); ++g) run_reduce(g);
    } else {
      for (size_t g = 0; g < keys.size(); ++g) {
        pool->Submit([&run_reduce, g] { run_reduce(g); });
      }
      pool->Wait();
    }

    if (counters_ != nullptr) {
      counters_->Add(kCounterJobs, 1);
      counters_->Add(kCounterMapTasks, num_tasks);
      counters_->Add(kCounterMapOutputPairs, map_output_pairs);
      counters_->Add(kCounterCombineOutputPairs, combined_pairs);
      counters_->Add(kCounterReduceGroups,
                     static_cast<int64_t>(groups.size()));
    }
    return outputs;
  }

 private:
  MapFn map_;
  CombineFn combine_;
  ReduceFn reduce_;
  Counters* counters_ = nullptr;
  int max_task_attempts_ = 3;
  Status* error_out_ = nullptr;  // borrowed; null = abort on failure
};

}  // namespace kmeansll::mapreduce

#endif  // KMEANSLL_MAPREDUCE_JOB_H_
