// Multi-tenant serving workload harness: YCSB-style skewed, mixed
// operation streams against serving::ServerRegistry, modeled on
// BonsaiKV's evaluation scheme (SNIPPETS.md §3 — skewed zipf datasets,
// mixed op ratios, thread-scaling tables).
//
// Three modes:
//
//   * Bench mode (default; run a Release build): for each thread count
//     in --threads, builds a fresh registry of --models tenants
//     (k = --k, d = --d each), drives --ops operations split across the
//     threads — each thread replaying its own deterministic
//     WorkloadGenerator stream with zipf model-skew (--model_theta) and
//     query-skew (--query_theta) and an assign/topm/bulk mix — while an
//     optional publisher thread (--churn, default on) continuously
//     republishes the hottest model, and prints a thread-scaling table
//     (QPS, per-model p50/p95/p99 from the registry's tear-free
//     histogram snapshots, shed counts, publish counts) plus a
//     per-model breakdown at the highest thread count. Tables mirror to
//     bench/out/*.tsv.
//
//   * --smoke (run under ctest, any build type): deterministic
//     correctness gates with EXACT counts — generator replay is
//     bitwise, a single-threaded mixed run must serve every operation
//     (exact per-tenant served/topm/bulk accounting, zero sheds,
//     answers bitwise vs AssignOne), and a deterministically overloaded
//     tenant must shed EXACTLY its over-limit queries while a cold
//     tenant runs shed-free and a publish to the cold tenant leaves the
//     overloaded tenant's snapshot pointer and version untouched.
//     Violations exit(1) so ctest reports FAIL, never a silent skip.
//
//   * --ingest: the continuous-ingest pipeline end to end — a producer
//     appends batches into a LiveDataset (WAL + seal/compact) while a
//     background RefineLoop republishes the "live" tenant and query
//     threads keep assigning against it through the registry; prints
//     ingest rate, refine/republish counts, and serve-side latency.
//     With --smoke, a deterministic gate instead: EXACT
//     appended/sealed/republished counts, bitwise row contents after
//     reopen, checkpointed RefineLoop recovery, and bitwise served
//     answers after the republishes (same exit(1) discipline).

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/live_dataset.h"
#include "eval/args.h"
#include "eval/table.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "serving/center_index.h"
#include "serving/freshness.h"
#include "serving/model_server.h"
#include "serving/server_registry.h"
#include "serving/workload.h"

namespace kmeansll {
namespace {

using data::IngestStats;
using data::LiveDataset;
using data::LiveDatasetOptions;
using serving::CenterIndex;
using serving::CenterIndexOptions;
using serving::ModelServer;
using serving::RefineLoop;
using serving::RefineLoopOptions;
using serving::RefineStats;
using serving::RequestBatcherOptions;
using serving::ServerRegistry;
using serving::TenantOptions;
using serving::WorkloadGenerator;
using serving::WorkloadOp;
using serving::WorkloadOpType;
using serving::WorkloadSpec;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  rng::Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return m;
}

std::string ModelName(int64_t rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "model-%03" PRId64, rank);
  return std::string(buf);
}

[[noreturn]] void Fail(const char* what) {
  std::fprintf(stderr, "FATAL: %s\n", what);
  std::exit(1);
}

void Expect(bool ok, const char* what) {
  if (!ok) Fail(what);
}

// Builds a registry of `num_models` tenants with per-model centers
// (seeded by rank, so every run and every thread count serves identical
// models) and returns it. Rank 0 is the zipf-hottest tenant. With
// index_opts.enable_pruning the tenants serve from the two-level pruned
// index (bitwise-identical answers in exact mode; see
// src/serving/center_index.h).
std::unique_ptr<ServerRegistry> BuildRegistry(
    int64_t num_models, int64_t k, int64_t d,
    const RequestBatcherOptions& batcher,
    const CenterIndexOptions& index_opts = CenterIndexOptions{}) {
  auto registry = std::make_unique<ServerRegistry>();
  for (int64_t m = 0; m < num_models; ++m) {
    TenantOptions options;
    options.batcher = batcher;
    const Status st = registry->Register(
        ModelName(m),
        CenterIndex::Build(RandomMatrix(k, d, 1000 + (uint64_t)m),
                           index_opts, /*version=*/1),
        options);
    if (!st.ok()) Fail(st.message().c_str());
  }
  return registry;
}

struct LoadResult {
  double elapsed_s = 0;
  int64_t served = 0;  ///< successful ops of every kind
  int64_t shed = 0;
  int64_t publishes = 0;
};

// Drives `ops_total` operations (split evenly across `threads` worker
// threads, each replaying WorkloadGenerator(spec, t)) against the
// registry. With `churn`, a publisher thread republishes the hottest
// model continuously — the swap-under-load regime the RCU snapshot path
// is built for.
LoadResult RunLoad(ServerRegistry& registry, const WorkloadSpec& spec,
                   const Matrix& pool, int64_t threads, int64_t ops_total,
                   bool churn, int64_t k, int64_t d,
                   const CenterIndexOptions& index_opts = CenterIndexOptions{}) {
  std::atomic<int64_t> served{0};
  std::atomic<int64_t> shed{0};
  std::atomic<bool> stop_churn{false};
  std::atomic<int64_t> publishes{0};

  std::thread publisher;
  if (churn) {
    publisher = std::thread([&] {
      // Rebuild-and-swap the hot tenant as fast as Build allows; every
      // publish is a full panel pack + norm pass off the read path.
      const Matrix next = RandomMatrix(k, d, 4242);
      uint64_t version = 2;
      while (!stop_churn.load(std::memory_order_relaxed)) {
        if (!registry.Publish(ModelName(0),
                              CenterIndex::Build(next, index_opts, version++))
                 .ok()) {
          Fail("publish churn failed");
        }
        publishes.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  const int64_t per_thread = ops_total / threads;
  WallTimer timer;
  std::vector<std::thread> workers;
  for (int64_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      WorkloadGenerator gen(spec, static_cast<uint64_t>(t));
      std::vector<int32_t> topm_idx;
      std::vector<double> topm_d2;
      for (int64_t i = 0; i < per_thread; ++i) {
        const WorkloadOp op = gen.Next();
        const std::string name = ModelName(op.model);
        switch (op.type) {
          case WorkloadOpType::kAssignOne: {
            Result<NearestResult> r = registry.Assign(name, pool.Row(op.row));
            if (r.ok()) {
              served.fetch_add(1, std::memory_order_relaxed);
            } else if (r.status().IsUnavailable()) {
              shed.fetch_add(1, std::memory_order_relaxed);
            } else {
              Fail(r.status().message().c_str());
            }
            break;
          }
          case WorkloadOpType::kAssignTopM: {
            Result<int64_t> r = registry.AssignTopM(
                name, pool.Row(op.row), spec.top_m, &topm_idx, &topm_d2);
            if (!r.ok()) Fail(r.status().message().c_str());
            served.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          case WorkloadOpType::kBulk: {
            const int64_t start = std::min<int64_t>(
                op.row, pool.rows() - spec.bulk_rows);
            InMemorySource block(
                ConstMatrixView(pool.Row(std::max<int64_t>(start, 0)),
                                std::min(spec.bulk_rows, pool.rows()),
                                pool.cols()),
                /*weights=*/nullptr, /*labels=*/nullptr);
            Result<Assignment> r = registry.AssignBulk(name, block);
            if (!r.ok()) Fail(r.status().message().c_str());
            served.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  LoadResult out;
  out.elapsed_s = timer.ElapsedSeconds();
  stop_churn.store(true, std::memory_order_relaxed);
  if (publisher.joinable()) publisher.join();
  out.served = served.load();
  out.shed = shed.load();
  out.publishes = publishes.load();
  return out;
}

// --- Observability outputs ------------------------------------------------

// Exact totals the smoke gates drive through the process-wide
// MetricsRegistry. Instrumentation is pure observation: the bespoke
// per-instance stats the gates assert are the source of truth, and the
// global cells mirror them at the same sites, so after the gates the
// registry must hold precisely these values.
struct ExpectedCounters {
  int64_t queries = 0;    ///< kmll_batcher_queries_total
  int64_t served = 0;     ///< kmll_batcher_served_total
  int64_t shed = 0;       ///< kmll_batcher_shed_total
  int64_t publishes = 0;  ///< kmll_serving_publishes_total
};
ExpectedCounters g_smoke_expected;

int64_t GlobalCounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name, "")->value();
}

// Structural validation of a Prometheus text exposition: every sample
// line belongs to a family declared by a preceding # TYPE line, counter
// and bucket values are non-negative, each histogram bucket series is
// cumulative (non-decreasing in emission order), and the +Inf bucket of
// every label set equals its _count sample.
void ValidatePrometheusText(const std::string& text) {
  std::map<std::string, std::string> family_type;
  std::map<std::string, int64_t> last_bucket;  // series key -> last value
  std::map<std::string, int64_t> inf_bucket;   // series key -> +Inf value
  int64_t samples = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    Expect(eol != std::string::npos,
           "every exposition line must end with a newline");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# TYPE ", 0) == 0) {
        const size_t sp = line.find(' ', 7);
        Expect(sp != std::string::npos, "malformed # TYPE line");
        family_type[line.substr(7, sp - 7)] = line.substr(sp + 1);
      }
      continue;
    }
    ++samples;
    const size_t name_end = line.find_first_of("{ ");
    Expect(name_end != std::string::npos, "malformed sample line");
    const std::string name = line.substr(0, name_end);
    // Histogram series carry a _bucket/_sum/_count suffix on the family
    // name; resolve back to the declared family.
    std::string base = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string candidate = name.substr(0, name.size() - s.size());
        const auto cand = family_type.find(candidate);
        if (cand != family_type.end() && cand->second == "histogram") {
          base = candidate;
          break;
        }
      }
    }
    const auto family = family_type.find(base);
    Expect(family != family_type.end(),
           "sample line without a preceding # TYPE declaration");
    const size_t sp = line.rfind(' ');
    const int64_t value = std::strtoll(line.c_str() + sp + 1, nullptr, 10);
    if (family->second == "counter" || base != name) {
      Expect(value >= 0, "counters and histogram series are non-negative");
    }
    if (base != name && name == base + "_bucket") {
      // Series key: everything before the le pair, which the emitter
      // always renders last — unique per (family, label set).
      const size_t le = line.find("le=\"");
      Expect(le != std::string::npos, "_bucket sample must carry le");
      const std::string key = line.substr(0, le);
      const auto last = last_bucket.find(key);
      Expect(last == last_bucket.end() || value >= last->second,
             "histogram bucket series must be cumulative");
      last_bucket[key] = value;
      if (line.compare(le, 9, "le=\"+Inf\"") == 0) inf_bucket[key] = value;
    }
    if (base != name && name == base + "_count") {
      std::string labels;
      if (line[name_end] == '{') {
        const size_t close = line.find('}', name_end);
        Expect(close != std::string::npos, "malformed label set");
        labels = line.substr(name_end, close - name_end);  // sans '}'
      }
      const std::string key =
          base + "_bucket" + (labels.empty() ? "{" : labels + ",");
      const auto inf = inf_bucket.find(key);
      Expect(inf != inf_bucket.end() && inf->second == value,
             "histogram +Inf bucket must equal _count");
    }
  }
  Expect(samples > 0, "exposition must carry at least one sample");
}

// Parses the trace emitter's "123.456" decimal-microsecond rendering
// (exactly 3 fractional digits) back to integer nanoseconds.
int64_t ParseMicrosToNs(const std::string& micros) {
  const size_t dot = micros.find('.');
  Expect(dot != std::string::npos && micros.size() == dot + 4 && dot > 0,
         "trace timestamps carry exactly 3 fractional digits");
  int64_t ns = 0;
  for (size_t i = 0; i < micros.size(); ++i) {
    if (i == dot) continue;
    Expect(micros[i] >= '0' && micros[i] <= '9',
           "malformed trace timestamp");
    ns = ns * 10 + (micros[i] - '0');
  }
  return ns;
}

// Validates the Chrome trace-event envelope and every event object:
// the emitter's fixed fields are present and well formed, and per-tid
// span END times (ts + dur) are monotonic in output order. Spans record
// at scope exit, so START times are NOT monotonic under nesting — end
// times in ring order are the invariant a validator may hold. Returns
// the event count.
int64_t ValidateTraceJson(const std::string& json) {
  const std::string head = "{\"traceEvents\":[";
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}";
  Expect(json.rfind(head, 0) == 0, "trace must open with traceEvents");
  Expect(json.size() >= head.size() + tail.size() &&
             json.compare(json.size() - tail.size(), tail.size(), tail) == 0,
         "trace must close with displayTimeUnit");
  std::map<int64_t, int64_t> last_end_ns;
  int64_t events = 0;
  size_t pos = head.size();
  const size_t end = json.size() - tail.size();
  while (pos < end) {
    if (json[pos] == ',') {
      ++pos;
      continue;
    }
    Expect(json[pos] == '{', "trace events must be objects");
    const size_t close = json.find('}', pos);
    Expect(close != std::string::npos && close < end,
           "unterminated trace event");
    const std::string event = json.substr(pos, close + 1 - pos);
    pos = close + 1;
    ++events;
    // Span names are fixed identifier-like literals (no commas, braces,
    // or escapes), so splitting on ,} is exact for this emitter.
    const auto field = [&event](const char* key) {
      const std::string k = std::string("\"") + key + "\":";
      const size_t at = event.find(k);
      Expect(at != std::string::npos, "trace event missing a field");
      const size_t start = at + k.size();
      const size_t stop = event.find_first_of(",}", start);
      return event.substr(start, stop - start);
    };
    Expect(field("ph") == "\"X\"", "spans are complete (X) events");
    Expect(field("cat") == "\"kmll\"", "span category must be kmll");
    Expect(field("name").size() > 2, "span name must be non-empty");
    Expect(field("pid") == "1", "single-process trace");
    const int64_t tid = std::strtoll(field("tid").c_str(), nullptr, 10);
    Expect(tid >= 1, "tids are 1-based");
    const int64_t ts_ns = ParseMicrosToNs(field("ts"));
    const int64_t dur_ns = ParseMicrosToNs(field("dur"));
    const int64_t end_ns = ts_ns + dur_ns;
    const auto last = last_end_ns.find(tid);
    Expect(last == last_end_ns.end() || end_ns >= last->second,
           "per-tid span end times must be monotonic");
    last_end_ns[tid] = end_ns;
  }
  return events;
}

// Writes --metrics-out / --trace-out after a run. In smoke mode
// (smoke_exact) this is itself a gate: the global registry's counters
// must equal the exact totals the earlier gates drove, the exposition
// must carry those values verbatim, and the trace JSON must validate —
// with spans present in a KMEANSLL_TRACING=1 build and absent in an
// =0 build (same ctest invocation passes in both, which is what the CI
// tracing-off leg runs). With `registry` non-null the metrics file is
// the full ServerRegistry exposition (per-tenant families + the global
// section); otherwise the global section alone.
void FinishObservability(const eval::Args& args, bool smoke_exact,
                         ServerRegistry* registry) {
  const std::string metrics_path = args.GetString("metrics-out", "");
  const std::string trace_path = args.GetString("trace-out", "");
  if (metrics_path.empty() && trace_path.empty()) return;

  if (smoke_exact) {
    Expect(GlobalCounterValue("kmll_batcher_queries_total") ==
               g_smoke_expected.queries,
           "global query counter must mirror the gates' exact total");
    Expect(GlobalCounterValue("kmll_batcher_served_total") ==
               g_smoke_expected.served,
           "global served counter must mirror the gates' exact total");
    Expect(GlobalCounterValue("kmll_batcher_shed_total") ==
               g_smoke_expected.shed,
           "global shed counter must mirror the gates' exact total");
    Expect(GlobalCounterValue("kmll_serving_publishes_total") ==
               g_smoke_expected.publishes,
           "global publish counter must mirror the gates' exact total");
  }

  const std::string text =
      registry != nullptr ? registry->DumpPrometheusText()
                          : MetricsRegistry::Global().DumpPrometheusText();
  ValidatePrometheusText(text);
  if (smoke_exact) {
    const std::string served_line =
        "kmll_batcher_served_total " +
        std::to_string(g_smoke_expected.served) + "\n";
    Expect(text.find(served_line) != std::string::npos,
           "exposition must carry the exact served count");
  }
  if (!metrics_path.empty()) {
    const Status written =
        AtomicWriteFile(metrics_path, text.data(), text.size());
    if (!written.ok()) Fail(written.message().c_str());
    std::printf("metrics: %zu bytes -> %s\n", text.size(),
                metrics_path.c_str());
  }

  if (!trace_path.empty()) {
    trace::Tracer& tracer = trace::Tracer::Global();
    const std::string json = tracer.DumpChromeJson();
    const int64_t events = ValidateTraceJson(json);
    if (smoke_exact) {
#if KMEANSLL_TRACING
      Expect(events > 0, "a traced smoke run must record spans");
      Expect(tracer.DroppedCount() == 0,
             "the smoke must not overflow the span ring");
      Expect(events == tracer.RecordedCount(),
             "every recorded span must be exported");
#else
      Expect(events == 0, "a KMEANSLL_TRACING=OFF build records no spans");
#endif
    }
    const Status written =
        AtomicWriteFile(trace_path, json.data(), json.size());
    if (!written.ok()) Fail(written.message().c_str());
    std::printf("trace: %" PRId64 " spans (%" PRId64 " dropped) -> %s\n",
                events, tracer.DroppedCount(), trace_path.c_str());
  }
}

// --- Bench mode ----------------------------------------------------------

int RunBench(const eval::Args& args) {
  const int64_t models = args.GetInt("models", 8);
  const int64_t k = args.GetInt("k", 1024);
  const int64_t d = args.GetInt("d", 64);
  const int64_t ops = args.GetInt("ops", 64000);
  const int64_t pool_rows = args.GetInt("queries", 4096);
  const bool churn = args.GetBool("churn", true);

  // --pruned serves every tenant from the two-level pruned index.
  // min_prune_k drops to 1 so the flag takes effect at any --k.
  CenterIndexOptions index_opts;
  index_opts.enable_pruning = args.GetBool("pruned", false);
  index_opts.min_prune_k = 1;
  index_opts.num_groups = args.GetInt("groups", 0);

  WorkloadSpec spec;
  spec.num_models = models;
  spec.model_theta = args.GetDouble("model_theta", 0.99);
  spec.query_pool = pool_rows;
  spec.query_theta = args.GetDouble("query_theta", 0.8);
  spec.mix.assign_one = args.GetDouble("assign", 0.90);
  spec.mix.top_m = args.GetDouble("topm", 0.05);
  spec.mix.bulk = args.GetDouble("bulk", 0.05);
  spec.top_m = args.GetInt("m", 4);
  spec.bulk_rows = args.GetInt("bulk_rows", 256);
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 1));

  const Matrix pool = RandomMatrix(pool_rows, d, 77);
  RequestBatcherOptions batcher;
  batcher.max_pending = args.GetInt("max_pending", 0);
  batcher.max_latency_us = args.GetInt("max_latency_us", 0);

  std::printf(
      "workload_harness: %" PRId64 " models, k=%" PRId64 " d=%" PRId64
      ", %" PRId64 " ops, model_theta=%.2f query_theta=%.2f "
      "mix=%.2f/%.2f/%.2f churn=%d pruned=%d\n\n",
      models, k, d, ops, spec.model_theta, spec.query_theta,
      spec.mix.assign_one, spec.mix.top_m, spec.mix.bulk, churn ? 1 : 0,
      index_opts.enable_pruning ? 1 : 0);

  eval::TablePrinter scaling(
      {"threads", "elapsed_s", "qps", "served", "shed", "publishes",
       "hot_p50_us", "hot_p95_us", "hot_p99_us"});

  std::vector<int64_t> thread_counts;
  {
    // --threads=8 runs {1,2,4,8}; --threads_exact=N runs just N.
    const int64_t max_threads = args.GetInt("threads", 8);
    if (args.Has("threads_exact")) {
      thread_counts.push_back(args.GetInt("threads_exact", 1));
    } else {
      for (int64_t t = 1; t <= max_threads; t *= 2) {
        thread_counts.push_back(t);
      }
    }
  }

  ServerRegistry* last_registry = nullptr;
  std::unique_ptr<ServerRegistry> keep_alive;
  for (const int64_t threads : thread_counts) {
    keep_alive = BuildRegistry(models, k, d, batcher, index_opts);
    last_registry = keep_alive.get();
    const LoadResult r = RunLoad(*keep_alive, spec, pool, threads, ops,
                                 churn, k, d, index_opts);
    const auto hot = keep_alive->stats(ModelName(0));
    if (!hot.ok()) Fail("missing hot-model stats");
    const auto& lat = hot.ValueOrDie().latency;
    scaling.AddRow({eval::CellInt(threads), eval::Cell(r.elapsed_s),
                    eval::CellInt(static_cast<int64_t>(
                        static_cast<double>(r.served) / r.elapsed_s)),
                    eval::CellInt(r.served), eval::CellInt(r.shed),
                    eval::CellInt(r.publishes),
                    eval::CellInt(lat.PercentileValue(50.0)),
                    eval::CellInt(lat.PercentileValue(95.0)),
                    eval::CellInt(lat.PercentileValue(99.0))});
  }
  std::printf("Thread scaling (total ops fixed; zipf skew):\n");
  scaling.Print(std::cout);
  (void)scaling.WriteTsv(eval::TsvOutputPath("workload_scaling"));

  // Per-model breakdown at the last (highest) thread count: the zipf
  // skew should be visible as a hot head and a cold tail.
  // Prune columns report the CURRENT snapshot's counters (publish/swap
  // resets them): groups the triangle-inequality bound skipped vs
  // scanned, and exact fallbacks (flat-path queries on a tenant whose
  // index asked for pruning but fell below min_prune_k).
  eval::TablePrinter breakdown(
      {"model", "assign", "topm", "bulk_ops", "shed", "p50_us", "p95_us",
       "p99_us", "max_us", "publishes", "prune_g", "g_scan", "g_pruned",
       "fallback"});
  for (int64_t m = 0; m < models; ++m) {
    const auto st = last_registry->stats(ModelName(m));
    if (!st.ok()) Fail("missing model stats");
    const ServerRegistry::TenantStats& s = st.ValueOrDie();
    breakdown.AddRow(
        {ModelName(m), eval::CellInt(s.batcher.served),
         eval::CellInt(s.topm_queries), eval::CellInt(s.bulk_queries),
         eval::CellInt(s.batcher.shed),
         eval::CellInt(s.latency.PercentileValue(50.0)),
         eval::CellInt(s.latency.PercentileValue(95.0)),
         eval::CellInt(s.latency.PercentileValue(99.0)),
         eval::CellInt(s.latency.max), eval::CellInt(s.server.publishes),
         eval::CellInt(s.pruned ? s.prune_groups : 0),
         eval::CellInt(s.prune.groups_scanned),
         eval::CellInt(s.prune.groups_pruned),
         eval::CellInt(s.prune.exact_fallbacks)});
  }
  std::printf("\nPer-model breakdown at %" PRId64 " threads:\n",
              thread_counts.back());
  breakdown.Print(std::cout);
  (void)breakdown.WriteTsv(eval::TsvOutputPath("workload_models"));

  FinishObservability(args, /*smoke_exact=*/false, last_registry);
  return 0;
}

// --- Smoke mode ----------------------------------------------------------

// Gate 1: the generator determinism contract, bitwise.
void SmokeDeterminism() {
  WorkloadSpec spec;
  spec.num_models = 4;
  spec.model_theta = 0.99;
  spec.query_pool = 256;
  spec.query_theta = 0.8;
  spec.mix = {0.8, 0.1, 0.1};
  spec.seed = 12345;
  WorkloadGenerator a(spec, 0), b(spec, 0), other(spec, 1);
  const std::vector<WorkloadOp> ops_a = a.Take(5000);
  Expect(ops_a == b.Take(5000),
         "same (seed, stream) must replay a bitwise-identical op stream");
  Expect(ops_a != other.Take(5000),
         "different stream_index must produce a different op stream");
}

// Gate 2: a single-threaded mixed run serves EVERY op with exact
// per-tenant accounting and bitwise answers. With
// index_opts.enable_pruning the tenants serve from the pruned index and
// every routed answer is additionally checked bitwise against a flat
// index built from the same seeded centers — the end-to-end form of the
// exact-mode identity contract.
void SmokeMixedServe(const CenterIndexOptions& index_opts) {
  const int64_t models = 3, k = 16, d = 8, pool_rows = 64, ops = 2000;
  WorkloadSpec spec;
  spec.num_models = models;
  spec.model_theta = 0.9;
  spec.query_pool = pool_rows;
  spec.query_theta = 0.5;
  spec.mix = {0.8, 0.1, 0.1};
  spec.top_m = 3;
  spec.bulk_rows = 16;
  spec.seed = 999;

  // No admission limits: nothing sheds.
  auto registry =
      BuildRegistry(models, k, d, RequestBatcherOptions{}, index_opts);
  const Matrix pool = RandomMatrix(pool_rows, d, 77);

  // Flat twins of every tenant (same seeded centers, pruning off) for
  // the bitwise cross-check when the registry serves pruned.
  std::vector<std::shared_ptr<const CenterIndex>> flat;
  for (int64_t m = 0; m < models; ++m) {
    flat.push_back(CenterIndex::Build(RandomMatrix(k, d, 1000 + (uint64_t)m),
                                      /*version=*/1));
  }

  // Expected per-tenant op counts come from replaying the same stream.
  std::vector<int64_t> want_assign(models, 0), want_topm(models, 0),
      want_bulk(models, 0);
  for (const WorkloadOp& op : WorkloadGenerator(spec, 0).Take(ops)) {
    switch (op.type) {
      case WorkloadOpType::kAssignOne: ++want_assign[op.model]; break;
      case WorkloadOpType::kAssignTopM: ++want_topm[op.model]; break;
      case WorkloadOpType::kBulk: ++want_bulk[op.model]; break;
    }
  }

  std::vector<std::shared_ptr<const CenterIndex>> snapshots;
  for (int64_t m = 0; m < models; ++m) {
    snapshots.push_back(
        registry->AcquireSnapshot(ModelName(m)).ValueOrDie());
  }

  WorkloadGenerator gen(spec, 0);
  std::vector<int32_t> topm_idx;
  std::vector<double> topm_d2;
  for (int64_t i = 0; i < ops; ++i) {
    const WorkloadOp op = gen.Next();
    const std::string name = ModelName(op.model);
    switch (op.type) {
      case WorkloadOpType::kAssignOne: {
        Result<NearestResult> r = registry->Assign(name, pool.Row(op.row));
        Expect(r.ok(), "no-limit tenant must admit every query");
        const NearestResult direct =
            snapshots[op.model]->AssignOne(pool.Row(op.row));
        Expect(r.ValueOrDie().index == direct.index &&
                   r.ValueOrDie().distance2 == direct.distance2,
               "routed answer must be bitwise AssignOne");
        const NearestResult flat_direct =
            flat[op.model]->AssignOne(pool.Row(op.row));
        Expect(direct.index == flat_direct.index &&
                   direct.distance2 == flat_direct.distance2,
               "served answer must be bitwise the flat scan's");
        break;
      }
      case WorkloadOpType::kAssignTopM: {
        Result<int64_t> r = registry->AssignTopM(
            name, pool.Row(op.row), spec.top_m, &topm_idx, &topm_d2);
        Expect(r.ok() && r.ValueOrDie() == spec.top_m,
               "top-m must fill m slots");
        const NearestResult direct =
            snapshots[op.model]->AssignOne(pool.Row(op.row));
        Expect(topm_idx[0] == direct.index &&
                   topm_d2[0] == direct.distance2,
               "top-m slot 0 must be bitwise AssignOne");
        std::vector<int32_t> flat_idx;
        std::vector<double> flat_d2;
        Expect(flat[op.model]
                       ->AssignTopM(pool.Row(op.row), spec.top_m, &flat_idx,
                                    &flat_d2) == spec.top_m &&
                   topm_idx == flat_idx && topm_d2 == flat_d2,
               "served top-m must be bitwise the flat scan's");
        break;
      }
      case WorkloadOpType::kBulk: {
        const int64_t start =
            std::clamp<int64_t>(op.row, 0, pool_rows - spec.bulk_rows);
        InMemorySource block(
            ConstMatrixView(pool.Row(start), spec.bulk_rows, d), nullptr,
            nullptr);
        Result<Assignment> r = registry->AssignBulk(name, block);
        Expect(r.ok(), "bulk op must succeed");
        Expect(static_cast<int64_t>(r.ValueOrDie().cluster.size()) ==
                   spec.bulk_rows,
               "bulk result must cover every row");
        break;
      }
    }
  }

  for (int64_t m = 0; m < models; ++m) {
    const ServerRegistry::TenantStats s =
        registry->stats(ModelName(m)).ValueOrDie();
    Expect(s.batcher.queries == want_assign[m], "assign count mismatch");
    Expect(s.batcher.served == want_assign[m], "served count mismatch");
    Expect(s.batcher.shed == 0, "no-limit tenant must shed nothing");
    Expect(s.topm_queries == want_topm[m], "topm count mismatch");
    Expect(s.bulk_queries == want_bulk[m], "bulk count mismatch");
    Expect(s.bulk_rows == want_bulk[m] * spec.bulk_rows,
           "bulk row accounting mismatch");
    Expect(s.latency.count == want_assign[m] + want_topm[m],
           "latency histogram must hold every served assign/topm");
    if (index_opts.enable_pruning) {
      Expect(s.pruned, "tenant must be serving from the pruned index");
      Expect(s.prune_groups > 0, "pruned tenant must report its groups");
      Expect(s.prune.queries > 0, "prune telemetry must count queries");
      Expect(s.prune.groups_scanned >= s.prune.queries,
             "every exact pruned query scans at least one group");
      Expect(s.prune.groups_scanned + s.prune.groups_pruned <=
                 s.prune.queries * s.prune_groups,
             "scanned+pruned groups cannot exceed queries x groups");
      Expect(s.prune.exact_fallbacks == 0,
             "min_prune_k=1 leaves no flat fallbacks");
    } else {
      Expect(!s.pruned && s.prune.queries == 0,
             "flat tenants must report no prune telemetry");
    }
  }

  // The per-tenant Prometheus exposition must carry the same exact
  // counts, labeled by model, with the served-latency histogram holding
  // every assign/topm — and embed the process-wide section.
  const std::string prom = registry->DumpPrometheusText();
  ValidatePrometheusText(prom);
  for (int64_t m = 0; m < models; ++m) {
    Expect(prom.find("kmll_tenant_served_total{model=\"" + ModelName(m) +
                     "\"} " + std::to_string(want_assign[m])) !=
               std::string::npos,
           "per-tenant exposition must carry the exact served count");
    Expect(prom.find("kmll_tenant_latency_us_bucket{model=\"" +
                     ModelName(m) + "\",le=\"+Inf\"} " +
                     std::to_string(want_assign[m] + want_topm[m])) !=
               std::string::npos,
           "per-tenant latency histogram must hold every assign/topm");
  }
  Expect(prom.find("# TYPE kmll_tenant_latency_us histogram") !=
             std::string::npos,
         "per-tenant latency must be exposed as a histogram");
  Expect(prom.find("# TYPE kmll_batcher_served_total counter") !=
             std::string::npos,
         "registry dump must embed the process-wide section");

  // Feed the final observability gate: these exact totals must reappear
  // in the process-wide registry (see FinishObservability).
  for (int64_t m = 0; m < models; ++m) {
    g_smoke_expected.queries += want_assign[m];
    g_smoke_expected.served += want_assign[m];
  }
}

// Gate 3: deterministic overload — the hot tenant sheds EXACTLY its
// over-limit queries, the cold tenant runs shed-free with bitwise
// answers, and a publish to the cold tenant leaves the hot tenant's
// snapshot pointer and version untouched. One hot query is held in a
// slowed scan through the "batcher.scan" fault site, so the gate needs
// the fault hooks compiled in.
void SmokeOverloadIsolation() {
#if !KMEANSLL_FAULT_INJECTION
  std::printf("workload_harness --smoke: overload gate skipped (fault "
              "hooks compiled out)\n");
  return;
#endif
  const int64_t k = 16, d = 8;
  const int64_t kOverload = 40;

  auto registry = std::make_unique<ServerRegistry>();
  TenantOptions hot;
  hot.batcher.max_pending = 1;
  Expect(registry
             ->Register("hot", CenterIndex::Build(RandomMatrix(k, d, 1),
                                                  /*version=*/1),
                        hot)
             .ok(),
         "register hot");
  Expect(registry
             ->Register("cold", CenterIndex::Build(RandomMatrix(k, d, 2),
                                                   /*version=*/1))
             .ok(),
         "register cold");

  const Matrix pool = RandomMatrix(8, d, 3);
  const auto hot_before = registry->AcquireSnapshot("hot").ValueOrDie();
  const auto cold_snapshot = registry->AcquireSnapshot("cold").ValueOrDie();

  // Hold the hot tenant's first query in a slowed scan (kSlowIo on the
  // first call to the site, once): it occupies the single max_pending
  // slot across the phase below.
  fault::FaultInjector& faults = fault::FaultInjector::Global();
  faults.Reset();
  fault::FaultRule hold;
  hold.kind = fault::FaultKind::kSlowIo;
  hold.nth_call = 1;
  hold.max_triggers = 1;
  hold.slow_io_us = 300000;
  faults.Arm("batcher.scan", hold);
  std::thread held([&] {
    Result<NearestResult> r = registry->Assign("hot", pool.Row(0));
    Expect(r.ok(), "the admitted (held) query must be answered");
  });
  while (faults.triggered_count() < 1) std::this_thread::yield();

  // Exactly kOverload over-limit queries to hot: every one sheds.
  for (int64_t i = 0; i < kOverload; ++i) {
    Result<NearestResult> r = registry->Assign("hot", pool.Row(i % 8));
    Expect(!r.ok() && r.status().IsUnavailable(),
           "over-limit hot query must shed kUnavailable");
  }
  // The same number of queries to cold: every one serves, bitwise.
  for (int64_t i = 0; i < kOverload; ++i) {
    Result<NearestResult> r = registry->Assign("cold", pool.Row(i % 8));
    Expect(r.ok(), "cold tenant must be untouched by hot overload");
    const NearestResult direct = cold_snapshot->AssignOne(pool.Row(i % 8));
    Expect(r.ValueOrDie().index == direct.index &&
               r.ValueOrDie().distance2 == direct.distance2,
           "cold answers must stay bitwise under hot overload");
  }

  // Publish to cold while hot is overloaded: cold's version moves, the
  // hot tenant's snapshot pointer and version do not.
  Expect(registry
             ->Publish("cold", CenterIndex::Build(RandomMatrix(k, d, 4),
                                                  /*version=*/2))
             .ok(),
         "publish to cold under hot overload");
  Expect(registry->AcquireSnapshot("cold").ValueOrDie()->version() == 2,
         "cold publish must land");
  const auto hot_after = registry->AcquireSnapshot("hot").ValueOrDie();
  Expect(hot_after.get() == hot_before.get(),
         "hot snapshot pointer must be untouched by cold publish");
  Expect(hot_after->version() == 1, "hot version must be untouched");

  held.join();  // answered once its slowed scan ends
  faults.Reset();

  const ServerRegistry::TenantStats hot_stats =
      registry->stats("hot").ValueOrDie();
  const ServerRegistry::TenantStats cold_stats =
      registry->stats("cold").ValueOrDie();
  Expect(hot_stats.batcher.queries == 1 + kOverload,
         "hot query accounting");
  Expect(hot_stats.batcher.served == 1,
         "hot must serve exactly the held query");
  Expect(hot_stats.batcher.shed == kOverload,
         "hot must shed exactly the over-limit queries");
  Expect(cold_stats.batcher.queries == kOverload, "cold query accounting");
  Expect(cold_stats.batcher.served == kOverload, "cold must serve all");
  Expect(cold_stats.batcher.shed == 0, "cold must shed nothing");
  Expect(cold_stats.server.publishes == 1, "cold publish accounting");
  Expect(hot_stats.server.publishes == 0, "hot publish accounting");

  g_smoke_expected.queries += 1 + 2 * kOverload;  // held query + both
  g_smoke_expected.served += 1 + kOverload;
  g_smoke_expected.shed += kOverload;
  g_smoke_expected.publishes += 1;
}

int RunSmoke(bool pruned) {
  SmokeDeterminism();
  CenterIndexOptions index_opts;
  if (pruned) {
    // k=16 in the smoke is far below the production min_prune_k
    // threshold, so force the pruned path on and group at the smoke's
    // scale — the gates themselves are unchanged: exact counts, zero
    // sheds, bitwise answers (now additionally vs flat twins).
    index_opts.enable_pruning = true;
    index_opts.min_prune_k = 1;
    index_opts.num_groups = 4;
  }
  SmokeMixedServe(index_opts);
  SmokeOverloadIsolation();
  std::printf("workload_harness --smoke%s: all gates passed\n",
              pruned ? " --pruned" : "");
  return 0;
}

// --- Ingest mode ----------------------------------------------------------

// Deterministic row content: coordinate j of global row r is a pure
// function of (r, j), so any append schedule — and any crash/replay
// history — produces bitwise-identical rows, and a reader can verify
// every recovered row without keeping a copy of what was sent.
double IngestCoord(int64_t r, int64_t j) {
  return 10.0 * rng::UniformAtIndex(
                    0xA11CE, static_cast<uint64_t>(r) * 131 +
                                 static_cast<uint64_t>(j)) -
         5.0;
}

std::vector<double> IngestBatch(int64_t first_row, int64_t rows, int64_t d) {
  std::vector<double> batch(static_cast<size_t>(rows * d));
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      batch[static_cast<size_t>(i * d + j)] = IngestCoord(first_row + i, j);
    }
  }
  return batch;
}

std::string IngestBasePath(const char* name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

// Removes the live dataset's on-disk artifacts (oplog, manifest, shards)
// so every run starts from an empty dataset.
void RemoveLiveFiles(const std::string& base) {
  std::remove((base + ".oplog").c_str());
  std::remove((base + ".manifest").c_str());
  for (int s = 0; s < 256; ++s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ".manifest.shard%d", s);
    std::remove((base + buf).c_str());
  }
}

// Appends one batch, honoring the documented backpressure contract: an
// Unavailable append means the tail outran compaction — Seal() to drain,
// then re-send the same batch.
void IngestAppend(LiveDataset& live, const std::vector<double>& batch,
                  int64_t rows) {
  Status st = live.Append(batch.data(), rows);
  if (st.IsUnavailable()) {
    if (!live.Seal().ok()) Fail("seal under backpressure failed");
    st = live.Append(batch.data(), rows);
  }
  if (!st.ok()) Fail(st.message().c_str());
}

RefineLoopOptions SmokeLoopOptions(int64_t k, const std::string& ckpt) {
  RefineLoopOptions opts;
  opts.seed = 0xF00D;
  opts.min_new_rows = 1;
  opts.minibatch.batch_size = 8;
  opts.minibatch.iterations = 4;
  opts.reseed.k = k;
  opts.reseed.lloyd.max_iterations = 3;
  opts.reseed.kmeansll.rounds = 2;
  opts.reseed.kmeansll.oversampling = 4.0;
  opts.checkpoint_path = ckpt;
  return opts;
}

// Gate 4 (--smoke --ingest): the continuous-ingest pipeline with EXACT
// counts. 12 batches x 8 rows through a LiveDataset with 16-row shards,
// sealing every 3rd batch and refining after each seal, must produce
// exactly 4 seals (16/32/16/32 sealed rows), 4 refine cycles, and 4
// republishes (version 1 -> 5); every served row must be bitwise the
// appended row; a reopen must replay exactly the acknowledged tail; and
// a checkpoint-recovered RefineLoop must republish once and then refine
// the post-recovery rows (version arithmetic exact throughout).
void SmokeIngest() {
  const int64_t d = 4, k = 4;
  const int64_t kBatchRows = 8, kBatches = 12;  // 96 rows
  const std::string base = IngestBasePath("kmll_workload_ingest_smoke");
  const std::string ckpt = base + ".freshness.ckpt";
  RemoveLiveFiles(base);
  std::remove(ckpt.c_str());

  LiveDatasetOptions live_opts;
  live_opts.rows_per_shard = 16;
  auto opened = LiveDataset::Open(base, d, /*has_weights=*/false, live_opts);
  if (!opened.ok()) Fail(opened.status().message().c_str());
  std::optional<LiveDataset> live(std::move(opened).ValueOrDie());

  auto registry = std::make_unique<ServerRegistry>();
  Expect(registry
             ->Register("live", CenterIndex::Build(RandomMatrix(k, d, 17),
                                                   /*version=*/1))
             .ok(),
         "register live tenant");
  ModelServer* server = registry->server("live").ValueOrDie();

  const RefineLoopOptions loop_opts = SmokeLoopOptions(k, ckpt);
  auto loop = std::make_unique<RefineLoop>(server, &*live, loop_opts);

  for (int64_t i = 0; i < kBatches; ++i) {
    const std::vector<double> batch =
        IngestBatch(i * kBatchRows, kBatchRows, d);
    IngestAppend(*live, batch, kBatchRows);
    if (i % 3 == 2) {
      Expect(live->Seal().ok(), "seal must succeed");
      Expect(loop->RunOnce().ok(), "refine cycle must succeed");
    }
  }

  // Exact ingest accounting: 4 seal points cut 1, 2, 1, 2 full shards
  // (the 8-row remainder carries across seals until the row count
  // reaches a shard boundary again).
  const IngestStats ing = live->ingest_stats();
  Expect(ing.appended_batches == kBatches, "appended batch count");
  Expect(ing.appended_rows == kBatches * kBatchRows, "appended row count");
  Expect(ing.backpressure_rejections == 0,
         "smoke schedule must never hit backpressure");
  Expect(ing.seals == 4, "exactly 4 seals cut shards");
  Expect(ing.sealed_rows == 96, "every row sealed by the final boundary");
  Expect(live->n() == 96 && live->sealed_rows() == 96 &&
             live->unsealed_rows() == 0,
         "row counts after the final seal");

  // Exact refine/republish accounting: every cycle refined and swapped
  // one snapshot, so the version moved 1 -> 5.
  const RefineStats rs = loop->stats();
  Expect(rs.cycles == 4 && rs.skipped == 0 && rs.failures == 0,
         "exactly 4 refine cycles");
  Expect(rs.watermark == 96, "watermark must cover every ingested row");
  ModelServer::Stats ss = server->stats();
  Expect(ss.refines == 4 && ss.publishes == 4 && ss.publish_failed == 0,
         "exactly 4 republishes");
  Expect(server->published_version() == 5, "version advances once per cycle");

  // Every stored row — sealed shards and tail alike — is bitwise the
  // row that was appended.
  int64_t rows_seen = 0, mismatches = 0;
  ForEachBlock(*live, 0, live->n(), [&](const DatasetView& view) {
    for (int64_t i = 0; i < view.rows(); ++i) {
      const double* p = view.Point(i);
      for (int64_t j = 0; j < d; ++j) {
        if (p[j] != IngestCoord(view.first_row() + i, j)) ++mismatches;
      }
      ++rows_seen;
    }
  });
  Expect(rows_seen == 96 && mismatches == 0,
         "stored rows must be bitwise the appended rows");

  // Crash + recover: an acknowledged (synced) unsealed batch must come
  // back from the oplog replay, bit for bit and with exact counts.
  const std::vector<double> tail = IngestBatch(96, kBatchRows, d);
  IngestAppend(*live, tail, kBatchRows);
  Expect(live->SyncLog().ok(), "log sync");
  loop.reset();  // "crash": the loop and dataset objects go away
  live.reset();

  opened = LiveDataset::Open(base, d, /*has_weights=*/false, live_opts);
  if (!opened.ok()) Fail(opened.status().message().c_str());
  live.emplace(std::move(opened).ValueOrDie());
  Expect(live->n() == 104, "reopen must recover every acknowledged row");
  Expect(live->ingest_stats().recovered_rows == kBatchRows,
         "exactly the unsealed tail is replayed");
  Expect(live->ingest_stats().torn_bytes == 0,
         "a clean shutdown leaves no torn tail");

  // The recovered loop restores its checkpoint, republishes it once
  // (idempotent re-publish; version 5 -> 6), then refines the 8
  // post-recovery rows (6 -> 7).
  auto loop2 = std::make_unique<RefineLoop>(server, &*live, loop_opts);
  Expect(loop2->Recover().ok(), "refine-loop recovery");
  Expect(loop2->stats().recoveries == 1, "checkpoint must be restored");
  Expect(loop2->stats().watermark == 96, "recovered watermark");
  Expect(server->stats().publishes == 5, "recovery republishes exactly once");
  Expect(loop2->RunOnce().ok(), "post-recovery cycle");
  Expect(loop2->stats().cycles == 1 && loop2->stats().watermark == 104,
         "post-recovery cycle covers the replayed rows");
  ss = server->stats();
  Expect(ss.refines == 6 && ss.publishes == 6 && ss.publish_failed == 0,
         "exact republish accounting across the crash");
  Expect(server->published_version() == 7,
         "version advances once per republish");
  Expect(!ss.serving_stale, "a just-published tenant is not stale");

  // Served answers route through the freshly republished snapshot,
  // bitwise the direct AssignOne.
  const Matrix probe = RandomMatrix(8, d, 23);
  const auto snapshot = registry->AcquireSnapshot("live").ValueOrDie();
  for (int64_t i = 0; i < probe.rows(); ++i) {
    Result<NearestResult> r = registry->Assign("live", probe.Row(i));
    Expect(r.ok(), "assign against the refreshed tenant");
    const NearestResult direct = snapshot->AssignOne(probe.Row(i));
    Expect(r.ValueOrDie().index == direct.index &&
               r.ValueOrDie().distance2 == direct.distance2,
           "served answer must be bitwise AssignOne after republish");
  }

  g_smoke_expected.queries += probe.rows();
  g_smoke_expected.served += probe.rows();
  g_smoke_expected.publishes += 6;  // 4 cycles + recovery + post-recovery

  live.reset();
  RemoveLiveFiles(base);
  std::remove(ckpt.c_str());
}

int RunSmokeIngest() {
  SmokeIngest();
  std::printf("workload_harness --smoke --ingest: all gates passed\n");
  return 0;
}

// Bench: producer appends into the LiveDataset (sealing every
// --seal_every batches) while the background RefineLoop republishes the
// "live" tenant and --threads query threads assign against it.
int RunIngestBench(const eval::Args& args) {
  const int64_t d = args.GetInt("d", 16);
  const int64_t k = args.GetInt("k", 64);
  const int64_t batch_rows = args.GetInt("batch_rows", 512);
  const int64_t batches = args.GetInt("batches", 256);
  const int64_t seal_every = args.GetInt("seal_every", 8);
  const int64_t threads = args.GetInt("threads", 4);
  const int64_t pool_rows = args.GetInt("queries", 1024);

  const std::string base = args.GetString(
      "base", IngestBasePath("kmll_workload_ingest_bench"));
  const std::string ckpt = base + ".freshness.ckpt";
  RemoveLiveFiles(base);
  std::remove(ckpt.c_str());

  LiveDatasetOptions live_opts;
  live_opts.rows_per_shard = args.GetInt("rows_per_shard", 4096);
  auto opened = LiveDataset::Open(base, d, /*has_weights=*/false, live_opts);
  if (!opened.ok()) Fail(opened.status().message().c_str());
  LiveDataset live = std::move(opened).ValueOrDie();

  auto registry = std::make_unique<ServerRegistry>();
  if (!registry
           ->Register("live", CenterIndex::Build(RandomMatrix(k, d, 17),
                                                 /*version=*/1))
           .ok()) {
    Fail("register live tenant");
  }
  ModelServer* server = registry->server("live").ValueOrDie();

  RefineLoopOptions loop_opts;
  loop_opts.seed = static_cast<uint64_t>(args.GetInt("seed", 0xF00D));
  loop_opts.min_new_rows = live_opts.rows_per_shard;
  loop_opts.minibatch.batch_size = args.GetInt("mb_batch", 256);
  loop_opts.minibatch.iterations = args.GetInt("mb_iters", 20);
  loop_opts.reseed.k = k;
  loop_opts.checkpoint_path = ckpt;
  loop_opts.freshness_slo_ms = args.GetInt("slo_ms", 0);
  loop_opts.tick_ms = args.GetInt("tick_ms", 5);
  RefineLoop loop(server, &live, loop_opts);
  loop.Start();

  std::printf(
      "workload_harness --ingest: %" PRId64 " batches x %" PRId64
      " rows, d=%" PRId64 " k=%" PRId64 ", seal_every=%" PRId64
      ", rows_per_shard=%" PRId64 ", %" PRId64 " query threads\n\n",
      batches, batch_rows, d, k, seal_every, live_opts.rows_per_shard,
      threads);

  const Matrix pool = RandomMatrix(pool_rows, d, 77);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0}, shed{0};
  std::vector<std::thread> readers;
  for (int64_t t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      int64_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<NearestResult> r =
            registry->Assign("live", pool.Row(i % pool_rows));
        if (r.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsUnavailable()) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          Fail(r.status().message().c_str());
        }
        ++i;
      }
    });
  }

  WallTimer timer;
  rng::Rng rng(static_cast<uint64_t>(args.GetInt("seed", 0xF00D)));
  std::vector<double> batch(static_cast<size_t>(batch_rows * d));
  for (int64_t i = 0; i < batches; ++i) {
    for (double& v : batch) v = rng.NextGaussian();
    IngestAppend(live, batch, batch_rows);
    if ((i + 1) % seal_every == 0 && !live.Seal().ok()) Fail("seal failed");
  }
  if (!live.Seal().ok()) Fail("final seal failed");
  const double ingest_s = timer.ElapsedSeconds();

  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  loop.Stop();

  const IngestStats ing = live.ingest_stats();
  const RefineStats rs = loop.stats();
  const ModelServer::Stats ss = server->stats();
  const auto tenant = registry->stats("live");
  if (!tenant.ok()) Fail("missing tenant stats");
  const auto& lat = tenant.ValueOrDie().latency;

  eval::TablePrinter table(
      {"rows", "ingest_s", "rows_per_s", "seals", "sealed", "cycles",
       "minibatch", "reseeds", "publishes", "slo_miss", "served", "shed",
       "qps", "p50_us", "p95_us", "p99_us"});
  table.AddRow(
      {eval::CellInt(ing.appended_rows), eval::Cell(ingest_s),
       eval::CellInt(static_cast<int64_t>(
           static_cast<double>(ing.appended_rows) / ingest_s)),
       eval::CellInt(ing.seals), eval::CellInt(ing.sealed_rows),
       eval::CellInt(rs.cycles), eval::CellInt(rs.minibatch_refines),
       eval::CellInt(rs.reseeds), eval::CellInt(ss.publishes),
       eval::CellInt(rs.slo_misses), eval::CellInt(served.load()),
       eval::CellInt(shed.load()),
       eval::CellInt(static_cast<int64_t>(
           static_cast<double>(served.load()) / ingest_s)),
       eval::CellInt(lat.PercentileValue(50.0)),
       eval::CellInt(lat.PercentileValue(95.0)),
       eval::CellInt(lat.PercentileValue(99.0))});
  std::printf("Ingest + refine + serve (one live tenant):\n");
  table.Print(std::cout);
  (void)table.WriteTsv(eval::TsvOutputPath("workload_ingest"));

  FinishObservability(args, /*smoke_exact=*/false, registry.get());

  RemoveLiveFiles(base);
  std::remove(ckpt.c_str());
  return 0;
}

}  // namespace
}  // namespace kmeansll

int main(int argc, char** argv) {
  kmeansll::eval::Args args(argc, argv);
  // --trace-out enables span collection for the whole run; the file is
  // validated and written after the mode finishes. --metrics-out dumps
  // the Prometheus exposition the same way. In smoke mode the two flags
  // turn the dump itself into a gate (exact counter cross-checks).
  if (!args.GetString("trace-out", "").empty()) {
    kmeansll::trace::Tracer::Global().Enable();
  }
  const bool ingest = args.GetBool("ingest", false);
  if (args.GetBool("smoke", false)) {
    const int rc = ingest ? kmeansll::RunSmokeIngest()
                          : kmeansll::RunSmoke(args.GetBool("pruned", false));
    if (rc != 0) return rc;
    kmeansll::FinishObservability(args, /*smoke_exact=*/true,
                                  /*registry=*/nullptr);
    return 0;
  }
  if (ingest) return kmeansll::RunIngestBench(args);
  return kmeansll::RunBench(args);
}
