// Tests for common/trace.h: ring overflow drop-oldest accounting,
// concurrent recorders with exact counts, Chrome JSON export (valid
// envelope, per-tid monotonic span end times), the KMEANSLL_TRACE_SPAN
// compile/runtime gates — and the determinism contract: tracing is pure
// observation, so seeding and Lloyd produce bitwise identical results
// with tracing on and off, at pool sizes null/1/4.
//
// The tracer under test is the process-wide singleton, so every test
// brackets itself with Reset()/Disable() and the suite never records
// from detached threads (export and reset require quiescent recorders).

#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "clustering/init_kmeansll.h"
#include "clustering/lloyd.h"
#include "data/synthetic.h"
#include "matrix/dataset.h"
#include "matrix/matrix.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"

namespace kmeansll {
namespace {

using trace::Tracer;

// Restores the global tracer to its pristine state (disabled, default
// capacity, no rings) on scope exit, so test order cannot leak state.
struct TracerGuard {
  TracerGuard() { Restore(); }
  ~TracerGuard() { Restore(); }
  static void Restore() {
    Tracer& tracer = Tracer::Global();
    tracer.Disable();
    tracer.SetRingCapacityForTest(Tracer::kDefaultRingCapacity);
    tracer.Reset();
  }
};

TEST(TraceTest, DisabledRecordsNothing) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Record("trace_test.disabled", 0, 10);
  { trace::Span span("trace_test.disabled_span"); }
  EXPECT_EQ(tracer.RecordedCount(), 0);
  EXPECT_EQ(tracer.RetainedCount(), 0u);
  EXPECT_EQ(tracer.DroppedCount(), 0);
  EXPECT_EQ(tracer.DumpChromeJson(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceTest, RecordAccountingWithoutOverflow) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  for (int i = 0; i < 100; ++i) {
    tracer.Record("trace_test.record", i * 1000, 500);
  }
  tracer.Disable();
  EXPECT_EQ(tracer.RecordedCount(), 100);
  EXPECT_EQ(tracer.RetainedCount(), 100u);
  EXPECT_EQ(tracer.DroppedCount(), 0);
}

TEST(TraceTest, RingOverflowDropsOldestExactly) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.SetRingCapacityForTest(8);
  tracer.Reset();  // next ring picks up the tiny capacity
  tracer.Enable();
  for (int64_t i = 0; i < 20; ++i) {
    tracer.Record("trace_test.overflow", i * 1000, 100);
  }
  tracer.Disable();

  // dropped = recorded - capacity, exactly; the ring retains the newest.
  EXPECT_EQ(tracer.RecordedCount(), 20);
  EXPECT_EQ(tracer.RetainedCount(), 8u);
  EXPECT_EQ(tracer.DroppedCount(), 12);

  // The retained window is spans 12..19 (start_ns = i us), oldest first.
  const std::string json = tracer.DumpChromeJson();
  EXPECT_EQ(json.find("\"ts\":11.000"), std::string::npos);
  size_t prev = 0;
  for (int64_t i = 12; i < 20; ++i) {
    const size_t at =
        json.find("\"ts\":" + std::to_string(i) + ".000,");
    ASSERT_NE(at, std::string::npos) << "span " << i << " missing";
    EXPECT_GT(at, prev) << "retained spans must export oldest first";
    prev = at;
  }
}

TEST(TraceTest, ConcurrentRecordersExactCounts) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  constexpr int kThreads = 4;
  constexpr int64_t kPerThread = 1000;
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&tracer] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        tracer.Record("trace_test.concurrent", i * 10, 5);
      }
    });
  }
  for (auto& r : recorders) r.join();
  tracer.Disable();

  EXPECT_EQ(tracer.RecordedCount(), kThreads * kPerThread);
  EXPECT_EQ(tracer.RetainedCount(),
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(tracer.DroppedCount(), 0);

  // One tid per recording thread, each with its exact share.
  const std::string json = tracer.DumpChromeJson();
  std::map<std::string, int64_t> per_tid;
  size_t pos = 0;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    const size_t end = json.find('}', pos);
    ++per_tid[json.substr(pos, end - pos)];
  }
  EXPECT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kPerThread) << "tid " << tid;
  }
}

TEST(TraceTest, JsonEnvelopeAndMonotonicEndTimes) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  // Nested scopes: inner spans END before outer ones, so ring order is
  // end-time order even though start times run the other way.
  for (int i = 0; i < 50; ++i) {
    trace::Span outer("trace_test.outer");
    { trace::Span inner("trace_test.inner"); }
  }
  tracer.Disable();
  ASSERT_EQ(tracer.RecordedCount(), 100);

  const std::string json = tracer.DumpChromeJson();
  const std::string head = "{\"traceEvents\":[";
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}";
  ASSERT_EQ(json.rfind(head, 0), 0u);
  ASSERT_EQ(json.compare(json.size() - tail.size(), tail.size(), tail), 0);

  // Walk the fixed-format events: ts + dur (decimal microseconds with 3
  // fractional digits = exact nanoseconds) must be monotonic per tid in
  // output order.
  const auto micros_to_ns = [](const std::string& s) {
    const size_t dot = s.find('.');
    EXPECT_EQ(s.size(), dot + 4) << s;
    int64_t ns = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      if (i == dot) continue;
      EXPECT_TRUE(s[i] >= '0' && s[i] <= '9') << s;
      ns = ns * 10 + (s[i] - '0');
    }
    return ns;
  };
  std::map<std::string, int64_t> last_end;
  int64_t events = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
    ++events;
    const size_t ts_start = pos + 5;
    const size_t ts_end = json.find(',', ts_start);
    const size_t dur_at = json.find("\"dur\":", ts_end);
    const size_t dur_start = dur_at + 6;
    const size_t dur_end = json.find(',', dur_start);
    const size_t tid_at = json.find("\"tid\":", dur_end);
    const size_t tid_start = tid_at + 6;
    const size_t tid_end = json.find('}', tid_start);
    const int64_t end_ns =
        micros_to_ns(json.substr(ts_start, ts_end - ts_start)) +
        micros_to_ns(json.substr(dur_start, dur_end - dur_start));
    const std::string tid = json.substr(tid_start, tid_end - tid_start);
    const auto it = last_end.find(tid);
    EXPECT_TRUE(it == last_end.end() || end_ns >= it->second)
        << "per-tid span end times must be monotonic";
    last_end[tid] = end_ns;
    pos = tid_end;
  }
  EXPECT_EQ(events, 100);
}

TEST(TraceTest, SpanMacroRespectsCompileAndRuntimeGates) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  { KMEANSLL_TRACE_SPAN("trace_test.macro_disabled"); }
  EXPECT_EQ(tracer.RecordedCount(), 0);  // runtime-disabled: no record

  tracer.Enable();
  { KMEANSLL_TRACE_SPAN("trace_test.macro_enabled"); }
  tracer.Disable();
#if KMEANSLL_TRACING
  EXPECT_EQ(tracer.RecordedCount(), 1);
  EXPECT_NE(tracer.DumpChromeJson().find("trace_test.macro_enabled"),
            std::string::npos);
#else
  EXPECT_EQ(tracer.RecordedCount(), 0);  // compiled out entirely
#endif
}

TEST(TraceTest, ResetClearsRingsAndReRegistersThreads) {
  TracerGuard guard;
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.Record("trace_test.before_reset", 0, 1);
  ASSERT_EQ(tracer.RecordedCount(), 1);
  tracer.Reset();
  EXPECT_EQ(tracer.RecordedCount(), 0);
  // The same thread records into a fresh ring after the generation bump.
  tracer.Record("trace_test.after_reset", 0, 1);
  tracer.Disable();
  EXPECT_EQ(tracer.RecordedCount(), 1);
  EXPECT_NE(tracer.DumpChromeJson().find("trace_test.after_reset"),
            std::string::npos);
}

// ------------------------------------------------------ determinism

// Everything a training run produces that the determinism contract
// covers: seeding outputs and Lloyd's full trajectory.
struct TrainOutputs {
  Matrix seed_centers;
  std::vector<double> round_potentials;
  LloydResult standard;
};

TrainOutputs RunTraining(const Dataset& data, int64_t k,
                         ThreadPool* pool) {
  TrainOutputs out;
  KMeansLLOptions init_opts;
  init_opts.rounds = 3;
  auto seeded = KMeansLLInit(data, k, rng::Rng(17), init_opts, pool);
  EXPECT_TRUE(seeded.ok());
  out.seed_centers = std::move(seeded->centers);
  out.round_potentials = std::move(seeded->telemetry.round_potentials);

  LloydOptions options;
  options.max_iterations = 12;
  options.track_history = true;
  auto standard = RunLloyd(data, out.seed_centers, options, pool);
  EXPECT_TRUE(standard.ok());
  out.standard = std::move(standard).ValueOrDie();
  return out;
}

void ExpectBitwiseEqual(const LloydResult& a, const LloydResult& b,
                        const char* variant) {
  EXPECT_TRUE(a.centers == b.centers) << variant;
  EXPECT_EQ(a.assignment.cluster, b.assignment.cluster) << variant;
  EXPECT_EQ(a.assignment.cost, b.assignment.cost) << variant;  // bitwise
  EXPECT_EQ(a.iterations, b.iterations) << variant;
  EXPECT_EQ(a.cost_history, b.cost_history) << variant;  // bitwise
  EXPECT_EQ(a.empty_cluster_repairs, b.empty_cluster_repairs) << variant;
}

// The instrumentation hard constraint: centers, assignments, and cost
// histories are bitwise identical with tracing on and off — spans only
// read clocks and append to their own buffers. Exercised through
// seeding (KMEANSLL_TRACE_SPAN in the rounds loop) and Lloyd
// (iteration/phase spans) at pool null, 1, and 4.
TEST(TraceDeterminismTest, TracingOnOffBitwiseIdenticalAcrossPools) {
  TracerGuard guard;
  auto generated = data::GenerateGaussMixture(
      {.n = 600, .k = 7, .dim = 12, .center_stddev = 5.0,
       .cluster_stddev = 1.0},
      rng::Rng(91));
  ASSERT_TRUE(generated.ok());
  const Dataset& data = generated->data;

  for (int threads : {0, 1, 4}) {
    SCOPED_TRACE("pool=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool =
        threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;

    Tracer::Global().Reset();
    Tracer::Global().Enable();
    const TrainOutputs traced = RunTraining(data, 7, pool.get());
#if KMEANSLL_TRACING
    EXPECT_GT(Tracer::Global().RecordedCount(), 0)
        << "a traced run must record seeding/Lloyd spans";
#else
    EXPECT_EQ(Tracer::Global().RecordedCount(), 0);
#endif
    Tracer::Global().Disable();
    Tracer::Global().Reset();
    const TrainOutputs plain = RunTraining(data, 7, pool.get());

    EXPECT_TRUE(traced.seed_centers == plain.seed_centers);
    EXPECT_EQ(traced.round_potentials, plain.round_potentials);  // bitwise
    ExpectBitwiseEqual(traced.standard, plain.standard, "standard");
  }
}

}  // namespace
}  // namespace kmeansll
