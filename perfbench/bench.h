// Shared pieces of the repository benchmark (perfbench/): run options,
// the metric report, output checks, the counting DatasetSource, the
// open-loop client, and span aggregation.
//
// Every run executes the same three stages in order — train, serve,
// ingest — against the library's public API. The workload picks which
// stage runs at full size; the other two run at companion size, so every
// run reports every end-to-end metric (see README.md here).

#ifndef KMEANSLL_PERFBENCH_BENCH_H_
#define KMEANSLL_PERFBENCH_BENCH_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "matrix/dataset_view.h"

namespace kmeansll::perfbench {

// --- Time -----------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// --- Run options and report -------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    ///< scratch directory, removed by the caller
  std::string trace_out;  ///< Chrome trace JSON path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a run prints: end-to-end metrics (untraced runs), per-layer
/// metrics (traced runs), the ops attempted and failed, and the set-up
/// times every stage contributes to setup_s.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = 0;

  void E2E(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Ops(int64_t ops, int64_t failures) {
    attempted += ops;
    failed += failures;
  }
};

// --- Output checks ------------------------------------------------------------

inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Prints "check failed: <what>" to stderr and exits with status 1.
[[noreturn]] void Fail(const std::string& what);

inline void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

inline void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

// --- Statistics ---------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of `values`; +inf entries sort
/// last, so a failed op counts as missing every latency bound.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The q-quantile of each run of `window` consecutive samples, then the
/// median of those (the plain quantile when there are fewer than two
/// whole windows). A stall in one window moves one window's quantile,
/// not the reported value.
double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q);

/// Peak resident set size since the last ResetPeakRss(), in MiB
/// (VmHWM; ResetPeakRss writes 5 to /proc/self/clear_refs).
void ResetPeakRss();
double PeakRssMb();

// --- Counting source ---------------------------------------------------------

/// DatasetSource decorator that forwards every virtual to the wrapped
/// source — so scan schedules, prefetching and results are unchanged —
/// and counts pins, rows pinned, and thread-summed time inside Pin.
/// With `span_pins`, each pin is also a "data/Pin" span while tracing.
class CountingSource final : public DatasetSource {
 public:
  struct Counts {
    int64_t pins = 0;
    int64_t rows = 0;
    int64_t pin_ns = 0;
  };

  CountingSource(const DatasetSource* inner, bool span_pins)
      : inner_(inner), span_pins_(span_pins) {}

  int64_t n() const override { return inner_->n(); }
  int64_t dim() const override { return inner_->dim(); }
  bool has_weights() const override { return inner_->has_weights(); }
  bool has_labels() const override { return inner_->has_labels(); }
  double TotalWeight() const override { return inner_->TotalWeight(); }
  PinnedBlock Pin(int64_t begin, int64_t end) const override;
  void PrefetchHint(int64_t begin, int64_t end) const override {
    inner_->PrefetchHint(begin, end);
  }
  std::vector<std::pair<int64_t, int64_t>> ResidencyRanges() const override {
    return inner_->ResidencyRanges();
  }
  int64_t ResidentUnitCapacity() const override {
    return inner_->ResidentUnitCapacity();
  }
  Status status() const override { return inner_->status(); }

  Counts counts() const {
    return {pins_.load(std::memory_order_relaxed),
            rows_.load(std::memory_order_relaxed),
            pin_ns_.load(std::memory_order_relaxed)};
  }

 private:
  const DatasetSource* inner_;
  const bool span_pins_;
  mutable std::atomic<int64_t> pins_{0};
  mutable std::atomic<int64_t> rows_{0};
  mutable std::atomic<int64_t> pin_ns_{0};
};

inline CountingSource::Counts operator-(const CountingSource::Counts& a,
                                        const CountingSource::Counts& b) {
  return {a.pins - b.pins, a.rows - b.rows, a.pin_ns - b.pin_ns};
}

// --- Open-loop client -----------------------------------------------------------

struct OpenLoopResult {
  /// Per issued op, in schedule order: completion minus due time (us);
  /// +inf when `issue` reported failure.
  std::vector<double> latency_us;
  /// Per issued op: issue time minus due time (us).
  std::vector<double> late_us;
  /// Schedule index of each issued op (parallel to the vectors above).
  std::vector<int64_t> op;
  int64_t failed = 0;
};

/// Issues op i of a fixed-rate schedule (due at start + i / rate) from
/// `threads` workers. Each worker takes the next due op, sleeps with
/// lowered timer slack until `spin_ns` before its due time, then spins.
/// Stops after `max_ops` ops or, when `stop` is non-null, once it is
/// set (ops due later are not issued). `issue(i)` returns false on
/// failure.
OpenLoopResult RunOpenLoop(int threads, double rate_per_s, int64_t spin_ns,
                           int64_t max_ops, const std::atomic<bool>* stop,
                           const std::function<bool(int64_t)>& issue);

// --- Spans --------------------------------------------------------------------

/// Turn span recording on and off (trace::Tracer); the time between the
/// two calls is the traced wall time the span shares are taken of.
void StartTracing();
void StopTracing();

/// Aggregates the tracer's retained spans into a per-layer table. The
/// harness names its spans "<layer>/<call>"; a span's layer is the part
/// before the '/', and its self time is its duration minus the time its
/// harness-span children on the same thread cover. Spans the library
/// records itself (names without '/') are listed by name. Prints both
/// tables and adds trace.self_frac.<layer> (self time / traced wall
/// time) and trace.dropped_spans to `report`, then writes the Chrome JSON
/// to `path` (when non-empty).
void SummarizeSpans(const std::string& path, Report* report);

// --- Stages -----------------------------------------------------------------

/// Each stage runs at full size when `full`, else at companion size, and
/// spends about `budget_s` seconds in its timed phases.
void RunTrainStage(const RunOptions& run, bool full, double budget_s,
                   Report* report);
void RunServeStage(const RunOptions& run, bool full, double budget_s,
                   Report* report);
void RunIngestStage(const RunOptions& run, bool full, double budget_s,
                    Report* report);

}  // namespace kmeansll::perfbench

#endif  // KMEANSLL_PERFBENCH_BENCH_H_
