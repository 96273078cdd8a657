// Scoped-span tracing with per-thread lock-free ring buffers and Chrome
// trace-event JSON export (loadable in Perfetto / chrome://tracing).
//
// The recording path is built for hot loops: a KMEANSLL_TRACE_SPAN at
// the top of a scope costs one relaxed atomic load when tracing is
// compiled in but disabled (the common case), and when enabled, two
// steady_clock reads plus a wait-free ring append — no mutex, no
// allocation, no syscall. Each recording thread owns a fixed-capacity
// ring; overflow drops the *oldest* span (the ring is a sliding window
// over the most recent activity, which is what a post-mortem wants) and
// the number of dropped spans is accounted exactly.
//
// Spans are recorded at scope exit with their start timestamp and
// duration, so per-thread ring order is monotonic in span *end* time.
// Export emits Chrome trace-event "X" (complete) events with ts/dur in
// microseconds; one pid, one tid per recording thread.
//
// Determinism: tracing is pure observation. It reads clocks and writes
// to its own buffers; it never touches data values, iteration order, or
// scheduling decisions, so centers/assignments/cost histories are
// bitwise identical with tracing on, off, or compiled out
// (tests/trace_test.cc asserts this over seeding + Lloyd).
//
// Compile-out: building with -DKMEANSLL_TRACING=OFF (CMake option)
// defines KMEANSLL_TRACING=0 and KMEANSLL_TRACE_SPAN expands to nothing
// — zero code, zero data, zero atomic loads. The Tracer API itself stays
// linkable so tools can unconditionally call WriteChromeJson() (they
// get a valid, empty trace).

#ifndef KMEANSLL_COMMON_TRACE_H_
#define KMEANSLL_COMMON_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

#ifndef KMEANSLL_TRACING
#define KMEANSLL_TRACING 1
#endif

namespace kmeansll {
namespace trace {

/// One completed span. `name` must be a string literal (or otherwise
/// outlive the tracer); the recording path stores the pointer only.
struct TraceEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;  ///< steady-clock ns since process trace epoch
  int64_t dur_ns = 0;
};

/// Process-wide tracer. Disabled by default; Enable()/Disable() flip one
/// relaxed atomic read by every span site. Recording threads lazily
/// register a ring on first span; rings are owned by the tracer and
/// never freed, so the thread-local fast path is a raw pointer.
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 64 * 1024;

  /// Opaque per-thread ring; defined in trace.cc (public so the
  /// thread-local cache in the implementation can name it).
  struct ThreadRing;

  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Steady-clock nanoseconds since the tracer's epoch. Monotonic.
  static int64_t NowNs();

  /// Appends one span to the calling thread's ring (wait-free after the
  /// first call on a thread). No-op when disabled.
  void Record(const char* name, int64_t start_ns, int64_t dur_ns);

  /// Spans currently retained across all rings (post-drop).
  size_t RetainedCount() const;
  /// Spans recorded across all rings, including dropped ones.
  int64_t RecordedCount() const;
  /// Spans lost to ring overflow (drop-oldest), summed over all rings.
  int64_t DroppedCount() const;

  /// Serializes every retained span as Chrome trace-event JSON
  /// ({"traceEvents":[...]}; ph="X", ts/dur in microseconds, one tid per
  /// recording thread, per-tid order monotonic in span end time).
  /// Safe to call while recorders are quiescent; a concurrent recorder
  /// may race the newest slot, so export after joining worker threads.
  std::string DumpChromeJson() const;
  /// DumpChromeJson() to a file.
  Status WriteChromeJson(const std::string& path) const;

  /// Test hooks: Reset() discards all rings (and re-arms thread-local
  /// registration via a generation bump); SetRingCapacityForTest applies
  /// to rings created afterwards. Both require quiescent recorders.
  void Reset();
  void SetRingCapacityForTest(size_t capacity);

 private:
  Tracer();
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(Tracer);

  ThreadRing* RingForThisThread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards ring registration + config, not recording
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  size_t ring_capacity_ = kDefaultRingCapacity;
  std::atomic<uint64_t> generation_{1};
  int next_tid_ = 1;
};

/// RAII span: captures the start time at construction and records at
/// destruction if tracing was enabled when the scope was entered.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::Global().enabled()) {
      name_ = name;
      start_ns_ = Tracer::NowNs();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      const int64_t end_ns = Tracer::NowNs();
      Tracer::Global().Record(name_, start_ns_, end_ns - start_ns_);
    }
  }
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(Span);

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace trace
}  // namespace kmeansll

#if KMEANSLL_TRACING
#define KMEANSLL_TRACE_CONCAT_(a, b) a##b
#define KMEANSLL_TRACE_CONCAT(a, b) KMEANSLL_TRACE_CONCAT_(a, b)
/// Traces the enclosing scope as a span named `name` (string literal).
#define KMEANSLL_TRACE_SPAN(name) \
  ::kmeansll::trace::Span KMEANSLL_TRACE_CONCAT(kmll_span_, __LINE__)(name)
#else
#define KMEANSLL_TRACE_SPAN(name) \
  do {                            \
  } while (false)
#endif

#endif  // KMEANSLL_COMMON_TRACE_H_
