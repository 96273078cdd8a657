// Shared benchmark pieces; see bench.h.

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/trace.h"

namespace kmeansll::perfbench {

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  std::fflush(stderr);
  // Worker threads may still be running; skip static destructors.
  std::_Exit(1);
}

double Quantile(std::vector<double> values, double q) {
  Check(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q) {
  const size_t windows = samples.size() / window;
  if (windows < 2) return Quantile(samples, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(
        Quantile(std::vector<double>(samples.begin() + w * window,
                                     samples.begin() + (w + 1) * window),
                 q));
  }
  return Median(per_window);
}

void ResetPeakRss() {
  // Return freed heap to the OS first: whether glibc keeps a freed set-up
  // buffer resident depends on its adaptive mmap threshold, which moved
  // the measured peak by the whole buffer between otherwise equal runs.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  Check(out.good(), "cannot reset the peak RSS via /proc/self/clear_refs");
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("VmHWM missing from /proc/self/status");
}

PinnedBlock CountingSource::Pin(int64_t begin, int64_t end) const {
  const int64_t start = NowNs();
  PinnedBlock block;
  if (span_pins_) {
    trace::Span span("data/Pin");
    block = inner_->Pin(begin, end);
  } else {
    block = inner_->Pin(begin, end);
  }
  pin_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
  pins_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(block.view().rows(), std::memory_order_relaxed);
  return block;
}

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Sleeps until `spin_ns` before `due_ns`, then spins; returns false when
// `stop` was raised first.
bool WaitUntil(int64_t due_ns, int64_t spin_ns, const std::atomic<bool>* stop) {
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      return false;
    }
    const int64_t remaining = due_ns - NowNs();
    if (remaining <= 0) return true;
    if (remaining > spin_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - spin_ns));
    } else {
      CpuRelax();
    }
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(int threads, double rate_per_s, int64_t spin_ns,
                           int64_t max_ops, const std::atomic<bool>* stop,
                           const std::function<bool(int64_t)>& issue) {
  const double interval_ns = 1e9 / rate_per_s;
  const double kNotIssued = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> latency(static_cast<size_t>(max_ops), kNotIssued);
  std::vector<double> late(static_cast<size_t>(max_ops), kNotIssued);
  std::atomic<int64_t> next{0};
  // The first op is due 2 ms out, so every worker is parked before it.
  const int64_t start_ns = NowNs() + 2'000'000;
  auto worker = [&] {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= max_ops) return;
      const int64_t due =
          start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
      if (!WaitUntil(due, spin_ns, stop)) return;
      const int64_t issued = NowNs();
      const bool ok = issue(i);
      const int64_t done = NowNs();
      latency[static_cast<size_t>(i)] =
          ok ? static_cast<double>(done - due) * 1e-3
             : std::numeric_limits<double>::infinity();
      late[static_cast<size_t>(i)] = static_cast<double>(issued - due) * 1e-3;
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(worker);
  for (auto& w : workers) w.join();

  OpenLoopResult result;
  for (int64_t i = 0; i < max_ops; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (std::isnan(late[s])) continue;
    result.latency_us.push_back(latency[s]);
    result.late_us.push_back(late[s]);
    result.op.push_back(i);
    if (std::isinf(latency[s])) ++result.failed;
  }
  return result;
}

namespace {

struct SpanEvent {
  std::string name;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t tid = 0;
  int64_t child_ns = 0;
};

int64_t ParseMicros(const std::string& json, size_t from, const char* key) {
  const size_t at = json.find(key, from);
  Check(at != std::string::npos, std::string("trace JSON lacks ") + key);
  const double micros = std::strtod(json.c_str() + at + std::strlen(key),
                                    nullptr);
  return std::llround(micros * 1e3);
}

// Parses the tracer's Chrome JSON (the fixed layout
// Tracer::DumpChromeJson writes) back into events.
std::vector<SpanEvent> ParseSpans(const std::string& json) {
  std::vector<SpanEvent> events;
  const std::string kName = "{\"name\":\"";
  size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    pos += kName.size();
    const size_t name_end = json.find('"', pos);
    SpanEvent e;
    e.name = json.substr(pos, name_end - pos);
    e.start_ns = ParseMicros(json, name_end, "\"ts\":");
    e.dur_ns = ParseMicros(json, name_end, "\"dur\":");
    const size_t tid_at = json.find("\"tid\":", name_end);
    Check(tid_at != std::string::npos, "trace JSON lacks tid");
    e.tid = std::strtoll(json.c_str() + tid_at + 6, nullptr, 10);
    events.push_back(std::move(e));
    pos = name_end;
  }
  return events;
}

}  // namespace

namespace {
int64_t traced_ns = 0;
int64_t traced_since_ns = 0;
}  // namespace

void StartTracing() {
  traced_since_ns = NowNs();
  trace::Tracer::Global().Enable();
}

void StopTracing() {
  trace::Tracer::Global().Disable();
  traced_ns += NowNs() - traced_since_ns;
}

void SummarizeSpans(const std::string& path, Report* report) {
  trace::Tracer& tracer = trace::Tracer::Global();
  const double wall_s = static_cast<double>(traced_ns) * 1e-9;
  const std::string json = tracer.DumpChromeJson();
  std::vector<SpanEvent> events = ParseSpans(json);

  // Self time: nest each thread's harness spans by interval.
  std::vector<SpanEvent*> harness;
  for (SpanEvent& e : events) {
    if (e.name.find('/') != std::string::npos) harness.push_back(&e);
  }
  std::sort(harness.begin(), harness.end(),
            [](const SpanEvent* a, const SpanEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->dur_ns > b->dur_ns;
            });
  std::vector<SpanEvent*> stack;
  for (SpanEvent* e : harness) {
    while (!stack.empty() &&
           (stack.back()->tid != e->tid ||
            stack.back()->start_ns + stack.back()->dur_ns <= e->start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) stack.back()->child_ns += e->dur_ns;
    stack.push_back(e);
  }

  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> layers, calls, program;
  for (const SpanEvent* e : harness) {
    const std::string layer = e->name.substr(0, e->name.find('/'));
    for (Row* row : {&layers[layer], &calls[e->name]}) {
      row->count += 1;
      row->total_ns += e->dur_ns;
      row->self_ns += e->dur_ns - e->child_ns;
    }
  }
  for (const SpanEvent& e : events) {
    if (e.name.find('/') != std::string::npos) continue;
    Row& row = program[e.name];
    row.count += 1;
    row.total_ns += e.dur_ns;
    row.self_ns += e.dur_ns;
  }

  auto print = [&](const char* title, const std::map<std::string, Row>& rows) {
    std::printf("%s (wall %.3f s)\n", title, wall_s);
    std::printf("  %-34s %9s %11s %11s %9s\n", "name", "count", "total_s",
                "self_s", "self/wall");
    for (const auto& [name, row] : rows) {
      std::printf("  %-34s %9" PRId64 " %11.4f %11.4f %9.4f\n", name.c_str(),
                  row.count, row.total_ns * 1e-9, row.self_ns * 1e-9,
                  row.self_ns * 1e-9 / wall_s);
    }
  };
  print("harness spans by layer", layers);
  print("harness spans by call", calls);
  print("program spans (recorded inside the library)", program);

  for (const char* layer : {"core", "clustering", "distance", "data",
                            "serving"}) {
    const auto it = layers.find(layer);
    const double self_s = it == layers.end() ? 0 : it->second.self_ns * 1e-9;
    report->Layer(std::string("trace.self_frac.") + layer, self_s / wall_s,
                  "ratio");
  }
  report->Layer("trace.dropped_spans",
                static_cast<double>(tracer.DroppedCount()), "count");
  if (!path.empty()) {
    CheckOk(tracer.WriteChromeJson(path), "writing the Chrome trace");
  }
}

}  // namespace kmeansll::perfbench
