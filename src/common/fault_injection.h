// Deterministic, site-keyed fault injection for exercising failure paths.
//
// Production code names each fallible operation with a string site key
// ("shard.map", "model.write", "mr.task", ...) and asks the process-wide
// injector whether that call should fail:
//
//   if (Status st = fault::Check("shard.map"); !st.ok()) return st;
//
// Tests arm sites with FaultRule{kind, probability or nth_call, count}.
// Decisions are a pure function of (injector seed, site key, per-site
// call number), so a test run injects the same faults at the same call
// ordinals every time regardless of thread interleaving — which is what
// lets the fault-matrix suite assert bitwise identity between a
// fault-free run and an injected-then-retried run.
//
// When KMEANSLL_FAULT_INJECTION is 0 every hook compiles to a no-op
// returning OK (constant-folded at the call site); release builds pay
// nothing for the instrumentation.

#ifndef KMEANSLL_COMMON_FAULT_INJECTION_H_
#define KMEANSLL_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

#ifndef KMEANSLL_FAULT_INJECTION
#define KMEANSLL_FAULT_INJECTION 1
#endif

namespace kmeansll::fault {

/// What the armed site simulates. Sites interpret the kind themselves:
/// I/O sites surface kShortRead/kMapFail/kWriteFail as Status::IOError,
/// kCrcError corrupts validation, kSlowIo sleeps then succeeds, kTaskFail
/// fails a MapReduce task attempt. kTornWrite is the crash-shaped write
/// failure: unlike kWriteFail (which fails before any byte lands), a
/// torn write leaves a PREFIX of the payload on disk and then dies —
/// writers that must be crash-consistent (the oplog's append path,
/// AtomicWriteFile's temp file) consume it via CheckKind and truncate
/// their own write mid-record, so recovery code faces the same torn
/// tail a real power cut would leave.
enum class FaultKind : int {
  kShortRead = 0,  ///< read/map returned fewer bytes than asked
  kMapFail = 1,    ///< mmap/open failed outright
  kCrcError = 2,   ///< payload read back with a checksum mismatch
  kSlowIo = 3,     ///< operation succeeds after an injected delay
  kWriteFail = 4,  ///< write/fsync/rename failed
  kTaskFail = 5,   ///< a MapReduce task attempt died mid-flight
  kTornWrite = 6,  ///< write died mid-record, leaving a torn prefix
};

const char* FaultKindToString(FaultKind kind);

/// One armed trigger. Either probabilistic (`probability` of each call
/// failing, decided by a hash of (seed, site, call#)) or deterministic
/// (`nth_call` fails the Nth call to the site, 1-based). `max_triggers`
/// caps how many times the rule fires (0 = unlimited) — retry loops need
/// transient faults, not permanent ones.
struct FaultRule {
  FaultKind kind = FaultKind::kMapFail;
  double probability = 0.0;  ///< in [0,1]; used when nth_call == 0
  uint64_t nth_call = 0;     ///< 1-based call ordinal; 0 = probabilistic
  uint64_t max_triggers = 0; ///< 0 = unlimited
  int64_t slow_io_us = 0;    ///< injected delay for kSlowIo
};

/// Process-wide injector. Disarmed (no rules) by default; tests arm
/// sites via Arm()/Seed() and Reset() in teardown. All methods are
/// thread-safe and may race each other: an armed site's decision (its
/// rule, call counter and trigger count) is made under one mutex, so the
/// Nth call at a site fires whichever thread makes it. A disarmed
/// injector answers with one atomic load and takes no lock.
class FaultInjector {
 public:
  /// The process-wide instance used by the Check/CheckKind helpers.
  static FaultInjector& Global();

  /// Reseeds the probabilistic hash chain (also clears trigger counts).
  void Seed(uint64_t seed);

  /// Arms `site` with `rule`. Re-arming a site replaces its rule.
  void Arm(std::string site, FaultRule rule);

  /// Disarms everything and zeroes all counters.
  void Reset();

  /// True if any site is armed (fast path: one relaxed atomic load).
  bool armed() const;

  /// Decides whether this call at `site` fails. Returns the triggered
  /// kind through `out_kind` and true when a fault fires; advances the
  /// site's call counter either way (for armed sites).
  bool ShouldFail(std::string_view site, FaultKind* out_kind,
                  int64_t* out_slow_us);

  /// Total faults triggered since the last Reset/Seed.
  uint64_t triggered_count() const;

 private:
  FaultInjector() = default;
  struct Impl;
  Impl* impl();  // lazily constructed, never destroyed (leaky singleton)
};

/// Checks `site`; returns a non-OK Status describing the injected fault
/// or OK. kSlowIo sleeps here and returns OK. The usual instrumentation
/// hook for Status-returning code paths.
#if KMEANSLL_FAULT_INJECTION
Status Check(std::string_view site);
/// As Check, but reports the kind instead of mapping to a Status —
/// for sites that need to *simulate* the failure (e.g. corrupt a CRC)
/// rather than just fail. Returns true when a fault should fire.
bool CheckKind(std::string_view site, FaultKind* out_kind);
#else
inline Status Check(std::string_view) { return Status::OK(); }
inline bool CheckKind(std::string_view, FaultKind*) { return false; }
#endif

}  // namespace kmeansll::fault

#endif  // KMEANSLL_COMMON_FAULT_INJECTION_H_
