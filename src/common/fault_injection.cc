#include "common/fault_injection.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace kmeansll::fault {

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortRead:
      return "short read";
    case FaultKind::kMapFail:
      return "map failure";
    case FaultKind::kCrcError:
      return "CRC error";
    case FaultKind::kSlowIo:
      return "slow IO";
    case FaultKind::kWriteFail:
      return "write failure";
    case FaultKind::kTaskFail:
      return "task failure";
    case FaultKind::kTornWrite:
      return "torn write";
  }
  return "unknown fault";
}

namespace {

// FNV-1a, then a splitmix64 finalizer: stable across platforms, good
// avalanche for the per-call Bernoulli decision.
uint64_t HashSite(std::string_view site) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

struct FaultInjector::Impl {
  struct Site {
    FaultRule rule;
    uint64_t calls = 0;
    uint64_t fired = 0;
  };

  std::atomic<bool> armed{false};
  std::atomic<uint64_t> triggered{0};

  // Guards the seed, the sites map and every site's rule and counters:
  // an armed call decides under it, so Arm and Reset may race callers.
  // A disarmed injector never takes it.
  mutable std::mutex mu;
  uint64_t seed = 0;
  std::map<std::string, Site, std::less<>> sites;
};

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

FaultInjector::Impl* FaultInjector::impl() {
  static Impl* impl = new Impl();
  return impl;
}

void FaultInjector::Seed(uint64_t seed) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->seed = seed;
  for (auto& [name, site] : i->sites) {
    site.calls = 0;
    site.fired = 0;
  }
  i->triggered.store(0, std::memory_order_relaxed);
}

void FaultInjector::Arm(std::string site, FaultRule rule) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  Impl::Site& s = i->sites[std::move(site)];
  s.rule = rule;
  s.calls = 0;
  s.fired = 0;
  i->armed.store(true, std::memory_order_release);
}

void FaultInjector::Reset() {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  i->sites.clear();
  i->seed = 0;
  i->triggered.store(0, std::memory_order_relaxed);
  i->armed.store(false, std::memory_order_release);
}

bool FaultInjector::armed() const {
  return const_cast<FaultInjector*>(this)->impl()->armed.load(
      std::memory_order_acquire);
}

uint64_t FaultInjector::triggered_count() const {
  return const_cast<FaultInjector*>(this)->impl()->triggered.load(
      std::memory_order_relaxed);
}

bool FaultInjector::ShouldFail(std::string_view site, FaultKind* out_kind,
                               int64_t* out_slow_us) {
  Impl* i = impl();
  if (!i->armed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->sites.find(site);
  if (it == i->sites.end()) return false;
  Impl::Site& s = it->second;
  // 1-based call ordinal at this site. With concurrent callers the
  // *assignment* of ordinals to threads is racy, but every ordinal is
  // claimed exactly once, so "fail the Nth call" and "fail p of the
  // calls" both trigger a deterministic set of ordinals.
  const uint64_t call = ++s.calls;
  const FaultRule& rule = s.rule;
  bool fire = false;
  if (rule.nth_call > 0) {
    fire = (call == rule.nth_call);
  } else if (rule.probability > 0.0) {
    const uint64_t h = Mix(i->seed ^ Mix(HashSite(site) ^ call));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0,1)
    fire = (u < rule.probability);
  }
  if (!fire) return false;
  // Past the cap the rule stops firing.
  if (rule.max_triggers > 0 && s.fired++ >= rule.max_triggers) return false;
  i->triggered.fetch_add(1, std::memory_order_relaxed);
  if (out_kind != nullptr) *out_kind = rule.kind;
  if (out_slow_us != nullptr) *out_slow_us = rule.slow_io_us;
  return true;
}

#if KMEANSLL_FAULT_INJECTION

Status Check(std::string_view site) {
  FaultKind kind;
  int64_t slow_us = 0;
  if (!FaultInjector::Global().ShouldFail(site, &kind, &slow_us)) {
    return Status::OK();
  }
  if (kind == FaultKind::kSlowIo) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        slow_us > 0 ? slow_us : 1000));
    return Status::OK();
  }
  return Status::IOError(std::string("injected ") +
                         FaultKindToString(kind) + " at " +
                         std::string(site));
}

bool CheckKind(std::string_view site, FaultKind* out_kind) {
  int64_t slow_us = 0;
  return FaultInjector::Global().ShouldFail(site, out_kind, &slow_us);
}

#endif  // KMEANSLL_FAULT_INJECTION

}  // namespace kmeansll::fault
