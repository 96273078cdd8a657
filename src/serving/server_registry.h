// ServerRegistry: the multi-tenant serving front end.
//
// One ModelServer serves one model; production traffic is many models
// behind one endpoint, with heavily skewed per-model load (a handful of
// hot tenants, a long tail of cold ones) and per-tenant latency
// expectations. The registry routes named queries to per-model serving
// stacks, each an independent column:
//
//   name ──► Tenant { ModelServer (RCU snapshot holder)
//                     RequestBatcher (per-model admission control)
//                     LatencyHistogram (per-model percentile telemetry)
//                     op counters (atomic cells) }
//
// Isolation is structural, not scheduled: tenants share NOTHING mutable
// — no common queue, no common mutex on the query path, no common
// snapshot — so an overloaded tenant shedding at its max_pending /
// max_latency_us bound cannot add a cycle of latency to any other
// tenant, and a Publish to one model cannot perturb another model's
// snapshot pointer or version (the isolation regression tests in
// tests/serving_test.cc assert exactly that, bitwise). The registry map
// itself is registration-time state: Register takes the writer lock,
// the per-query lookup takes a shared lock just long enough to resolve
// the name to a Tenant*, and tenants are never removed, so the pointer
// stays valid for the registry's lifetime.
//
// Each tenant's batcher admits and sheds by that tenant's own bounds,
// and every admitted query scans on its caller's thread, so a cold
// tenant's occasional query never waits behind a hot tenant's flood.
// Per-query end-to-end latency (admission through answer) is recorded
// into the tenant's LatencyHistogram, whose snapshot() is per-cell
// tear-free on the IoStats atomic-cell pattern; stats(name) bundles it
// with the batcher/server counters so a scraper gets QPS, shed counts,
// and p50/p95/p99 without touching any query-path lock.
//
// bench/workload_harness.cc drives this front end with seeded zipf
// model- and query-skew (YCSB-style mixed operation streams) and asserts
// exact served/shed counts deterministically under ctest; perfbench's
// serve_zipf workload measures it under load.

#ifndef KMEANSLL_SERVING_SERVER_REGISTRY_H_
#define KMEANSLL_SERVING_SERVER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/telemetry.h"
#include "serving/center_index.h"
#include "serving/model_server.h"

namespace kmeansll::serving {

/// Per-model serving configuration supplied at Register time.
struct TenantOptions {
  /// Admission control for this model's single-point query path.
  /// max_pending / max_latency_us are the tenant's overload contract:
  /// exceeding them sheds THIS tenant's queries (kUnavailable with a
  /// retry hint) and nobody else's.
  RequestBatcherOptions batcher;
};

/// Named-model routing front end. Thread-safe: any number of threads
/// may query, publish, and read stats concurrently; Register may run
/// concurrently with queries to other models.
class ServerRegistry {
 public:
  ServerRegistry() = default;
  KMEANSLL_DISALLOW_COPY_AND_ASSIGN(ServerRegistry);

  /// Creates the tenant `name` serving `initial` (non-null). Fails on a
  /// duplicate name or an empty one. Tenants live until the registry is
  /// destroyed; destruction drains each tenant's in-flight batcher
  /// queries (~RequestBatcher), but callers must have RETURNED from
  /// registry methods before the registry itself is destroyed (standard
  /// object lifetime).
  Status Register(const std::string& name,
                  std::shared_ptr<const CenterIndex> initial,
                  const TenantOptions& options = TenantOptions{});

  /// Nearest center of `point` under `name`'s current snapshot, through
  /// that tenant's batcher (admission control). Unknown
  /// names fail kInvalidArgument; overload sheds kUnavailable. Served
  /// queries record end-to-end latency into the tenant's histogram.
  Result<NearestResult> Assign(const std::string& name, const double* point);

  /// The m nearest centers of one point (see CenterIndex::AssignTopM).
  /// Runs on an acquired snapshot directly, bypassing the batcher (and
  /// therefore its admission bounds — top-m is the low-rate analytical
  /// path, not the QPS path).
  Result<int64_t> AssignTopM(const std::string& name, const double* point,
                             int64_t m, std::vector<int32_t>* out_index,
                             std::vector<double>* out_d2);

  /// Bulk assignment of a whole dataset under `name`'s snapshot
  /// (bitwise ComputeAssignment over that snapshot's centers).
  Result<Assignment> AssignBulk(const std::string& name,
                                const DatasetSource& data,
                                ThreadPool* pool = nullptr);

  /// Writer-side pass-throughs to the tenant's ModelServer. A publish
  /// to one model never touches any other model's snapshot.
  Status Publish(const std::string& name,
                 std::shared_ptr<const CenterIndex> next);
  Status PublishFromFile(const std::string& name, const std::string& path);
  Status Refine(const std::string& name, const ModelServer::RefineFn& fn);

  /// The tenant's current snapshot (reader-side; one pointer copy under
  /// the tenant's snapshot mutex once the name resolves). Mostly for
  /// tests and bulk callers that want to pin one version across several
  /// operations.
  Result<std::shared_ptr<const CenterIndex>> AcquireSnapshot(
      const std::string& name) const;

  /// The tenant's ModelServer, for long-lived writer-side attachments —
  /// the freshness RefineLoop (serving/freshness.h) binds to a tenant
  /// through this. The pointer stays valid for the registry's lifetime
  /// (tenants are never removed).
  Result<ModelServer*> server(const std::string& name);

  /// One tenant's full telemetry: batcher counters (queries / served /
  /// shed / deadline misses), server counters (publishes /
  /// refines, plus the freshness signal — `server.serving_stale` and
  /// `server.staleness_ms` surface a refine loop that missed its SLO
  /// while the tenant keeps answering from the last good snapshot),
  /// op-mix counters, and the latency-percentile snapshot.
  /// Assembled from atomic cells and the batcher's stats mutex — never
  /// from a lock a query holds across engine work.
  struct TenantStats {
    RequestBatcher::Stats batcher;
    ModelServer::Stats server;
    int64_t topm_queries = 0;
    int64_t bulk_queries = 0;
    int64_t bulk_rows = 0;
    LatencyHistogram::Snapshot latency;  ///< served Assign/TopM, in us
    /// Pruned-index telemetry of the CURRENT snapshot (counters live on
    /// the snapshot, so a Publish/Refine swap starts them fresh —
    /// per-version prune effectiveness, which is what a tuner wants).
    bool pruned = false;          ///< current snapshot serves pruned
    int64_t prune_groups = 0;     ///< coarse groups in the current index
    PruneStats prune;             ///< scans / prunes / fallbacks
  };
  Result<TenantStats> stats(const std::string& name) const;

  /// Registered names, sorted (the map order).
  std::vector<std::string> model_names() const;
  int64_t num_models() const;

  /// One-call Prometheus scrape for the whole process: every tenant's
  /// serving telemetry as `kmll_tenant_*` families labeled
  /// `model="<name>"` (batcher admit/serve/shed counters, publish and
  /// refine counters, freshness gauges, op-mix counters, the per-tenant
  /// Assign/TopM latency histogram in cumulative bucket format, and the
  /// current snapshot's prune counters), followed by the process-wide
  /// MetricsRegistry::Global() exposition. Values are tear-free per
  /// cell, same contract as stats().
  std::string DumpPrometheusText() const;

 private:
  /// One model's serving column. The members form a dependency chain
  /// (batcher borrows server and is declared LAST so its destructor —
  /// which drains in-flight queries — runs while the server and the
  /// telemetry cells are still alive), so declaration order matters and
  /// the struct is neither movable nor copyable.
  struct Tenant {
    Tenant(std::shared_ptr<const CenterIndex> initial,
           const RequestBatcherOptions& options)
        : server(std::move(initial)), batcher(&server, options) {}
    ModelServer server;
    LatencyHistogram latency;
    std::atomic<int64_t> topm_queries{0};
    std::atomic<int64_t> bulk_queries{0};
    std::atomic<int64_t> bulk_rows{0};
    RequestBatcher batcher;  // destroyed first: drains in-flight Assigns
  };

  /// Resolves a name under the shared lock. The returned pointer stays
  /// valid forever (tenants are never removed), so callers drop the
  /// lock before doing any real work.
  Result<Tenant*> Find(const std::string& name) const;

  mutable std::shared_mutex mu_;  ///< guards the map, never query work
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace kmeansll::serving

#endif  // KMEANSLL_SERVING_SERVER_REGISTRY_H_
