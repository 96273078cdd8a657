#include "serving/server_registry.h"

#include <mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"

namespace kmeansll::serving {

Status ServerRegistry::Register(const std::string& name,
                                std::shared_ptr<const CenterIndex> initial,
                                const TenantOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (initial == nullptr) {
    return Status::InvalidArgument("initial snapshot must be non-null");
  }
  auto tenant = std::make_unique<Tenant>(std::move(initial), options.batcher);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto [it, inserted] = tenants_.emplace(name, std::move(tenant));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("model '" + name +
                                   "' is already registered");
  }
  return Status::OK();
}

Result<ServerRegistry::Tenant*> ServerRegistry::Find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::InvalidArgument("unknown model '" + name + "'");
  }
  return it->second.get();
}

Result<NearestResult> ServerRegistry::Assign(const std::string& name,
                                             const double* point) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  WallTimer timer;
  Result<NearestResult> result = tenant->batcher.Assign(point);
  if (result.ok()) {
    tenant->latency.Record(timer.ElapsedNanos() / 1000);
  }
  return result;
}

Result<int64_t> ServerRegistry::AssignTopM(const std::string& name,
                                           const double* point, int64_t m,
                                           std::vector<int32_t>* out_index,
                                           std::vector<double>* out_d2) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  WallTimer timer;
  const std::shared_ptr<const CenterIndex> snapshot =
      tenant->server.Acquire();
  const int64_t filled = snapshot->AssignTopM(point, m, out_index, out_d2);
  tenant->topm_queries.fetch_add(1, std::memory_order_relaxed);
  tenant->latency.Record(timer.ElapsedNanos() / 1000);
  return filled;
}

Result<Assignment> ServerRegistry::AssignBulk(const std::string& name,
                                              const DatasetSource& data,
                                              ThreadPool* pool) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  const std::shared_ptr<const CenterIndex> snapshot =
      tenant->server.Acquire();
  tenant->bulk_queries.fetch_add(1, std::memory_order_relaxed);
  tenant->bulk_rows.fetch_add(data.n(), std::memory_order_relaxed);
  return snapshot->AssignBatch(data, pool);
}

Status ServerRegistry::Publish(const std::string& name,
                               std::shared_ptr<const CenterIndex> next) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return tenant->server.Publish(std::move(next));
}

Status ServerRegistry::PublishFromFile(const std::string& name,
                                       const std::string& path) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return tenant->server.PublishFromFile(path);
}

Status ServerRegistry::Refine(const std::string& name,
                              const ModelServer::RefineFn& fn) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return tenant->server.Refine(fn);
}

Result<std::shared_ptr<const CenterIndex>> ServerRegistry::AcquireSnapshot(
    const std::string& name) const {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return tenant->server.Acquire();
}

Result<ModelServer*> ServerRegistry::server(const std::string& name) {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  return &tenant->server;
}

Result<ServerRegistry::TenantStats> ServerRegistry::stats(
    const std::string& name) const {
  KMEANSLL_ASSIGN_OR_RETURN(Tenant * tenant, Find(name));
  TenantStats out;
  out.batcher = tenant->batcher.stats();
  out.server = tenant->server.stats();
  out.topm_queries = tenant->topm_queries.load(std::memory_order_relaxed);
  out.bulk_queries = tenant->bulk_queries.load(std::memory_order_relaxed);
  out.bulk_rows = tenant->bulk_rows.load(std::memory_order_relaxed);
  out.latency = tenant->latency.snapshot();
  const std::shared_ptr<const CenterIndex> snapshot =
      tenant->server.Acquire();
  out.pruned = snapshot->pruned();
  out.prune_groups = snapshot->num_groups();
  out.prune = snapshot->prune_stats();
  return out;
}

std::vector<std::string> ServerRegistry::model_names() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    (void)tenant;
    names.push_back(name);
  }
  return names;
}

int64_t ServerRegistry::num_models() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int64_t>(tenants_.size());
}

std::string ServerRegistry::DumpPrometheusText() const {
  // Snapshot every tenant first so each metric family lists all of its
  // `model="..."` samples under a single # TYPE header, as the text
  // format requires. Tenant pointers are stable and the per-tenant
  // reads are the same atomic/mutex-protected paths stats() uses, so
  // the shared lock is held only for the map walk.
  std::vector<std::pair<std::string, TenantStats>> snaps;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    snaps.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      TenantStats s;
      s.batcher = tenant->batcher.stats();
      s.server = tenant->server.stats();
      s.topm_queries = tenant->topm_queries.load(std::memory_order_relaxed);
      s.bulk_queries = tenant->bulk_queries.load(std::memory_order_relaxed);
      s.bulk_rows = tenant->bulk_rows.load(std::memory_order_relaxed);
      s.latency = tenant->latency.snapshot();
      const std::shared_ptr<const CenterIndex> snapshot =
          tenant->server.Acquire();
      s.pruned = snapshot->pruned();
      s.prune_groups = snapshot->num_groups();
      s.prune = snapshot->prune_stats();
      snaps.emplace_back(name, std::move(s));
    }
  }

  std::string out;
  const auto family = [&](const std::string& name, const char* type,
                          const std::string& help,
                          int64_t (*value)(const TenantStats&)) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + type + "\n";
    for (const auto& [model, s] : snaps) {
      // Escape the three characters the format reserves in label values.
      std::string escaped;
      escaped.reserve(model.size());
      for (char c : model) {
        if (c == '\\') {
          escaped += "\\\\";
        } else if (c == '"') {
          escaped += "\\\"";
        } else if (c == '\n') {
          escaped += "\\n";
        } else {
          escaped += c;
        }
      }
      out += name + "{model=\"" + escaped + "\"} " +
             std::to_string(value(s)) + "\n";
    }
  };

  family("kmll_tenant_queries_total", "counter",
         "Assign calls admitted or shed, per tenant.",
         [](const TenantStats& s) { return s.batcher.queries; });
  family("kmll_tenant_served_total", "counter",
         "Queries answered with a result, per tenant.",
         [](const TenantStats& s) { return s.batcher.served; });
  family("kmll_tenant_shed_total", "counter",
         "Queries rejected with kUnavailable, per tenant.",
         [](const TenantStats& s) { return s.batcher.shed; });
  family("kmll_tenant_deadline_misses_total", "counter",
         "Queries served past their latency deadline, per tenant.",
         [](const TenantStats& s) { return s.batcher.deadline_misses; });
  family("kmll_tenant_publishes_total", "counter",
         "Successful snapshot publishes, per tenant.",
         [](const TenantStats& s) { return s.server.publishes; });
  family("kmll_tenant_publish_failed_total", "counter",
         "Refused snapshot publishes, per tenant.",
         [](const TenantStats& s) { return s.server.publish_failed; });
  family("kmll_tenant_refines_total", "counter",
         "Successful refine passes, per tenant.",
         [](const TenantStats& s) { return s.server.refines; });
  family("kmll_tenant_refine_failed_total", "counter",
         "Refine passes that published nothing, per tenant.",
         [](const TenantStats& s) { return s.server.refine_failed; });
  family("kmll_tenant_serving_stale", "gauge",
         "1 when the freshness SLO is missed and the tenant serves the "
         "last good snapshot, else 0.",
         [](const TenantStats& s) {
           return static_cast<int64_t>(s.server.serving_stale ? 1 : 0);
         });
  family("kmll_tenant_staleness_ms", "gauge",
         "Milliseconds since the tenant's last successful publish.",
         [](const TenantStats& s) { return s.server.staleness_ms; });
  family("kmll_tenant_topm_queries_total", "counter",
         "AssignTopM calls, per tenant.",
         [](const TenantStats& s) { return s.topm_queries; });
  family("kmll_tenant_bulk_queries_total", "counter",
         "AssignBulk calls, per tenant.",
         [](const TenantStats& s) { return s.bulk_queries; });
  family("kmll_tenant_bulk_rows_total", "counter",
         "Rows assigned through AssignBulk, per tenant.",
         [](const TenantStats& s) { return s.bulk_rows; });
  family("kmll_tenant_prune_queries_total", "counter",
         "Queries answered via the pruned path on the current snapshot, "
         "per tenant (reset on publish).",
         [](const TenantStats& s) { return s.prune.queries; });
  family("kmll_tenant_prune_groups_scanned_total", "counter",
         "Coarse groups that reached the engine on the current snapshot, "
         "per tenant (reset on publish).",
         [](const TenantStats& s) { return s.prune.groups_scanned; });
  family("kmll_tenant_prune_groups_pruned_total", "counter",
         "Coarse groups skipped on the current snapshot, per tenant "
         "(reset on publish).",
         [](const TenantStats& s) { return s.prune.groups_pruned; });
  family("kmll_tenant_prune_exact_fallbacks_total", "counter",
         "Pruned-path queries served flat on the current snapshot, per "
         "tenant (reset on publish).",
         [](const TenantStats& s) { return s.prune.exact_fallbacks; });

  // Per-tenant served latency (Assign + TopM), cumulative bucket format.
  out +=
      "# HELP kmll_tenant_latency_us Served Assign/AssignTopM latency in "
      "microseconds, per tenant. Bucket bounds are HdrHistogram-style (8 "
      "linear sub-buckets per octave); percentile estimates report the "
      "bucket upper bound, conservative within 12.5% relative error.\n";
  out += "# TYPE kmll_tenant_latency_us histogram\n";
  for (const auto& [model, s] : snaps) {
    AppendPrometheusHistogram("kmll_tenant_latency_us", {{"model", model}},
                              s.latency, &out);
  }

  // The process-wide registry closes the scrape: shard I/O, oplog,
  // ingest, freshness, and training counters live there.
  out += MetricsRegistry::Global().DumpPrometheusText();
  return out;
}

}  // namespace kmeansll::serving
