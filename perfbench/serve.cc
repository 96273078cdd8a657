// Serve stage: eight tenants behind one ServerRegistry, each k=4096,
// d=64, on the default batcher with adaptive batching. Requests pick a
// tenant by zipf(0.99) over rank r and a query row by zipf(0.8) over a
// 4096-row pool; the op mix is 94% Assign, 5% top-4, 1% bulk of 64 rows.
//
// Tenant classes: centers are clustered (64 blobs) on even ranks and
// diffuse on odd ranks; the pruned index is on when r mod 4 is 0 or 1. So
// ranks 0..3 are clustered_pruned, diffuse_pruned, clustered_flat and
// diffuse_flat, and all four classes get traffic. Half the query pool is
// drawn from the blobs, half is off-mode.
//
// Timed phases, each on a fresh registry: a closed loop of three clients
// (serve_qps), then an open loop at a fixed offered rate (serve_p50_us,
// timed from each op's due time; its p99 is the per-layer serve_p99_us).
// A sample of served answers must equal a flat twin index's answers bit
// for bit.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/trace.h"
#include "matrix/dataset_view.h"
#include "matrix/matrix.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "serving/center_index.h"
#include "serving/server_registry.h"
#include "serving/workload.h"

namespace kmeansll::perfbench {
namespace {

using serving::CenterIndex;
using serving::CenterIndexOptions;
using serving::ServerRegistry;
using serving::WorkloadOp;
using serving::WorkloadOpType;

constexpr int64_t kTenants = 8;
constexpr int64_t kK = 4096;
constexpr int64_t kDim = 64;
constexpr int64_t kBlobs = 64;
constexpr double kBlobSpread = 10;  // stddev of blob-mean coordinates
constexpr int64_t kPoolRows = 4096;
constexpr int64_t kTopM = 4;
constexpr int64_t kBulkRows = 64;
// Three client threads on a 4-vCPU machine, so one core stays free for
// the OS; with four the run-to-run spread of every serve metric grew.
constexpr int kClients = 3;
constexpr double kOpenRate = 8000;     // ops/s, about a third of capacity
constexpr int64_t kSpinNs = 50'000;    // open-loop spin before each op
constexpr int64_t kSampleEvery = 61;   // open-loop ops checked vs twins
constexpr int64_t kScanProbes = 2000;  // direct single-row scans per class
constexpr double kWarmupS = 0.5;
constexpr double kTracedClosedS = 2.0;
constexpr int64_t kSliceNs = 100'000'000;  // closed-loop throughput slices
constexpr size_t kLatencyWindow = 2000;    // open-loop ops per window

constexpr int kClasses = 4;
const char* const kClassNames[kClasses] = {"clustered_pruned", "diffuse_pruned",
                                           "clustered_flat", "diffuse_flat"};
bool Clustered(int64_t rank) { return rank % 2 == 0; }
bool Pruned(int64_t rank) { return rank % 4 < 2; }
int ClassOf(int64_t rank) {
  return (Clustered(rank) ? 0 : 1) + (Pruned(rank) ? 0 : 2);
}

std::string TenantName(int64_t rank) { return "tenant-" + std::to_string(rank); }

struct Inputs {
  std::vector<Matrix> centers;  // per tenant rank
  Matrix pool;                  // query rows
};

Inputs MakeInputs(uint64_t seed) {
  const rng::Rng root =
      rng::MakeRootRng(seed).Fork(rng::StreamPurpose::kDataGeneration, 2);
  rng::Rng blob_rng = root.Fork(rng::StreamPurpose::kGeneral, 0);
  Matrix blobs(kBlobs, kDim);
  for (int64_t i = 0; i < blobs.size(); ++i) {
    blobs.data()[i] = blob_rng.NextGaussian(0, kBlobSpread);
  }
  Inputs in;
  for (int64_t r = 0; r < kTenants; ++r) {
    rng::Rng rng = root.Fork(rng::StreamPurpose::kGeneral, 1 + r);
    Matrix c(kK, kDim);
    for (int64_t i = 0; i < kK; ++i) {
      for (int64_t j = 0; j < kDim; ++j) {
        c.Row(i)[j] = Clustered(r) ? blobs.Row(i % kBlobs)[j] +
                                         rng.NextGaussian()
                                   : rng.NextGaussian(0, kBlobSpread);
      }
    }
    in.centers.push_back(std::move(c));
  }
  rng::Rng pool_rng = root.Fork(rng::StreamPurpose::kGeneral, 100);
  in.pool = Matrix(kPoolRows, kDim);
  for (int64_t i = 0; i < kPoolRows; ++i) {
    const int64_t blob = static_cast<int64_t>(pool_rng.NextBounded(kBlobs));
    for (int64_t j = 0; j < kDim; ++j) {
      in.pool.Row(i)[j] = i % 2 == 0
                              ? blobs.Row(blob)[j] + pool_rng.NextGaussian()
                              : pool_rng.NextGaussian(0, kBlobSpread);
    }
  }
  return in;
}

serving::WorkloadSpec MakeSpec(uint64_t seed) {
  serving::WorkloadSpec spec;
  spec.num_models = kTenants;
  spec.model_theta = 0.99;
  spec.query_pool = kPoolRows;
  spec.query_theta = 0.8;
  spec.mix.assign_one = 0.94;
  spec.mix.top_m = 0.05;
  spec.mix.bulk = 0.01;
  spec.top_m = kTopM;
  spec.bulk_rows = kBulkRows;
  spec.seed = rng::HashCombine(seed, 0x5E12E);
  return spec;
}

int64_t BulkStart(int64_t row) { return std::min(row, kPoolRows - kBulkRows); }

struct Setup {
  std::unique_ptr<ServerRegistry> registry;
  double seconds = 0;
};

// Index builds and registration of every tenant (the stage's set-up).
Setup BuildRegistry(const Inputs& in, std::vector<double>* flat_build_s,
                    std::vector<double>* pruned_build_s) {
  Setup setup;
  const int64_t start = NowNs();
  setup.registry = std::make_unique<ServerRegistry>();
  for (int64_t r = 0; r < kTenants; ++r) {
    CenterIndexOptions options;
    options.enable_pruning = Pruned(r);
    const int64_t build_start = NowNs();
    std::shared_ptr<const CenterIndex> index =
        CenterIndex::Build(in.centers[static_cast<size_t>(r)], options,
                           /*version=*/1);
    (Pruned(r) ? pruned_build_s : flat_build_s)
        ->push_back(SecondsSince(build_start));
    serving::TenantOptions tenant;
    tenant.batcher.adaptive_batch = true;
    CheckOk(setup.registry->Register(TenantName(r), std::move(index), tenant),
            "Register");
  }
  setup.seconds = SecondsSince(start);
  return setup;
}

// Answers of one sampled op, kept for the twin check.
struct Sample {
  std::vector<int32_t> index;
  std::vector<double> d2;
};

bool Execute(ServerRegistry& registry, const Inputs& in, const WorkloadOp& op,
             Sample* sample) {
  const std::string name = TenantName(op.model);
  const double* point = in.pool.Row(op.row);
  switch (op.type) {
    case WorkloadOpType::kAssignOne: {
      trace::Span span("serving/Assign");
      Result<NearestResult> r = registry.Assign(name, point);
      if (!r.ok()) return false;
      if (sample != nullptr) {
        sample->index = {static_cast<int32_t>(r->index)};
        sample->d2 = {r->distance2};
      }
      return true;
    }
    case WorkloadOpType::kAssignTopM: {
      trace::Span span("serving/AssignTopM");
      std::vector<int32_t> index;
      std::vector<double> d2;
      Result<int64_t> r = registry.AssignTopM(name, point, kTopM, &index, &d2);
      if (!r.ok()) return false;
      if (sample != nullptr) {
        sample->index = std::move(index);
        sample->d2 = std::move(d2);
      }
      return true;
    }
    case WorkloadOpType::kBulk: {
      trace::Span span("serving/AssignBulk");
      const InMemorySource block(
          ConstMatrixView(in.pool.Row(BulkStart(op.row)), kBulkRows, kDim),
          /*weights=*/nullptr, /*labels=*/nullptr);
      Result<Assignment> r = registry.AssignBulk(name, block);
      if (!r.ok()) return false;
      if (sample != nullptr) sample->index = std::move(r->cluster);
      return true;
    }
  }
  return false;
}

struct ClosedLoop {
  double ops_per_s = 0;  ///< median over kSliceNs slices
  int64_t ops = 0;
  int64_t failed = 0;
};

ClosedLoop RunClosedLoop(ServerRegistry& registry, const Inputs& in,
                         const serving::WorkloadSpec& spec, double seconds) {
  const int64_t slices = std::max<int64_t>(
      1, static_cast<int64_t>(seconds * 1e9 / kSliceNs));
  std::atomic<int64_t> failed{0};
  std::vector<std::vector<int64_t>> done(
      kClients, std::vector<int64_t>(static_cast<size_t>(slices) + 1, 0));
  std::vector<std::thread> clients;
  const int64_t start = NowNs();
  const int64_t end = start + slices * kSliceNs;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      serving::WorkloadGenerator gen(spec, 1 + static_cast<uint64_t>(t));
      std::vector<int64_t>& mine = done[static_cast<size_t>(t)];
      for (int64_t now = NowNs(); now < end; now = NowNs()) {
        if (!Execute(registry, in, gen.Next(), nullptr)) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        ++mine[static_cast<size_t>((NowNs() - start) / kSliceNs)];
      }
    });
  }
  for (auto& c : clients) c.join();
  ClosedLoop out;
  out.failed = failed.load();
  std::vector<double> rates;
  for (int64_t i = 0; i <= slices; ++i) {
    int64_t sum = 0;
    for (const auto& mine : done) sum += mine[static_cast<size_t>(i)];
    out.ops += sum;
    // The last slot holds ops that finished after the deadline.
    if (i < slices) rates.push_back(static_cast<double>(sum) * 1e9 / kSliceNs);
  }
  out.ops_per_s = Median(rates);
  return out;
}

// Every sampled answer must equal a flat twin's direct scan bit for bit.
void CheckAgainstTwins(const Inputs& in, const std::vector<WorkloadOp>& ops,
                       const std::vector<Sample>& samples,
                       const std::vector<int64_t>& issued) {
  std::vector<std::shared_ptr<const CenterIndex>> twins;
  for (const Matrix& centers : in.centers) {
    twins.push_back(CenterIndex::Build(centers, CenterIndexOptions{}, 1));
  }
  int64_t checked = 0;
  for (const int64_t i : issued) {
    if (i % kSampleEvery != 0) continue;
    const WorkloadOp& op = ops[static_cast<size_t>(i)];
    const Sample& got = samples[static_cast<size_t>(i / kSampleEvery)];
    const CenterIndex& twin = *twins[static_cast<size_t>(op.model)];
    const bool bulk = op.type == WorkloadOpType::kBulk;
    const int64_t rows = bulk ? kBulkRows : 1;
    const int64_t slots = op.type == WorkloadOpType::kAssignTopM ? kTopM : 1;
    const ConstMatrixView view(in.pool.Row(bulk ? BulkStart(op.row) : op.row),
                               rows, kDim);
    std::vector<int32_t> index(static_cast<size_t>(rows * slots));
    std::vector<double> d2(index.size());
    if (slots > 1) {
      twin.AssignTopMRange(view, IndexRange{0, rows}, slots, index.data(),
                           d2.data());
    } else {
      twin.AssignRange(view, IndexRange{0, rows}, index.data(), d2.data());
    }
    Check(got.index == index, "served answer differs from the flat twin's");
    for (size_t s = 0; s < got.d2.size(); ++s) {
      Check(SameBits(got.d2[s], d2[s]),
            "served distance differs from the flat twin's");
    }
    ++checked;
  }
  Check(checked > 0, "no served answer was sampled");
  std::printf("serve check: %" PRId64
              " sampled answers equal their flat twins bit for bit\n",
              checked);
}

// Median time of one direct single-row CenterIndex::AssignRange, no
// batcher, per tenant class (ranks 0..3 are one tenant of each class).
void ProbeScans(ServerRegistry& registry, const Inputs& in,
                const std::vector<WorkloadOp>& ops, double scan_us[kClasses]) {
  for (int64_t r = 0; r < kClasses; ++r) {
    const auto snapshot =
        Unwrap(registry.AcquireSnapshot(TenantName(r)), "AcquireSnapshot");
    std::vector<double> us;
    int32_t index = 0;
    double d2 = 0;
    for (int64_t i = 0; i < kScanProbes; ++i) {
      const ConstMatrixView row(
          in.pool.Row(ops[static_cast<size_t>(i) % ops.size()].row), 1, kDim);
      trace::Span span("serving/CenterIndex::AssignRange");
      const int64_t start = NowNs();
      snapshot->AssignRange(row, IndexRange{0, 1}, &index, &d2);
      us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    }
    scan_us[ClassOf(r)] = Median(us);
  }
}

}  // namespace

void RunServeStage(const RunOptions& run, bool full, double budget_s,
                   Report* report) {
  std::printf(
      "serve (%s): %" PRId64 " tenants k=%" PRId64 " d=%" PRId64
      ", zipf 0.99 over tenants, zipf 0.8 over %" PRId64
      " query rows; 94%% assign / 5%% top-%" PRId64 " / 1%% bulk of %" PRId64
      "; closed loop of %d clients, open loop at %.0f ops/s\n",
      full ? "full" : "companion", kTenants, kK, kDim, kPoolRows, kTopM,
      kBulkRows, kClients, kOpenRate);
  const Inputs in = MakeInputs(run.seed);
  const serving::WorkloadSpec spec = MakeSpec(run.seed);
  const double closed_s = 0.4 * budget_s;
  const double open_s = 0.6 * budget_s;

  std::vector<double> setups, flat_build_s, pruned_build_s;
  auto fresh = [&] {
    Setup setup = BuildRegistry(in, &flat_build_s, &pruned_build_s);
    setups.push_back(setup.seconds);
    return std::move(setup.registry);
  };

  // Untimed warm-up on a registry of its own.
  RunClosedLoop(*fresh(), in, spec, kWarmupS);

  // Closed loop: throughput.
  const ClosedLoop closed = RunClosedLoop(*fresh(), in, spec, closed_s);
  report->Ops(closed.ops, closed.failed);
  double traced_qps = 0;
  if (run.trace) {
    StartTracing();
    // Capped so each client's span ring (64Ki spans) holds the phase.
    const ClosedLoop traced = RunClosedLoop(*fresh(), in, spec,
                                            std::min(closed_s, kTracedClosedS));
    report->Ops(traced.ops, traced.failed);
    traced_qps = traced.ops_per_s;
  }

  // Open loop: latency from each op's due time.
  const int64_t max_ops = static_cast<int64_t>(kOpenRate * open_s);
  const std::vector<WorkloadOp> ops =
      serving::WorkloadGenerator(spec, 0).Take(max_ops);
  std::vector<Sample> samples(static_cast<size_t>(max_ops / kSampleEvery + 1));
  std::unique_ptr<ServerRegistry> registry = fresh();
  const OpenLoopResult open =
      RunOpenLoop(kClients, kOpenRate, kSpinNs, max_ops, nullptr,
                  [&](int64_t i) {
        Sample* sample = i % kSampleEvery == 0
                             ? &samples[static_cast<size_t>(i / kSampleEvery)]
                             : nullptr;
        return Execute(*registry, in, ops[static_cast<size_t>(i)], sample);
      });
  report->Ops(static_cast<int64_t>(open.op.size()), open.failed);
  Check(static_cast<int64_t>(open.op.size()) == max_ops,
        "open loop issued every scheduled op");
  report->setup_s += Median(setups);

  std::vector<double> lat, assign, topm, bulk, by_class[kClasses];
  for (size_t j = 0; j < open.op.size(); ++j) {
    const WorkloadOp& op = ops[static_cast<size_t>(open.op[j])];
    const double us = open.latency_us[j];
    switch (op.type) {
      case WorkloadOpType::kAssignOne:
        lat.push_back(us);
        assign.push_back(us);
        by_class[ClassOf(op.model)].push_back(us);
        break;
      case WorkloadOpType::kAssignTopM:
        lat.push_back(us);
        topm.push_back(us);
        break;
      case WorkloadOpType::kBulk:
        bulk.push_back(us);
        break;
    }
  }
  std::printf("serve: closed loop %.1f ops/s (median of %.1f s slices, %"
              PRId64 " ops); open loop %zu ops, assign+top-m p50 %.2f us p99 "
              "%.2f us over all %zu samples (windowed p99 %.2f us), client "
              "late p99 %.2f us\n",
              closed.ops_per_s, kSliceNs * 1e-9, closed.ops, open.op.size(),
              Quantile(lat, 0.5), Quantile(lat, 0.99), lat.size(),
              WindowedQuantile(lat, kLatencyWindow, 0.99),
              Quantile(open.late_us, 0.99));
  report->E2E("serve_qps", closed.ops_per_s, "ops/s");
  report->E2E("serve_p50_us", WindowedQuantile(lat, kLatencyWindow, 0.5),
              "us");

  if (run.trace) {
    // Prune counters first: the scan probes below add to them.
    int64_t scanned[2] = {0, 0}, pruned[2] = {0, 0}, fallbacks = 0;
    int64_t batches[kClasses] = {}, batched[kClasses] = {};
    for (int64_t r = 0; r < kTenants; ++r) {
      const auto stats = Unwrap(registry->stats(TenantName(r)), "stats");
      batches[ClassOf(r)] += stats.batcher.batches;
      batched[ClassOf(r)] += stats.batcher.batched_points;
      fallbacks += stats.prune.exact_fallbacks;
      if (Pruned(r)) {
        Check(stats.pruned, "a pruned tenant serves flat");
        scanned[Clustered(r) ? 0 : 1] += stats.prune.groups_scanned;
        pruned[Clustered(r) ? 0 : 1] += stats.prune.groups_pruned;
      }
    }
    double scan_us[kClasses] = {};
    ProbeScans(*registry, in, ops, scan_us);
    StopTracing();
    for (int c = 0; c < kClasses; ++c) {
      const std::string cls = kClassNames[c];
      const double p50 = Quantile(by_class[c], 0.5);
      report->Layer("distance.scan_us." + cls, scan_us[c], "us");
      report->Layer("serving.batch_mean." + cls,
                    batches[c] == 0 ? 0.0
                                    : static_cast<double>(batched[c]) /
                                          static_cast<double>(batches[c]),
                    "points");
      report->Layer("serving.p50_us." + cls, p50, "us");
      report->Layer("serving.wait_us." + cls, p50 - scan_us[c], "us");
    }
    report->Layer("serving.assign_p50_us", Quantile(assign, 0.5), "us");
    report->Layer("serve_p99_us",
                  WindowedQuantile(lat, kLatencyWindow, 0.99), "us");
    report->Layer("serving.topm_p50_us", Quantile(topm, 0.5), "us");
    report->Layer("serving.bulk_p50_us", Quantile(bulk, 0.5), "us");
    const char* const kinds[2] = {"clustered", "diffuse"};
    for (int s = 0; s < 2; ++s) {
      report->Layer(std::string("serving.groups_scanned_frac.") + kinds[s],
                    static_cast<double>(scanned[s]) /
                        static_cast<double>(scanned[s] + pruned[s]),
                    "ratio");
    }
    report->Layer("serving.exact_fallbacks", static_cast<double>(fallbacks),
                  "count");
    report->Layer("serving.build_s.flat", Median(flat_build_s), "s");
    report->Layer("serving.build_s.pruned", Median(pruned_build_s), "s");
    report->Layer("bench.client_late_us", Quantile(open.late_us, 0.99),
                  "us");
    report->Layer("trace.overhead_frac.serve_zipf",
                  traced_qps / closed.ops_per_s - 1, "ratio");
  }
  registry.reset();
  CheckAgainstTwins(in, ops, samples, open.op);
}

}  // namespace kmeansll::perfbench
