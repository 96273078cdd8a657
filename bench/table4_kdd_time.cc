// Table 4 of the paper: running time (minutes) on KDDCup1999 in the
// parallel (Hadoop) setting.
//
// Substitution: the real algorithms run here single-core to produce
// their true telemetry (rounds, intermediate-set sizes, Lloyd
// iterations); the simcluster cost model — calibrated to this host's
// measured kernel throughput — converts that telemetry into modeled
// minutes on an m-machine cluster at paper scale (n = 4.8M, d = 42,
// k ∈ {500, 1000}). Both measured single-core seconds (at bench scale)
// and modeled cluster minutes (at paper scale) are reported.
//
// Expected shape: k-means|| (ℓ ≥ 0.5k) much faster than both Random
// (20 full Lloyd iterations) and Partition (parallelism-capped round 1 +
// giant sequential recluster).

#include <cmath>

#include "kdd_common.h"
#include "simcluster/cost_model.h"

namespace kmeansll::bench {
namespace {

using simcluster::ClusterConfig;
using simcluster::CostModel;
using simcluster::JobWork;

/// Models one method's Table-4 minutes at paper scale. Following the
/// paper's accounting, the seeded methods are charged for their
/// initialization routine, while Random — whose "initialization" is
/// trivial — is charged for the 20 bounded Lloyd iterations that produce
/// its clustering (Random's 300/489 min in the paper are exactly its
/// Lloyd budget).
double ModeledMinutes(const KddMethodResult& result, const CostModel& model,
                      int64_t paper_n, int64_t paper_k, int64_t bench_k) {
  const int64_t d = 42;
  // k-means||'s intermediate set is ≈ r·ℓ ∝ k: transplant the measured
  // size scaled by paper_k / bench_k.
  double k_scale =
      static_cast<double>(paper_k) / static_cast<double>(bench_k);
  auto intermediate = static_cast<int64_t>(
      std::llround(result.intermediate_centers * k_scale));

  std::vector<JobWork> jobs;
  switch (result.init) {
    case InitMethod::kRandom: {
      jobs = simcluster::RandomInitProfile(paper_n, d);
      auto lloyd = simcluster::LloydProfile(paper_n, d, paper_k, 20,
                                            model.config().num_machines);
      jobs.insert(jobs.end(), lloyd.begin(), lloyd.end());
      break;
    }
    case InitMethod::kPartition: {
      auto m = static_cast<int64_t>(std::llround(std::sqrt(
          static_cast<double>(paper_n) / static_cast<double>(paper_k))));
      // Partition's intermediate set is 3·√(n·k)·ln k — it grows with n
      // as well as k, so compute it from the formula at paper scale
      // (this reproduces the paper's own 9.5e5 / 1.47e6 for Table 5).
      double formula = 3.0 *
                       std::sqrt(static_cast<double>(paper_n) *
                                 static_cast<double>(paper_k)) *
                       std::log(static_cast<double>(paper_k));
      intermediate = static_cast<int64_t>(std::llround(
          std::min(static_cast<double>(paper_n), formula)));
      jobs = simcluster::PartitionProfile(paper_n, d, paper_k, m,
                                          intermediate);
      break;
    }
    case InitMethod::kKMeansParallel:
      jobs = simcluster::KMeansLLProfile(paper_n, d, paper_k,
                                         result.oversampling * k_scale,
                                         result.rounds, intermediate);
      break;
    case InitMethod::kKMeansPP:
      break;  // not part of Table 4
  }
  return model.TotalSeconds(jobs) / 60.0;
}

void Run(int argc, char** argv) {
  eval::Args args(argc, argv);
  const int64_t n = DataSize(args, 32768);
  const int64_t k1 = args.GetInt("k1", 50);
  const int64_t k2 = args.GetInt("k2", 100);
  const int64_t paper_n = args.GetInt("paper_n", 4800000);
  const int64_t paper_k1 = args.GetInt("paper_k1", 500);
  const int64_t paper_k2 = args.GetInt("paper_k2", 1000);
  const int64_t machines = args.GetInt("machines", 50);
  const int64_t trials = Trials(args, 3);

  Dataset data = MakeKddData(n);
  PrintHeader(
      "Table 4: KDD-like running time",
      "measured: single-core seconds at n=" + std::to_string(n) +
          ", k in {" + std::to_string(k1) + "," + std::to_string(k2) +
          "}\nmodeled: minutes on " + std::to_string(machines) +
          "-machine cluster at paper scale (n=4.8M, k in {500,1000})");

  ClusterConfig cluster;
  cluster.num_machines = machines;
  // Effective 2012-Hadoop per-flop cost (JVM + serialization + disk
  // between jobs): chosen so one Lloyd iteration at n=4.8M, k=1000 costs
  // ~25 modeled minutes, matching Random's 489 min / 20 iterations in
  // the paper. Override with --spf; --spf=host uses this machine's
  // calibrated kernel throughput instead.
  cluster.seconds_per_flop = args.GetDouble("spf", 1.2e-7);
  cluster.job_setup_seconds = args.GetDouble("setup", 30.0);
  if (args.GetString("spf", "") == "host") {
    cluster.seconds_per_flop = simcluster::CalibrateSecondsPerFlop();
  }
  CostModel model(cluster);
  std::cout << "host-calibrated seconds/flop: "
            << eval::Cell(simcluster::CalibrateSecondsPerFlop(), 2)
            << "; model uses " << eval::Cell(cluster.seconds_per_flop, 2)
            << "\n\n";

  KddExperiment e1 = RunKddExperiment(data, k1, trials);
  KddExperiment e2 = RunKddExperiment(data, k2, trials);

  eval::TablePrinter table(
      {"method", "k=" + std::to_string(k1) + " meas(s)",
       "k=" + std::to_string(k2) + " meas(s)",
       "k=" + std::to_string(paper_k1) + " model(min)",
       "k=" + std::to_string(paper_k2) + " model(min)"});
  for (size_t m = 0; m < e1.methods.size(); ++m) {
    // Measured column mirrors the modeled accounting: init time for the
    // seeded methods, init + 20-iteration Lloyd for Random.
    bool is_random = e1.methods[m].init == InitMethod::kRandom;
    double meas1 = is_random ? e1.methods[m].measured_seconds
                             : e1.methods[m].init_seconds;
    double meas2 = is_random ? e2.methods[m].measured_seconds
                             : e2.methods[m].init_seconds;
    table.AddRow(
        {e1.methods[m].name, eval::Cell(meas1, 1), eval::Cell(meas2, 1),
         eval::Cell(ModeledMinutes(e1.methods[m], model, paper_n, paper_k1,
                                   k1),
                    1),
         eval::Cell(ModeledMinutes(e2.methods[m], model, paper_n, paper_k2,
                                   k2),
                    1)});
  }
  Emit(table, "table4_kdd_time");
}

}  // namespace
}  // namespace kmeansll::bench

int main(int argc, char** argv) {
  kmeansll::bench::Run(argc, argv);
  return 0;
}
