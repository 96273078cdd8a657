// Shared helpers for the table/figure reproduction harnesses.
//
// Scaling: the paper's KDDCup1999 runs use n = 4.8M on a 1968-node
// cluster; the defaults here are sized for a single-core container.
// Every harness accepts --n/--k/--trials overrides
// and honors KMEANSLL_BENCH_TRIALS / KMEANSLL_BENCH_N environment
// variables, so larger machines can run closer to paper scale.

#ifndef KMEANSLL_BENCH_BENCH_UTIL_H_
#define KMEANSLL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/env.h"
#include "core/kmeans.h"
#include "data/synthetic.h"
#include "eval/args.h"
#include "eval/table.h"
#include "eval/trials.h"
#include "rng/rng.h"

namespace kmeansll::bench {

/// Trial count: --trials flag, else KMEANSLL_BENCH_TRIALS, else fallback.
inline int64_t Trials(const eval::Args& args, int64_t fallback) {
  return args.GetInt("trials",
                     GetEnvInt64("KMEANSLL_BENCH_TRIALS", fallback));
}

/// Dataset size: --n flag, else KMEANSLL_BENCH_N, else fallback.
inline int64_t DataSize(const eval::Args& args, int64_t fallback) {
  return args.GetInt("n", GetEnvInt64("KMEANSLL_BENCH_N", fallback));
}

/// Runs one full pipeline (init + Lloyd) and returns the report.
inline KMeansReport Fit(const Dataset& data, const KMeansConfig& config) {
  auto report = KMeans(config).Fit(data);
  report.status().Abort("bench Fit");
  return std::move(report).ValueOrDie();
}

/// Prints a standard bench header.
inline void PrintHeader(const std::string& title,
                        const std::string& workload) {
  std::cout << "=== " << title << " ===\n" << workload << "\n\n";
}

/// Prints the table and mirrors it to bench_out/<name>.tsv.
inline void Emit(eval::TablePrinter& table, const std::string& name) {
  table.Print(std::cout);
  std::string path = eval::TsvOutputPath(name);
  Status status = table.WriteTsv(path);
  if (status.ok()) {
    std::cout << "\n[written " << path << "]\n";
  } else {
    std::cout << "\n[tsv not written: " << status.ToString() << "]\n";
  }
}

}  // namespace kmeansll::bench

#endif  // KMEANSLL_BENCH_BENCH_UTIL_H_
