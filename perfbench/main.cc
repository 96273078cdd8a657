// perfbench: the repository benchmark. One run executes the train, serve
// and ingest stages in that order; the workload picks the stage that runs
// at full size, and the other two run at companion size. See README.md
// here for the workloads, the metrics and how to read them.
//
//   perfbench --workload train_sharded|serve_zipf|ingest_refine
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--trace-out FILE]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones; the last stdout line is the JSON result. A failed output check
// exits with status 1.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"

namespace kmeansll::perfbench {
namespace {

constexpr double kFullShare = 0.6;  // of --seconds; companions get the rest

RunOptions ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    Check(arg.rfind("--", 0) == 0, "unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      Check(i + 1 < argc, "flag --" + arg + " needs a value");
      flags[arg] = argv[++i];
    }
  }
  RunOptions run;
  run.workload = flags["workload"];
  run.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  run.seconds = flags.count("seconds") ? std::strtod(flags["seconds"].c_str(),
                                                     nullptr)
                                       : 10.0;
  run.trace = flags["trace"] == "1";
  run.workdir = flags["workdir"];
  run.trace_out = flags["trace-out"];
  Check(!run.workdir.empty(), "--workdir is required");
  Check(run.seconds > 0, "--seconds must be positive");
  return run;
}

void PrintResult(const Report& report, bool traced) {
  const std::vector<Metric>& metrics =
      traced ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace kmeansll::perfbench

int main(int argc, char** argv) {
  using namespace kmeansll::perfbench;
  const RunOptions run = ParseArgs(argc, argv);
  const bool train = run.workload == "train_sharded";
  const bool serve = run.workload == "serve_zipf";
  const bool ingest = run.workload == "ingest_refine";
  Check(train || serve || ingest, "unknown workload '" + run.workload + "'");
  auto budget = [&](bool full) {
    return run.seconds * (full ? kFullShare : (1 - kFullShare) / 2);
  };
  std::printf(
      "perfbench: workload %s, seed %" PRIu64 ", %.1f s, trace %d\n"
      "note: shards and the oplog sit in the OS page cache on the host's "
      "disk; read rates are the page cache's, while fsyncs are real\n",
      run.workload.c_str(), run.seed, run.seconds, run.trace ? 1 : 0);

  Report report;
  RunTrainStage(run, train, budget(train), &report);
  RunServeStage(run, serve, budget(serve), &report);
  RunIngestStage(run, ingest, budget(ingest), &report);
  report.E2E("setup_s", report.setup_s, "s");
  if (run.trace) SummarizeSpans(run.trace_out, &report);
  std::fflush(stdout);
  PrintResult(report, run.trace);
  return 0;
}
