// The three end-to-end workloads of the benchmark (see README.md for why
// each exists and what every metric means). Each drives the library only
// through its public functions and times those calls from here.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase; every phase of a run scales with it.
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: flips one bit of the batch reference so the correctness
  /// gate must fail.
  bool perturb_reference = false;
};

/// What one workload run measured. Metric maps are keyed by the names in
/// BENCHMARK.json; the driver fills in units and absent layers.
struct Report {
  /// Operations attempted (tasks, sessions) and those that failed: a
  /// failed task, a quarantined session, or an output that differed from
  /// its reference. Any failure makes the run incorrect.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Workload parameters, stamped into the provenance line.
  std::vector<std::pair<std::string, std::string>> params;
  /// Threads the run keeps busy at once (workers + generator).
  int threads = 0;
  /// Reasons the run is invalid (empty = valid).
  std::vector<std::string> invalid;
  /// Every span of a traced run, for the trace file.
  std::vector<Span> spans;
};

Report RunSweepGrid(const Options& options);
Report RunServeFanout(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
