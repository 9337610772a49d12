// perfbench — end-to-end benchmark driver for OEBench-C++.
//
//   perfbench --workload sweep_grid|serve_fanout --seed N
//             --seconds S --trace 0|1 [--rev REV] [--trace-out PATH]
//             [--perturb-reference]
//
// Prints one `metric <name> <value> <unit>` line per metric, a
// `provenance {...}` line, and as its last line `result {...}` with the
// correctness verdict and the metric values. run.py builds this binary
// and turns that line into the benchmark's JSON result.
//
// Exit codes: 0 correct and valid; 1 an output differed from its
// reference or an operation failed (result still printed); 2 usage;
// 3 the run is invalid (no result printed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"capacity_rps", "1/s"}, {"result_p50_ms", "ms"},
    {"result_p99_ms", "ms"}, {"peak_rss_mb", "MiB"},
};

const char* const kLearners[] = {"Naive-NN",   "iCaRL",  "Naive-DT",
                                 "Naive-GBDT", "SEA-DT", "SEA-GBDT"};

std::vector<MetricDef> PerLayerDefs() {
  std::vector<MetricDef> defs = {
      {"streamgen.generate_s", "s"},
      {"streamgen.rows_per_s", "1/s"},
      {"preprocess.context_build_s", "s"},
      {"preprocess.contexts_built", "count"},
      {"preprocess.window_prepare_s", "s"},
      {"preprocess.impute_s", "s"},
      {"preprocess.detect_s", "s"},
  };
  for (const char* learner : kLearners) {
    const std::string base = std::string("learner.") + learner;
    defs.push_back({base + ".train_s", "s"});
    defs.push_back({base + ".test_s", "s"});
    defs.push_back({base + ".windows", "count"});
  }
  const std::vector<MetricDef> rest = {
      {"learner.train_s", "s"},
      {"learner.train_share", "frac"},
      {"evaluator.self_s", "s"},
      {"parallel_eval.task_s", "s"},
      {"parallel_eval.utilization", "frac"},
      {"parallel_eval.longest_task_s", "s"},
      {"parallel_eval.longest_task_share", "frac"},
      {"parallel_eval.tail_idle_s", "s"},
      {"parallel_eval.tasks_failed", "count"},
      {"parallel_eval.wall_s", "s"},
      {"serve.admission.offer_s", "s"},
      {"serve.admission.offers", "count"},
      {"serve.admission.overloaded", "count"},
      {"serve.admission.accept_ratio", "frac"},
      {"serve.server.backlog_peak", "records"},
      {"serve.server.drain_s", "s"},
      {"serve.session.init_s", "s"},
      {"serve.session.quarantined", "count"},
      {"serve.state_pool.hit_ratio", "frac"},
      {"serve.state_pool.bytes_held", "bytes"},
      {"trace.overhead_frac", "frac"},
      {"trace.busy_s", "s"},
      {"trace.self_sum_s", "s"},
      {"trace.attribution_error", "frac"},
      {"trace.spans", "count"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

/// Summed self times must account for traced busy time within this
/// share (the layer-attribution identity).
constexpr double kAttributionTolerance = 0.01;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep_grid|serve_fanout --seed N --seconds S "
               "--trace 0|1 [--rev REV] [--trace-out PATH] "
               "[--perturb-reference]\n",
               error.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  Options options;
  std::string rev = "unknown";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      options.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') Usage("bad --seed " + text);
    } else if (flag == "--seconds") {
      const std::string text = value();
      char* end = nullptr;
      options.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        Usage("bad --seconds " + text);
      }
    } else if (flag == "--trace") {
      const std::string text = value();
      if (text != "0" && text != "1") Usage("--trace takes 0 or 1");
      options.trace = text == "1";
    } else if (flag == "--rev") {
      rev = value();
    } else if (flag == "--trace-out") {
      trace_out = value();
    } else if (flag == "--perturb-reference") {
      options.perturb_reference = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }

  Report report;
  if (options.workload == "sweep_grid") {
    report = RunSweepGrid(options);
  } else if (options.workload == "serve_fanout") {
    report = RunServeFanout(options);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (report.threads > nproc) {
    report.invalid.push_back("run uses " + std::to_string(report.threads) +
                             " threads on " + std::to_string(nproc) +
                             " cores");
  }
  if (options.trace &&
      report.per_layer["trace.attribution_error"] > kAttributionTolerance) {
    report.invalid.push_back(
        "layer self times do not account for traced busy time");
  }
  const std::vector<MetricDef> defs =
      options.trace ? PerLayerDefs() : kEndToEnd;
  std::map<std::string, double>& values =
      options.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, unit] : defs) {
    // Layers a workload bypasses read 0.
    std::printf("metric %s %.6g %s\n", name.c_str(), values[name],
                unit.c_str());
  }

  // Values are JSON already: strings quoted, numbers bare.
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", JsonString(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"seconds", Num(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"rev", JsonString(rev)},
      {"build_type", JsonString(PERFBENCH_BUILD_TYPE)},
      {"compiler", JsonString(PERFBENCH_COMPILER)},
      {"nproc", std::to_string(nproc)},
      {"threads", std::to_string(report.threads)},
  };
  for (const auto& [key, value] : report.params) {
    fields.push_back({key, JsonString(value)});
  }
  fields.push_back({"valid", report.invalid.empty() ? "true" : "false"});
  std::string provenance = "{";
  for (const auto& [key, value] : fields) {
    if (provenance.size() > 1) provenance += ',';
    provenance += JsonString(key);
    provenance += ':';
    provenance += value;
  }
  provenance += '}';
  std::printf("provenance %s\n", provenance.c_str());

  if (options.trace && !trace_out.empty()) {
    std::map<std::string, std::string> metadata = {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"rev", rev}};
    if (!WriteChromeTrace(trace_out, report.spans, metadata)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("trace %s (%zu spans)\n", trace_out.c_str(),
                report.spans.size());
  }
  if (!report.invalid.empty()) {
    for (const std::string& reason : report.invalid) {
      std::fprintf(stderr, "perfbench: INVALID RUN: %s\n", reason.c_str());
    }
    std::fflush(stdout);
    return 3;
  }

  const bool correct = report.failed == 0;
  std::string result = std::string("{\"correct\":") +
                       (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(report.attempted) +
                       ",\"failed\":" + std::to_string(report.failed) +
                       ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] : defs) {
    result += std::string(first ? "" : ",") + JsonString(name) +
              ":{\"value\":" + Num(values[name]) +
              ",\"unit\":" + JsonString(unit) + "}";
    first = false;
  }
  result += "}}";
  if (!correct) {
    std::fprintf(stderr, "perfbench: %lld of %lld operations failed\n",
                 static_cast<long long>(report.failed),
                 static_cast<long long>(report.attempted));
  }
  std::printf("result %s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
