#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/parallel_eval.h"
#include "preprocess/pipeline.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/state_pool.h"
#include "streamgen/corpus.h"
#include "streamgen/stream_generator.h"

namespace perfbench {
namespace {

using oebench::EvalResult;
using oebench::GeneratedStream;
using oebench::LearnerConfig;
using oebench::PipelineOptions;
using oebench::PreparedStream;
using oebench::StreamContext;
using oebench::StreamLearner;
using oebench::StreamSpec;
using oebench::WindowData;
namespace serve = oebench::serve;

// ---------------------------------------------------------------------------
// Fixed workload shapes. Changing any of these changes what the benchmark
// measures; the values are stamped into every result's provenance.
//
// Every workload keeps two threads busy: two sweep workers, or one engine
// worker plus the benchmark's generator thread. On a shared virtual
// machine the host takes CPU from busy cores: in contended periods four
// busy threads lost up to half of their CPU time, two about 5%, and that
// moved results between runs far more than a change worth measuring.

/// sweep_grid: 31 corpus entries at the sweep's default scale, GBDT-heavy
/// INSECTS entries first so the longest tasks start early and no single
/// task sets the end of the grid.
constexpr double kSweepScale = 0.03;
constexpr int kSweepThreads = 2;
const char* const kSweepEntries[] = {
    "insects_incr_reocc_bal", "insects_incr_abrupt_bal",
    "insects_incr_bal",       "insects_abrupt_bal",
    "insects_gradual_bal",    "portugal_election",
    "news_popularity",        "room_occupancy",
    "electricity_prices",     "noaa_weather",
    "metro_traffic",          "five_cities_pm25_beijing",
    "five_cities_pm25_chengdu", "five_cities_pm25_guangzhou",
    "five_cities_pm25_shanghai", "five_cities_pm25_shenyang",
    "tetouan_power",          "beijing_air_aotizhongxin",
    "beijing_air_changping",  "beijing_air_dingling",
    "beijing_air_dongsi",     "beijing_air_guanyuan",
    "beijing_air_gucheng",    "beijing_air_huairou",
    "beijing_air_nongzhanguan", "beijing_air_shunyi",
    "beijing_air_tiantan",    "beijing_air_wanliu",
    "beijing_air_wanshouxigong", "beijing_pm25",
    "bike_sharing",
};
/// The learners oebench_sweep runs, in its column order.
const char* const kSweepLearners[] = {"Naive-NN",   "iCaRL",  "Naive-DT",
                                      "Naive-GBDT", "SEA-DT", "SEA-GBDT"};

constexpr int kServeWorkers = 1;

/// serve_fanout: 1000 sessions over 8 specs, state pool on, 64-record
/// batches, Naive-NN at one epoch, replayed at full speed.
constexpr int kFanoutSessions = 1000;
const char* const kFanoutEntries[] = {
    "household_power", "airlines",        "insects_abrupt_imbal",
    "kddcup99",        "allstate_claims", "insects_gradual_imbal",
    "room_occupancy",  "electricity_prices"};
constexpr double kFanoutScale = 0.03;
constexpr size_t kFanoutWindows = 2;
constexpr int64_t kFanoutBatch = 64;

// ---------------------------------------------------------------------------
// Small helpers.

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t Mix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Digest of everything deterministic in a prequential result: the
/// per-window losses, the aggregates and the item and memory counts.
/// Wall-clock fields are left out.
uint64_t Digest(const EvalResult& result) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : result.learner + "|" + result.dataset) {
    hash = Mix(hash, static_cast<unsigned char>(c));
  }
  hash = Mix(hash, static_cast<uint64_t>(result.items_processed));
  hash = Mix(hash, static_cast<uint64_t>(result.peak_memory_bytes));
  hash = Mix(hash, Bits(result.mean_loss));
  hash = Mix(hash, Bits(result.faded_loss));
  for (double loss : result.per_window_loss) hash = Mix(hash, Bits(loss));
  return hash;
}

/// One hex digest over a list of result digests: equal on every run of
/// one seed, whatever the driver or thread count.
std::string DigestOfDigests(const std::vector<uint64_t>& digests) {
  uint64_t hash = 14695981039346656037ULL;
  for (uint64_t digest : digests) hash = Mix(hash, digest);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Flips the lowest bit of the first loss — the perturbed reference the
/// gate's own test uses.
void Perturb(EvalResult* result) {
  double* target = result->per_window_loss.empty()
                       ? &result->mean_loss
                       : &result->per_window_loss.front();
  uint64_t bits = Bits(*target) ^ 1ULL;
  std::memcpy(target, &bits, sizeof(bits));
}

std::string Fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const oebench::CorpusEntry& EntryByName(const std::string& name) {
  for (const oebench::CorpusEntry& entry : oebench::Corpus()) {
    if (entry.name == name) return entry;
  }
  std::fprintf(stderr, "perfbench: corpus entry '%s' not found\n",
               name.c_str());
  std::exit(1);
}

/// Collects the spans of one phase of a traced run; a no-op untraced.
class PhaseSpans {
 public:
  explicit PhaseSpans(Tracer* tracer) : tracer_(tracer) {}
  /// Moves the spans recorded since the last call out of the tracer and
  /// appends them to the run's full list; returns this phase's spans.
  std::vector<Span> Take() {
    if (tracer_ == nullptr) return {};
    std::vector<Span> phase = tracer_->Spans();
    tracer_->Clear();
    const int64_t offset = static_cast<int64_t>(all_.size());
    for (Span span : phase) {
      if (span.parent >= 0) span.parent += offset;
      all_.push_back(std::move(span));
    }
    return phase;
  }
  std::vector<Span>& all() { return all_; }

 private:
  Tracer* tracer_;
  std::vector<Span> all_;
};

/// Forwards to a learner, recording a span around each test and train
/// call. Results are those of the wrapped learner, bit for bit.
class TracingLearner : public StreamLearner {
 public:
  TracingLearner(std::unique_ptr<StreamLearner> inner, const std::string& name,
                 int64_t request_id)
      : inner_(std::move(inner)),
        test_span_("learner." + name + ".test"),
        train_span_("learner." + name + ".train"),
        request_id_(request_id) {}

  void Begin(const PreparedStream& stream) override { inner_->Begin(stream); }
  double TestLoss(const WindowData& window) override {
    ScopedSpan span(test_span_, request_id_);
    return inner_->TestLoss(window);
  }
  void TrainWindow(const WindowData& window) override {
    ScopedSpan span(train_span_, request_id_);
    inner_->TrainWindow(window);
  }
  std::string name() const override { return inner_->name(); }
  int64_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  std::unique_ptr<StreamLearner> inner_;
  const std::string test_span_;
  const std::string train_span_;
  const int64_t request_id_;
};

/// Generates one stream inside a streamgen span.
std::shared_ptr<const GeneratedStream> Generate(const StreamSpec& spec,
                                                int64_t request_id) {
  ScopedSpan span("streamgen.generate", request_id);
  oebench::Result<GeneratedStream> stream = oebench::GenerateStream(spec);
  if (!stream.ok()) {
    std::fprintf(stderr, "perfbench: generating %s failed: %s\n",
                 spec.name.c_str(), stream.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<const GeneratedStream>(std::move(*stream));
}

StreamContext BuildContext(const GeneratedStream& stream, int64_t request_id) {
  ScopedSpan span("preprocess.context_build", request_id);
  oebench::Result<StreamContext> ctx =
      oebench::BuildStreamContext(stream, PipelineOptions());
  if (!ctx.ok()) {
    std::fprintf(stderr, "perfbench: context for %s failed: %s\n",
                 stream.spec.name.c_str(), ctx.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*ctx);
}

/// Second half of PrepareStream: every window of `ctx` (the first
/// `max_windows`, when non-zero) through a fresh WindowPipeline.
PreparedStream PrepareWindows(const StreamContext& ctx, size_t max_windows,
                              int64_t request_id, double* impute_s,
                              double* detect_s) {
  ScopedSpan span("preprocess.window_prepare", request_id);
  auto pipeline = oebench::WindowPipeline::Create(ctx.options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  size_t windows = ctx.ranges.size();
  if (max_windows > 0) windows = std::min(windows, max_windows);
  PreparedStream out = ctx.Header();
  for (size_t w = 0; w < windows; ++w) {
    auto window = (*pipeline)->PrepareWindow(ctx, w);
    if (!window.ok()) {
      std::fprintf(stderr, "perfbench: window %zu of %s: %s\n", w,
                   ctx.name.c_str(), window.status().ToString().c_str());
      std::exit(1);
    }
    out.windows.push_back(std::move(*window));
  }
  out.ranges.assign(ctx.ranges.begin(), ctx.ranges.begin() + windows);
  *impute_s = (*pipeline)->impute_seconds();
  *detect_s = (*pipeline)->detect_seconds();
  return out;
}

/// One prequential task: a fresh learner (traced when a tracer is
/// installed) run test-then-train over `stream`.
EvalResult RunTask(const std::string& learner_name, const LearnerConfig& config,
                   const PreparedStream& stream, int64_t request_id) {
  auto learner = oebench::MakeLearner(learner_name, config, stream.task,
                                      stream.num_classes);
  if (!learner.ok()) {
    std::fprintf(stderr, "perfbench: %s on %s: %s\n", learner_name.c_str(),
                 stream.name.c_str(), learner.status().ToString().c_str());
    std::exit(1);
  }
  if (Tracer::Active() == nullptr) {
    return oebench::RunPrequential(learner->get(), stream);
  }
  TracingLearner traced(std::move(*learner), learner_name, request_id);
  return oebench::RunPrequential(&traced, stream);
}

/// Learner-layer metrics from spans: the self time of each learner's test
/// and train calls, its trained windows, and the total train time.
void AddLearnerLayers(const std::map<std::string, LayerTime>& layers,
                      std::map<std::string, double>* out) {
  double train_total = 0.0;
  for (const auto& [name, layer] : layers) {
    if (name.rfind("learner.", 0) != 0) continue;
    const bool train =
        name.size() > 6 && name.substr(name.size() - 6) == ".train";
    const std::string base = name.substr(0, name.rfind('.'));
    if (train) {
      (*out)[base + ".train_s"] += layer.self_s;
      (*out)[base + ".windows"] += static_cast<double>(layer.count);
      train_total += layer.self_s;
    } else {
      (*out)[base + ".test_s"] += layer.self_s;
    }
  }
  (*out)["learner.train_s"] = train_total;
}

double LayerSelf(const std::map<std::string, LayerTime>& layers,
                 const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.self_s;
}

int64_t LayerCount(const std::map<std::string, LayerTime>& layers,
                   const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0 : it->second.count;
}

/// Fills the trace bookkeeping metrics from all spans of a traced run:
/// the busy time and the summed self times that must account for it.
void AddTraceTotals(const std::vector<Span>& spans,
                    std::map<std::string, double>* out) {
  const std::map<std::string, LayerTime> layers = LayerTimes(spans);
  double self_sum = 0.0;
  for (const auto& [name, layer] : layers) self_sum += layer.self_s;
  const double busy = BusySeconds(spans);
  (*out)["trace.busy_s"] = busy;
  (*out)["trace.self_sum_s"] = self_sum;
  (*out)["trace.attribution_error"] =
      busy > 0.0 ? std::fabs(self_sum - busy) / busy : 0.0;
  (*out)["trace.spans"] = static_cast<double>(spans.size());
}

// ---------------------------------------------------------------------------
// sweep_grid

struct SweepInputs {
  std::vector<std::shared_ptr<const GeneratedStream>> streams;
  std::vector<StreamContext> contexts;
  int64_t rows = 0;
};

SweepInputs SweepSetup(uint64_t seed) {
  SweepInputs inputs;
  int64_t id = 0;
  for (const char* name : kSweepEntries) {
    const StreamSpec spec =
        oebench::SpecFromEntry(EntryByName(name), kSweepScale, seed);
    inputs.streams.push_back(Generate(spec, id));
    inputs.contexts.push_back(BuildContext(*inputs.streams.back(), id));
    inputs.rows += inputs.streams.back()->table.num_rows();
    ++id;
  }
  return inputs;
}

struct SweepPass {
  double wall_s = 0.0;
  /// Seconds from the pass start to each task's result.
  std::vector<double> done_s;
  int64_t records = 0;
  int64_t tasks = 0;
  int64_t tasks_failed = 0;
  /// One digest per executed task, in canonical (dataset, learner) order.
  std::vector<uint64_t> digests;
  double impute_s = 0.0;
  double detect_s = 0.0;
  double start = 0.0;
  double end = 0.0;
};

/// One pass of the grid: window preparation of every stream, then every
/// (stream, learner) task on kSweepThreads workers. `own_tasks` drives
/// RunPrequential per task from here (the traced run's path); otherwise
/// the grid goes through ParallelSweep.
SweepPass RunSweepPass(const SweepInputs& inputs, uint64_t seed,
                       bool own_tasks) {
  SweepPass pass;
  pass.start = NowSeconds();
  std::vector<PreparedStream> prepared(inputs.contexts.size());
  {
    oebench::ThreadPool pool(kSweepThreads);
    std::vector<std::future<std::pair<double, double>>> futures;
    for (size_t i = 0; i < inputs.contexts.size(); ++i) {
      futures.push_back(pool.Submit([&, i] {
        double impute = 0.0;
        double detect = 0.0;
        prepared[i] = PrepareWindows(inputs.contexts[i], 0,
                                     static_cast<int64_t>(i), &impute, &detect);
        return std::make_pair(impute, detect);
      }));
    }
    for (auto& f : futures) {
      auto [impute, detect] = f.get();
      pass.impute_s += impute;
      pass.detect_s += detect;
    }
  }
  const size_t num_learners = std::size(kSweepLearners);
  std::vector<EvalResult> results;
  std::vector<char> ok;
  if (own_tasks) {
    results.resize(prepared.size() * num_learners);
    ok.assign(results.size(), 0);
    pass.done_s.resize(results.size());
    oebench::ThreadPool pool(kSweepThreads);
    std::vector<std::future<void>> futures;
    for (size_t d = 0; d < prepared.size(); ++d) {
      for (size_t l = 0; l < num_learners; ++l) {
        const size_t task = d * num_learners + l;
        futures.push_back(pool.Submit([&, d, l, task] {
          ScopedSpan span("parallel_eval.task", static_cast<int64_t>(task));
          LearnerConfig config;
          config.seed = oebench::TaskSeed(seed, prepared[d].name,
                                          kSweepLearners[l], 0);
          try {
            results[task] = RunTask(kSweepLearners[l], config, prepared[d],
                                    static_cast<int64_t>(task));
            ok[task] = 1;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: task %zu failed: %s\n", task,
                         e.what());
          }
          pass.done_s[task] = NowSeconds() - pass.start;
        }));
      }
    }
    for (auto& f : futures) f.get();
  } else {
    oebench::SweepConfig config;
    config.base_config.seed = seed;
    config.repeats = 1;
    config.threads = kSweepThreads;
    std::mutex mu;
    config.on_task_done = [&](const oebench::TaskIdentity&,
                              const EvalResult&) {
      const double done = NowSeconds() - pass.start;
      std::lock_guard<std::mutex> lock(mu);
      pass.done_s.push_back(done);
    };
    std::vector<std::string> learners(std::begin(kSweepLearners),
                                      std::end(kSweepLearners));
    oebench::SweepOutcome outcome =
        oebench::ParallelSweep(prepared, learners, config);
    pass.tasks_failed = outcome.tasks_failed;
    pass.tasks = outcome.tasks_run;
    for (const oebench::SweepRow& row : outcome.rows) {
      for (const oebench::SweepCell& cell : row.cells) {
        for (const EvalResult& run : cell.runs) {
          results.push_back(run);
          ok.push_back(1);
        }
      }
    }
  }
  pass.end = NowSeconds();
  pass.wall_s = pass.end - pass.start;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!ok[i]) {
      ++pass.tasks_failed;
      continue;
    }
    pass.records += results[i].items_processed;
    pass.digests.push_back(Digest(results[i]));
  }
  if (own_tasks) pass.tasks = static_cast<int64_t>(results.size());
  return pass;
}

}  // namespace

Report RunSweepGrid(const Options& options) {
  Report report;
  report.threads = kSweepThreads;
  report.params = {{"scale", Fmt(kSweepScale)},
                   {"entries", std::to_string(std::size(kSweepEntries))},
                   {"learners", std::to_string(std::size(kSweepLearners))},
                   {"repeats", "1"},
                   {"sweep_threads", std::to_string(kSweepThreads)}};
  Tracer tracer;
  Tracer* active = options.trace ? &tracer : nullptr;
  PhaseSpans phases(active);

  // Set-up: generate every stream and build its context. It is timed here
  // (traced in a traced run) and again after every timed pass, so that
  // setup_s, the median, samples the host over the whole run as the
  // passes do.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    SweepInputs out = SweepSetup(options.seed);
    setup_s.push_back(NowSeconds() - t0);
    return out;
  };
  Tracer::Install(active);
  const SweepInputs inputs = timed_setup();
  Tracer::Install(nullptr);
  const std::vector<Span> setup_spans = phases.Take();

  // Warm-up and reference: one untraced ParallelSweep pass. Every later
  // pass, through either driver, must reproduce its digests exactly.
  SweepPass reference = RunSweepPass(inputs, options.seed, false);
  if (options.perturb_reference && !reference.digests.empty()) {
    reference.digests.front() ^= 1ULL;
  }
  report.attempted += reference.tasks;
  report.failed += reference.tasks_failed;
  report.params.push_back(
      {"output_digest", DigestOfDigests(reference.digests)});

  auto check = [&](const SweepPass& pass) {
    report.attempted += pass.tasks;
    report.failed += pass.tasks_failed;
    if (pass.digests != reference.digests) {
      int64_t diff = 0;
      for (size_t i = 0; i < pass.digests.size(); ++i) {
        if (i >= reference.digests.size() ||
            pass.digests[i] != reference.digests[i]) {
          ++diff;
        }
      }
      diff += static_cast<int64_t>(reference.digests.size()) -
              static_cast<int64_t>(std::min(reference.digests.size(),
                                            pass.digests.size()));
      report.failed += std::max<int64_t>(diff, 1);
    }
  };

  const double phase_start = NowSeconds();
  auto more = [&](size_t passes) {
    return passes < 3 || NowSeconds() - phase_start < options.seconds;
  };
  if (!options.trace) {
    std::vector<double> walls, rates, done;
    for (size_t n = 0; more(n) && n < 64; ++n) {
      SweepPass pass = RunSweepPass(inputs, options.seed, false);
      check(pass);
      std::fprintf(stderr, "sweep pass %zu: %.3f s\n", n, pass.wall_s);
      walls.push_back(pass.wall_s);
      timed_setup();
      rates.push_back(static_cast<double>(pass.records) / pass.wall_s);
      done.insert(done.end(), pass.done_s.begin(), pass.done_s.end());
    }
    for (double& d : done) d *= 1000.0;
    report.end_to_end["setup_s"] = Median(setup_s);
    report.end_to_end["wall_s"] = Median(walls);
    report.end_to_end["capacity_rps"] = Median(rates);
    report.end_to_end["result_p50_ms"] = Quantile(done, 0.5);
    report.end_to_end["result_p99_ms"] = Quantile(done, 0.99);
    report.params.push_back({"timed_passes", std::to_string(walls.size())});
    report.params.push_back({"setups", std::to_string(setup_s.size())});
    report.params.push_back({"result_samples", std::to_string(done.size())});
  } else {
    // Alternate untraced and traced passes of the same driver; the
    // layer metrics come from the last traced pass.
    std::vector<double> untraced, traced;
    std::vector<Span> pass_spans;
    SweepPass last;
    for (size_t n = 0; more(n) && n < 32; ++n) {
      const bool trace_this = n % 2 == 1;
      Tracer::Install(trace_this ? active : nullptr);
      SweepPass pass = RunSweepPass(inputs, options.seed, true);
      Tracer::Install(nullptr);
      check(pass);
      (trace_this ? traced : untraced).push_back(pass.wall_s);
      if (trace_this) {
        pass_spans = phases.Take();
        last = pass;
      }
    }
    std::map<std::string, double>& m = report.per_layer;
    const auto setup_layers = LayerTimes(setup_spans);
    m["streamgen.generate_s"] = LayerSelf(setup_layers, "streamgen.generate");
    m["streamgen.rows_per_s"] =
        static_cast<double>(inputs.rows) / m["streamgen.generate_s"];
    m["preprocess.context_build_s"] =
        LayerSelf(setup_layers, "preprocess.context_build");
    m["preprocess.contexts_built"] = static_cast<double>(
        LayerCount(setup_layers, "preprocess.context_build"));
    const auto layers = LayerTimes(pass_spans);
    m["preprocess.window_prepare_s"] =
        LayerSelf(layers, "preprocess.window_prepare");
    m["preprocess.impute_s"] = last.impute_s;
    m["preprocess.detect_s"] = last.detect_s;
    AddLearnerLayers(layers, &m);
    m["evaluator.self_s"] = LayerSelf(layers, "parallel_eval.task");
    double task_s = 0.0, longest = 0.0;
    std::map<int, double> last_end;
    for (const Span& span : pass_spans) {
      if (span.name != "parallel_eval.task") continue;
      task_s += span.end - span.start;
      longest = std::max(longest, span.end - span.start);
      last_end[span.thread] = std::max(last_end[span.thread], span.end);
    }
    double first_idle = last.end;
    for (const auto& [thread, end] : last_end) {
      first_idle = std::min(first_idle, end);
    }
    m["parallel_eval.task_s"] = task_s;
    m["parallel_eval.utilization"] = task_s / (kSweepThreads * last.wall_s);
    m["parallel_eval.longest_task_s"] = longest;
    m["parallel_eval.longest_task_share"] = longest / last.wall_s;
    m["parallel_eval.tail_idle_s"] = last.end - first_idle;
    m["parallel_eval.tasks_failed"] = static_cast<double>(last.tasks_failed);
    m["parallel_eval.wall_s"] = last.wall_s;
    m["trace.overhead_frac"] = Median(traced) / Median(untraced) - 1.0;
    report.params.push_back({"traced_passes", std::to_string(traced.size())});
    report.params.push_back(
        {"untraced_passes", std::to_string(untraced.size())});
    AddTraceTotals(phases.all(), &m);
    m["learner.train_share"] = m["learner.train_s"] / m["trace.busy_s"];
    report.spans = std::move(phases.all());
  }
  report.end_to_end["peak_rss_mb"] = PeakRssMb();
  return report;
}

// ---------------------------------------------------------------------------
// Serve workloads: shared machinery.

namespace {

/// One offer of the generator's schedule: the next `count` records of
/// session `session`; `last` marks the session's final records (its end
/// sentinel follows).
struct Event {
  int32_t session = 0;
  int32_t count = 0;
  bool last = false;
};

/// Full-speed schedule: round-robin over all sessions, `batch` records a
/// turn.
std::vector<Event> FullSpeedSchedule(const std::vector<int64_t>& rows,
                                     int64_t batch) {
  std::vector<Event> events;
  std::vector<int64_t> left = rows;
  bool any = true;
  while (any) {
    any = false;
    for (size_t s = 0; s < left.size(); ++s) {
      if (left[s] == 0) continue;
      const int64_t count = std::min(batch, left[s]);
      left[s] -= count;
      events.push_back({static_cast<int32_t>(s),
                        static_cast<int32_t>(count), left[s] == 0});
      any = any || left[s] > 0;
    }
  }
  return events;
}

struct PassStats {
  double wall_s = 0.0;
  int64_t records = 0;
  /// Per session: seconds from when the generator sent its last records
  /// (first offer attempt, so rejected offers keep counting) to the last
  /// scan that still saw the session running before it was finished.
  std::vector<double> latency_s;
  /// (seconds since pass start, backlog records) samples.
  std::vector<std::pair<double, double>> backlog;
  int64_t offers = 0;
  int64_t accepted_offers = 0;
  int64_t overloaded = 0;
  double drain_s = 0.0;
};

/// Drives one full-speed pass: the benchmark is the only producer thread
/// and busy-polls (it owns one of the run's two cores). It offers the
/// events in order in OfferBatch calls, and never waits on the engine: an
/// offer a full ring rejects stays pending and is retried, with a
/// per-session backoff, while later sessions' events go ahead. It sends
/// each session's end sentinel after its last records and polls every
/// ended session until it is finished.
PassStats Drive(serve::ServeEngine* engine, const std::vector<Event>& events) {
  const size_t n = engine->num_sessions();
  oebench::MetricsRegistry* metrics = oebench::MetricsRegistry::Global();
  PassStats stats;
  std::vector<int64_t> due_upto(n, 0), offered_upto(n, 0);
  std::vector<char> end_due(n, 0), end_offered(n, 0);
  std::vector<double> last_sent(n, 0.0);
  std::vector<size_t> retry, watch;
  std::vector<char> in_retry(n, 0);
  // A session whose ring was full is retried after a delay that doubles
  // while it stays full (20 us .. 5 ms), so the generator does not spin
  // on rings that the workers drain far more slowly.
  std::vector<double> retry_at(n, 0.0), retry_delay(n, 0.0);
  int64_t undelivered = 0;
  size_t finished = 0;
  size_t next = 0;
  double last_offer = 0.0;
  double last_sample = -1.0;
  double prev_scan = 0.0;
  const double t0 = NowSeconds();

  // Offers what is due for session `s`; returns true when nothing due is
  // left pending.
  auto rejected = [&](size_t s) {
    ++stats.overloaded;
    retry_delay[s] = std::clamp(2.0 * retry_delay[s], 20e-6, 5e-3);
    retry_at[s] = NowSeconds() - t0 + retry_delay[s];
    return false;
  };
  auto deliver = [&](size_t s) {
    while (offered_upto[s] < due_upto[s]) {
      const int64_t count =
          std::min(kFanoutBatch, due_upto[s] - offered_upto[s]);
      serve::ServeEngine::BatchAdmit admit;
      {
        ScopedSpan span("serve.admission.offer", static_cast<int64_t>(s));
        admit = engine->OfferBatch(s, offered_upto[s], count,
                                   metrics->NowSeconds());
      }
      ++stats.offers;
      if (admit.accepted > 0) ++stats.accepted_offers;
      offered_upto[s] += admit.accepted;
      undelivered -= admit.accepted;
      if (admit.accepted < count) return rejected(s);
    }
    if (end_due[s] && !end_offered[s]) {
      serve::AdmitResult admit;
      {
        ScopedSpan span("serve.admission.offer", static_cast<int64_t>(s));
        admit = engine->OfferEnd(s, metrics->NowSeconds());
      }
      ++stats.offers;
      if (admit != serve::AdmitResult::kAccepted) return rejected(s);
      ++stats.accepted_offers;
      end_offered[s] = 1;
      last_offer = NowSeconds() - t0;
      watch.push_back(s);
    }
    return true;
  };

  while (finished < n) {
    double now = NowSeconds() - t0;
    for (int budget = 256; next < events.size() && budget > 0;
         --budget, ++next) {
      const Event& e = events[next];
      const size_t s = static_cast<size_t>(e.session);
      due_upto[s] += e.count;
      undelivered += e.count;
      stats.records += e.count;
      if (e.last) {
        end_due[s] = 1;
        last_sent[s] = NowSeconds() - t0;
      }
      if (in_retry[s]) continue;  // keeps per-session FIFO order
      if (!deliver(s)) {
        retry.push_back(s);
        in_retry[s] = 1;
      }
    }
    for (size_t i = 0; i < retry.size();) {
      if (retry_at[retry[i]] > now) {
        ++i;
      } else if (deliver(retry[i])) {
        retry_delay[retry[i]] = 0.0;
        in_retry[retry[i]] = 0;
        retry[i] = retry.back();
        retry.pop_back();
      } else {
        ++i;
      }
    }
    now = NowSeconds() - t0;
    for (size_t i = 0; i < watch.size();) {
      const size_t s = watch[i];
      if (engine->session(s)->finished()) {
        ++finished;
        // Finished after the previous scan saw it running: taking that
        // scan's time keeps a stall of the generator's own core out of
        // the latency.
        stats.latency_s.push_back(std::max(prev_scan, last_sent[s]) -
                                  last_sent[s]);
        watch[i] = watch.back();
        watch.pop_back();
      } else {
        ++i;
      }
    }
    prev_scan = now;
    if (now - last_sample >= 0.001) {
      last_sample = now;
      stats.backlog.emplace_back(
          now, static_cast<double>(engine->inflight() + undelivered));
    }
  }
  stats.wall_s = NowSeconds() - t0;
  stats.drain_s = stats.wall_s - last_offer;
  engine->WaitAllFinished();
  return stats;
}

/// What the sessions serve: learner, epochs and window truncation.
struct ServeShape {
  std::string learner;
  int epochs = 0;  // 0 = learner default
  size_t max_windows = 0;
};

/// One stream a session replays, and the batch reference it must match.
struct Keyed {
  std::shared_ptr<const GeneratedStream> stream;
  uint64_t learner_seed = 0;
  EvalResult reference;
};

serve::SessionOptions SessionOptionsFor(const ServeShape& shape,
                                        const Keyed& key,
                                        serve::StatePool* pool) {
  serve::SessionOptions options;
  options.max_windows = shape.max_windows;
  options.learner = shape.learner;
  options.learner_config.seed = key.learner_seed;
  if (shape.epochs > 0) options.learner_config.epochs = shape.epochs;
  options.state_pool = pool;
  return options;
}

/// Batch reference per key: PrepareStream's two halves plus
/// RunPrequential, truncated to the windows sessions serve. Traced runs
/// take the uncontended prepare, test and train layers from here.
void ComputeReferences(const ServeShape& shape, std::vector<Keyed>* keys,
                       double* impute_s, double* detect_s) {
  for (size_t k = 0; k < keys->size(); ++k) {
    Keyed& key = (*keys)[k];
    const StreamContext ctx =
        BuildContext(*key.stream, static_cast<int64_t>(k));
    double impute = 0.0, detect = 0.0;
    const PreparedStream prepared = PrepareWindows(
        ctx, shape.max_windows, static_cast<int64_t>(k), &impute, &detect);
    *impute_s += impute;
    *detect_s += detect;
    LearnerConfig config;
    config.seed = key.learner_seed;
    if (shape.epochs > 0) config.epochs = shape.epochs;
    key.reference = RunTask(shape.learner, config, prepared,
                            static_cast<int64_t>(k));
  }
}

std::string ReferenceDigest(const std::vector<Keyed>& keys) {
  std::vector<uint64_t> digests;
  for (const Keyed& key : keys) digests.push_back(Digest(key.reference));
  return DigestOfDigests(digests);
}

/// Builds and Init()s one session per entry of `key_of` (the key each
/// session replays) on `threads` threads, session ids from 0. Timed
/// set-ups use one thread: a lone thread is the least exposed to CPU
/// the host steals from a busy virtual machine.
std::vector<std::unique_ptr<serve::StreamSession>> MakeSessions(
    const ServeShape& shape, const std::vector<Keyed>& keys,
    const std::vector<size_t>& key_of, serve::StatePool* pool,
    int threads = 2) {
  std::vector<std::unique_ptr<serve::StreamSession>> sessions(key_of.size());
  oebench::ThreadPool workers(threads);
  std::vector<std::future<void>> futures;
  futures.reserve(key_of.size());
  for (size_t i = 0; i < key_of.size(); ++i) {
    futures.push_back(workers.Submit([&, i] {
      const Keyed& key = keys[key_of[i]];
      auto session = std::make_unique<serve::StreamSession>(
          static_cast<int64_t>(i), key.stream,
          SessionOptionsFor(shape, key, pool));
      oebench::Status status;
      {
        ScopedSpan span("serve.session.init", static_cast<int64_t>(i));
        status = session->Init();
      }
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: session %zu init failed: %s\n", i,
                     status.ToString().c_str());
        std::exit(1);
      }
      sessions[i] = std::move(session);
    }));
  }
  for (auto& f : futures) f.get();
  return sessions;
}

struct ServePass {
  PassStats stats;
  int64_t sessions = 0;
  int64_t quarantined = 0;
  int64_t mismatches = 0;
};

/// Serves `sessions` (already Init()ed; session i replays key_of[i]) on
/// a fresh engine, then checks every result against its key's batch
/// reference bit for bit.
ServePass Serve(std::vector<std::unique_ptr<serve::StreamSession>> sessions,
                const std::vector<Keyed>& keys,
                const std::vector<size_t>& key_of,
                const std::vector<Event>& events) {
  serve::ServerOptions engine_options;
  engine_options.workers = kServeWorkers;
  serve::ServeEngine engine(engine_options);
  for (auto& session : sessions) engine.AddSession(std::move(session));
  ServePass pass;
  pass.sessions = static_cast<int64_t>(engine.num_sessions());
  pass.stats = Drive(&engine, events);
  for (size_t i = 0; i < engine.num_sessions(); ++i) {
    serve::StreamSession* session = engine.session(i);
    if (session->quarantined() || session->abandoned()) {
      ++pass.quarantined;
      continue;
    }
    if (Digest(session->result()) != Digest(keys[key_of[i]].reference)) {
      ++pass.mismatches;
    }
  }
  return pass;
}

void CheckServePass(const ServePass& pass, Report* report) {
  report->attempted += pass.sessions;
  report->failed += pass.quarantined + pass.mismatches;
}

/// Per-layer metrics of the serve generator and engine from one pass.
void AddServeLayers(const ServePass& pass, std::map<std::string, double>* m) {
  const PassStats& s = pass.stats;
  double peak = 0.0;
  for (const auto& [t, b] : s.backlog) peak = std::max(peak, b);
  (*m)["serve.admission.offers"] = static_cast<double>(s.offers);
  (*m)["serve.admission.overloaded"] = static_cast<double>(s.overloaded);
  (*m)["serve.admission.accept_ratio"] =
      s.offers > 0 ? static_cast<double>(s.accepted_offers) /
                         static_cast<double>(s.offers)
                   : 0.0;
  (*m)["serve.server.backlog_peak"] = peak;
  (*m)["serve.server.drain_s"] = s.drain_s;
  (*m)["serve.session.quarantined"] = static_cast<double>(pass.quarantined);
}

/// Uncontended layers from the traced batch reference replay.
void AddReferenceLayers(const std::vector<Span>& reference_spans,
                        double impute_s, double detect_s,
                        std::map<std::string, double>* m) {
  const auto layers = LayerTimes(reference_spans);
  (*m)["preprocess.window_prepare_s"] =
      LayerSelf(layers, "preprocess.window_prepare");
  (*m)["preprocess.impute_s"] = impute_s;
  (*m)["preprocess.detect_s"] = detect_s;
  (*m)["preprocess.context_build_s"] =
      LayerSelf(layers, "preprocess.context_build");
  AddLearnerLayers(layers, m);
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_fanout

Report RunServeFanout(const Options& options) {
  Report report;
  report.threads = kServeWorkers + 1;
  const ServeShape shape{"Naive-NN", 1, kFanoutWindows};
  report.params = {{"sessions", std::to_string(kFanoutSessions)},
                   {"specs", std::to_string(std::size(kFanoutEntries))},
                   {"scale", Fmt(kFanoutScale)},
                   {"windows", std::to_string(kFanoutWindows)},
                   {"learner", "Naive-NN"},
                   {"epochs", "1"},
                   {"state_pool", "on"},
                   {"batch_records", std::to_string(kFanoutBatch)},
                   {"serve_workers", std::to_string(kServeWorkers)},
                   {"generator_threads", "1"}};
  Tracer tracer;
  Tracer* active = options.trace ? &tracer : nullptr;
  PhaseSpans phases(active);
  const size_t num_specs = std::size(kFanoutEntries);
  std::vector<size_t> key_of(kFanoutSessions);
  for (size_t i = 0; i < key_of.size(); ++i) key_of[i] = i % num_specs;

  // Set-up: generate the 8 streams, open a state pool and Init() the
  // 1000 sessions (8 context builds, 992 pool hits). Timed here (traced in
  // a traced run) and again after every timed pass, so that setup_s, the
  // median, samples the host over the whole run as the passes do.
  struct Setup {
    std::vector<Keyed> keys;
    std::unique_ptr<serve::StatePool> pool;
    std::vector<std::unique_ptr<serve::StreamSession>> sessions;
    int64_t rows = 0;
  };
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowSeconds();
    Setup out;
    for (size_t k = 0; k < num_specs; ++k) {
      const StreamSpec spec = oebench::SpecFromEntry(
          EntryByName(kFanoutEntries[k]), kFanoutScale, options.seed);
      out.keys.push_back({Generate(spec, static_cast<int64_t>(k)),
                          options.seed + k, EvalResult()});
      out.rows += out.keys.back().stream->table.num_rows();
    }
    out.pool = std::make_unique<serve::StatePool>();
    out.sessions =
        MakeSessions(shape, out.keys, key_of, out.pool.get(), /*threads=*/1);
    setup_s.push_back(NowSeconds() - t0);
    return out;
  };
  Tracer::Install(active);
  Setup setup = timed_setup();
  std::vector<Keyed>& keys = setup.keys;
  serve::StatePool* pool = setup.pool.get();
  std::vector<std::unique_ptr<serve::StreamSession>>& sessions =
      setup.sessions;
  const int64_t rows = setup.rows;
  const std::vector<Span> setup_spans = phases.Take();
  const double hit_ratio =
      static_cast<double>(pool->hits()) /
      static_cast<double>(std::max<int64_t>(1, pool->hits() + pool->misses()));
  const double contexts_built = static_cast<double>(pool->misses());
  const double bytes_held = static_cast<double>(pool->bytes_held());

  double impute_s = 0.0, detect_s = 0.0;
  ComputeReferences(shape, &keys, &impute_s, &detect_s);
  Tracer::Install(nullptr);
  const std::vector<Span> reference_spans = phases.Take();
  report.params.push_back({"output_digest", ReferenceDigest(keys)});
  if (options.perturb_reference) Perturb(&keys.front().reference);

  std::vector<int64_t> session_rows;
  for (auto& session : sessions) session_rows.push_back(session->end_row());
  const std::vector<Event> events =
      FullSpeedSchedule(session_rows, kFanoutBatch);

  // Warm-up: the set-up's sessions, served once, untimed but checked.
  CheckServePass(Serve(std::move(sessions), keys, key_of, events), &report);

  const double phase_start = NowSeconds();
  std::vector<double> walls, rates, p50, p99, traced, untraced;
  std::vector<Span> pass_spans;
  ServePass last;
  for (size_t n = 0;
       (n < 3 || NowSeconds() - phase_start < options.seconds) && n < 64;
       ++n) {
    auto fresh = MakeSessions(shape, keys, key_of, pool);
    // One traced pass: the generator's offer spans are many.
    const bool trace_this = options.trace && n == 1;
    if (options.trace) phases.Take();
    Tracer::Install(trace_this ? active : nullptr);
    ServePass pass = Serve(std::move(fresh), keys, key_of, events);
    Tracer::Install(nullptr);
    CheckServePass(pass, &report);
    std::fprintf(stderr, "fanout pass %zu: %.3f s, %.0f rec/s\n", n,
                 pass.stats.wall_s,
                 static_cast<double>(pass.stats.records) / pass.stats.wall_s);
    if (!options.trace) timed_setup();
    walls.push_back(pass.stats.wall_s);
    rates.push_back(static_cast<double>(pass.stats.records) /
                    pass.stats.wall_s);
    p50.push_back(Quantile(pass.stats.latency_s, 0.5) * 1e3);
    p99.push_back(Quantile(pass.stats.latency_s, 0.99) * 1e3);
    if (options.trace) {
      (trace_this ? traced : untraced).push_back(pass.stats.wall_s);
      if (trace_this) {
        pass_spans = phases.Take();
        last = std::move(pass);
      }
    }
  }
  report.params.push_back({"timed_passes", std::to_string(walls.size())});
  report.params.push_back({"setups", std::to_string(setup_s.size())});
  report.params.push_back({"result_samples_per_pass",
                           std::to_string(kFanoutSessions)});
  if (!options.trace) {
    report.end_to_end["setup_s"] = Median(setup_s);
    report.end_to_end["wall_s"] = Median(walls);
    report.end_to_end["capacity_rps"] = Median(rates);
    report.end_to_end["result_p50_ms"] = Median(p50);
    report.end_to_end["result_p99_ms"] = Median(p99);
  } else {
    std::map<std::string, double>& m = report.per_layer;
    const auto setup_layers = LayerTimes(setup_spans);
    m["streamgen.generate_s"] = LayerSelf(setup_layers, "streamgen.generate");
    m["streamgen.rows_per_s"] =
        static_cast<double>(rows) / m["streamgen.generate_s"];
    m["serve.session.init_s"] = LayerSelf(setup_layers, "serve.session.init");
    AddReferenceLayers(reference_spans, impute_s, detect_s, &m);
    report.params.push_back({"prepare_test_train_layers",
                             "uncontended, from the batch reference replay"});
    m["preprocess.contexts_built"] = contexts_built;
    m["serve.state_pool.hit_ratio"] = hit_ratio;
    m["serve.state_pool.bytes_held"] = bytes_held;
    const auto layers = LayerTimes(pass_spans);
    m["serve.admission.offer_s"] = LayerSelf(layers, "serve.admission.offer");
    AddServeLayers(last, &m);
    m["trace.overhead_frac"] = Median(traced) / Median(untraced) - 1.0;
    AddTraceTotals(phases.all(), &m);
    m["learner.train_share"] = m["learner.train_s"] / m["trace.busy_s"];
    report.spans = std::move(phases.all());
  }
  report.end_to_end["peak_rss_mb"] = PeakRssMb();
  return report;
}

}  // namespace perfbench
