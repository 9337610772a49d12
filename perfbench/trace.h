// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files, around each call it
// makes into a library layer; nothing inside the library is
// instrumented. A span carries the request id of the task or session it
// belongs to and the span that caused it (the enclosing span on the same
// thread). Spans stay in memory and are written out at exit as Chrome
// trace-event JSON, which chrome://tracing and Perfetto open directly.
//
// With no tracer installed (the untraced run) ScopedSpan is one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in the process.
double NowSeconds();

struct Span {
  std::string name;
  int64_t request_id = -1;
  int thread = 0;
  /// Index of the enclosing span on the same thread; -1 at top level.
  int64_t parent = -1;
  double start = 0.0;
  double end = 0.0;
};

/// Per-layer totals derived from a set of spans.
struct LayerTime {
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // durations minus the time child spans cover
  int64_t count = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr when tracing is off.
  static Tracer* Active();
  static void Install(Tracer* tracer);

  /// Opens a span on the calling thread; returns its index.
  int64_t Begin(const std::string& name, int64_t request_id);
  void End(int64_t index);

  /// Copy of every span recorded so far (all must be closed).
  std::vector<Span> Spans() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op when no tracer is installed.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t request_id);
  ScopedSpan(const std::string& name, int64_t request_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_ = -1;
};

/// Total and self time per span name. A span's self time is its
/// duration minus the union of its direct children's intervals.
std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans);

/// Busy time: per thread, the length of the union of its top-level
/// spans, summed over threads. Measured independently of the
/// parent/child bookkeeping, so summed self times must match it.
double BusySeconds(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, in
/// microseconds) with `metadata` as string-valued otherData. Returns
/// false on I/O failure.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::map<std::string, std::string>& metadata);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
