#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int> g_next_thread{0};

int ThreadNumber() {
  thread_local const int number = g_next_thread.fetch_add(1);
  return number;
}

/// Open spans of the calling thread, innermost last.
std::vector<int64_t>& OpenSpans() {
  thread_local std::vector<int64_t> open;
  return open;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::Install(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

int64_t Tracer::Begin(const std::string& name, int64_t request_id) {
  std::vector<int64_t>& open = OpenSpans();
  Span span;
  span.name = name;
  span.request_id = request_id;
  span.thread = ThreadNumber();
  span.parent = open.empty() ? -1 : open.back();
  span.start = NowSeconds();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  const double end = NowSeconds();
  std::vector<int64_t>& open = OpenSpans();
  if (!open.empty() && open.back() == index) open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

ScopedSpan::ScopedSpan(const char* name, int64_t request_id)
    : tracer_(Tracer::Active()) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name, request_id);
}

ScopedSpan::ScopedSpan(const std::string& name, int64_t request_id)
    : tracer_(Tracer::Active()) {
  if (tracer_ != nullptr) index_ = tracer_->Begin(name, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

std::map<std::string, LayerTime> LayerTimes(const std::vector<Span>& spans) {
  // Children of one span run on the span's own thread, one after
  // another, so their union is the sum of their durations.
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    const double duration = spans[i].end - spans[i].start;
    layer.total_s += duration;
    layer.self_s += duration - child_time[i];
    ++layer.count;
  }
  return layers;
}

double BusySeconds(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> by_thread;
  for (const Span& span : spans) {
    by_thread[span.thread].emplace_back(span.start, span.end);
  }
  double busy = 0.0;
  for (auto& [thread, intervals] : by_thread) {
    std::sort(intervals.begin(), intervals.end());
    double cur_start = intervals.front().first;
    double cur_end = intervals.front().second;
    for (const auto& [start, end] : intervals) {
      if (start > cur_end) {
        busy += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
      } else {
        cur_end = std::max(cur_end, end);
      }
    }
    busy += cur_end - cur_start;
  }
  return busy;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::map<std::string, std::string>& metadata) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
  bool first = true;
  for (const auto& [key, value] : metadata) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",",
                 JsonEscape(key).c_str(), JsonEscape(value).c_str());
    first = false;
  }
  std::fprintf(f, "},\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%lld,"
                 "\"parent\":%lld}}%s\n",
                 JsonEscape(span.name).c_str(), JsonEscape(layer).c_str(),
                 span.thread, span.start * 1e6,
                 (span.end - span.start) * 1e6,
                 static_cast<long long>(span.request_id),
                 static_cast<long long>(span.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
