// Span recording for the traced run.
//
// Every thread that issues requests owns a SpanLog. A span is a name, a
// start, a duration and the id of the request it belongs to: one span for
// the request itself and one for each layer stage under it. Spans stay in
// memory until the run ends; then the benchmark aggregates them into per-layer
// self times and, on request, writes them as Chrome trace-event JSON (ph "X"
// events, which Perfetto opens and nests by time).
#ifndef GRECA_PERFBENCH_TRACE_H_
#define GRECA_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace greca::perfbench {

/// Nanoseconds on the monotonic clock since the first call in the process.
std::int64_t NowNs();

struct Span {
  const char* name = nullptr;  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t op = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t op) {
    spans_.push_back({name, start_ns, end_ns - start_ns, op});
  }

  std::uint32_t tid() const { return tid_; }
  std::span<const Span> spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), name_(name), op_(op), start_(NowNs()) {}
  ~ScopedSpan() { log_->Add(name_, start_, NowNs(), op_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t op_;
  std::int64_t start_;
};

/// Sum and count of span durations per name. Stage spans are leaves, so
/// their duration is their self time.
struct SpanTotals {
  struct Entry {
    double sum_ns = 0.0;
    std::uint64_t count = 0;
    double MeanNs() const {
      return count == 0 ? 0.0 : sum_ns / static_cast<double>(count);
    }
  };
  std::map<std::string, Entry> by_name;

  double MeanNs(const std::string& name) const;
  /// Mean over every name that starts with `prefix`.
  double MeanNsWithPrefix(const std::string& prefix) const;
};

SpanTotals Aggregate(std::span<const SpanLog* const> logs);

/// Writes every span as a Chrome trace-event JSON file. Returns false when
/// the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      std::span<const SpanLog* const> logs);

}  // namespace greca::perfbench

#endif  // GRECA_PERFBENCH_TRACE_H_
