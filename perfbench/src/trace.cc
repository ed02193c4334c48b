#include "trace.h"

#include <chrono>
#include <fstream>
#include <iomanip>

namespace greca::perfbench {

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double SpanTotals::MeanNs(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.MeanNs();
}

double SpanTotals::MeanNsWithPrefix(const std::string& prefix) const {
  Entry merged;
  for (const auto& [name, entry] : by_name) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    merged.sum_ns += entry.sum_ns;
    merged.count += entry.count;
  }
  return merged.MeanNs();
}

SpanTotals Aggregate(std::span<const SpanLog* const> logs) {
  SpanTotals totals;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      SpanTotals::Entry& e = totals.by_name[s.name];
      e.sum_ns += static_cast<double>(s.dur_ns);
      ++e.count;
    }
  }
  return totals;
}

bool WriteChromeTrace(const std::string& path,
                      std::span<const SpanLog* const> logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"greca\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << log->tid() << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
          << ",\"args\":{\"op\":" << s.op << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace greca::perfbench
