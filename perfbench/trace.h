#ifndef HYGNN_PERFBENCH_TRACE_H_
#define HYGNN_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions (never
// inside the program), kept in memory, and written out once the run
// ends. Single-threaded: every span is opened and closed on the thread
// that drives the workload.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index
  /// (-1 when disabled).
  int32_t Begin(const std::string& name);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
uint64_t MonoNanos();

}  // namespace perfbench

#endif  // HYGNN_PERFBENCH_TRACE_H_
