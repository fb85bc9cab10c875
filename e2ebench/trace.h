// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (Plan, Run, AnalyzeAll, AppendRow, ...); nothing inside
// the library is instrumented. A span has a name, a start, an end, a parent
// span and the id of the query (or set-up step) it belongs to. Spans stay in
// memory until the run ends and are then written out as JSON lines.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Nanoseconds on the steady clock, relative to an arbitrary process epoch.
int64_t NowNs();

struct Span {
  std::string name;
  int64_t query_id = -1;  ///< -1 for spans outside any query
  int parent = -1;        ///< index of the parent span, -1 for roots
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when tracing is off).
  int Begin(std::string name, int64_t query_id, int parent = -1);
  /// Closes span `index`; ignores -1.
  void End(int index);

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t query_id,
             int parent = -1)
      : tracer_(tracer),
        index_(tracer->Begin(std::move(name), query_id, parent)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
