//===- perfbench/src/Spans.h - Benchmark-side span recorder ---------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the library, for
/// the traced run only.  Each span has a name, a start and end on the
/// steady clock, the span that enclosed it on the same thread, and the id
/// of the benchmark operation it belongs to.  Spans stay in memory until
/// the run ends, then go out once as Chrome trace-event JSON.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name = "";
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  uint64_t Id = 0;     ///< 1-based; 0 means "no span".
  uint64_t Parent = 0; ///< Enclosing span on the same thread, or 0.
  uint64_t Op = 0;     ///< Benchmark operation the span belongs to.
  uint32_t Thread = 0;
};

/// Process-wide span store.  Recording is off unless enable() was called
/// and the calling thread has not switched it off with setThreadEnabled.
class SpanLog {
public:
  static SpanLog &instance();
  void enable() { Enabled = true; }
  bool enabled() const { return Enabled; }
  /// Per-thread switch, so one traced run can alternate traced and
  /// untraced operations and measure what tracing costs.
  static void setThreadEnabled(bool On);

  /// Opens a span on the calling thread; \p ParentOut receives the span
  /// it nests in.
  uint64_t begin(uint64_t &ParentOut);
  void end(uint64_t Id, const char *Name, uint64_t BeginNs, uint64_t Parent,
           uint64_t Op);

  std::vector<SpanRecord> spans() const;
  /// Self time per span name in nanoseconds: each span's duration minus
  /// the part of it its child spans cover.
  std::map<std::string, uint64_t> selfTimes() const;
  std::string chromeTraceJson() const;

  static uint64_t nowNs();

private:
  bool Enabled = false;
  mutable std::mutex Mu; ///< Guards Records and NextId.
  std::vector<SpanRecord> Records;
  uint64_t NextId = 0;
};

/// RAII span around one library call.
class Span {
public:
  Span(const char *Name, uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Op;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t BeginNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
