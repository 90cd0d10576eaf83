// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside the library is
// instrumented. A span nests under the innermost span open when it
// began. Calls the library makes internally (the scan, TP and hash inside
// Frontend::ExecuteRound, the ladder scan and TP inside
// SessionPool::Create) cannot be timed from outside, so the traced run
// re-issues the same public call on the same inputs right after the
// parent call and records it as a REISSUE of that parent: such a span
// lies outside its parent's interval, and the parent's derived self time
// subtracts its duration.
//
// Spans stay in memory until the run ends, then go out as Chrome
// trace-event JSON (Perfetto and chrome://tracing open it). Single
// threaded: the traced drives run on one thread.

#ifndef UCBENCH_TRACE_H_
#define UCBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ucbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

class Tracer {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Span {
    std::string name;
    int64_t begin = 0;
    int64_t end = 0;
    size_t parent = kNone;   ///< enclosing span, or kNone
    size_t reissue_of = kNone;  ///< the span whose hidden work this repeats
    uint64_t request = 0;    ///< request / round / campaign id
  };

  /// Opens a span nested under the innermost open one.
  size_t Begin(const std::string& name, uint64_t request);
  /// Closes span `id`, which must be the innermost open span.
  void End(size_t id);
  /// Records a closed re-issue span of `of` (not nested in it).
  size_t AddReissue(const std::string& name, uint64_t request, size_t of,
                    int64_t begin, int64_t end);

  const std::vector<Span>& spans() const { return spans_; }
  double SpanNs(size_t id) const {
    return static_cast<double>(spans_[id].end - spans_[id].begin);
  }

  /// Self time of span `id`: duration minus the union of its nested
  /// children's intervals minus the durations of its re-issue spans.
  int64_t SelfNs(size_t id) const;

  struct LayerRow {
    size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    bool derived = false;  ///< self time involves re-issued children
  };
  /// Per span name: count, total and self time.
  std::map<std::string, LayerRow> LayerTable() const;

  /// Writes the spans as Chrome trace-event JSON. False on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  std::vector<std::vector<size_t>> children_;  ///< nested, per span
  std::vector<std::vector<size_t>> reissues_;  ///< per span
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  size_t id() const { return id_; }

 private:
  Tracer* tracer_;
  size_t id_;
};

}  // namespace ucbench

#endif  // UCBENCH_TRACE_H_
