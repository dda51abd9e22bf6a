#ifndef ODYSSEY_PERFBENCH_TRACE_H_
#define ODYSSEY_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around calls into each layer's public functions
// (nothing inside src/ is instrumented), all on the benchmark's main
// thread, so nesting is a stack. They stay in memory until the run ends
// and are then written as Chrome trace-event JSON (loadable offline in
// Perfetto or chrome://tracing).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `layer` is the module the callee belongs to (core, net,
/// executor, query, index, isax, distance, dataset) or "bench" for the
/// benchmark's own grouping spans. Spans of one query share `trace_id`;
/// -1 means the span belongs to no single query.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;  ///< seconds on the steady clock
  double end = 0.0;
  int parent = -1;     ///< index into the span list, -1 for a root
  int64_t trace_id = -1;
};

class Tracer {
 public:
  /// A disabled tracer records nothing: Scope construction is one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name,
          int64_t trace_id = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Per layer, the summed self time in seconds: each span's duration
  /// minus the time its direct children cover. "bench" spans are excluded.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as a complete ("X") trace event, timestamps in
  /// microseconds from the first span. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench

#endif  // ODYSSEY_PERFBENCH_TRACE_H_
