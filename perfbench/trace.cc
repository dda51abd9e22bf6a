#include "perfbench/trace.h"

#include <cstdio>

#include "perfbench/perfbench.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     int64_t trace_id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.trace_id = trace_id;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Stamp last, so the span's own bookkeeping is not inside it.
  tracer_->spans_[index_].start = NowSeconds();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end = NowSeconds();
  tracer_->open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_seconds[span.parent] += span.end - span.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == "bench") continue;
    self[spans_[i].layer] +=
        (spans_[i].end - spans_[i].start) - child_seconds[i];
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Names are the benchmark's own string literals: no JSON escaping is
    // needed.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"trace_id\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent, static_cast<long long>(s.trace_id));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
