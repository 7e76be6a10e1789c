// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around calls into the program's public
// functions (name, start, end, parent), kept in memory, and written out
// once at the end. Single-threaded: only the driver thread opens spans.
#ifndef DSSJ_PERFBENCH_TRACE_H_
#define DSSJ_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dssj::perfbench {

inline int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  /// Opens a span whose parent is the innermost span still open.
  int Begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), SteadyNanos(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes the innermost open span, which must be `id`.
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = SteadyNanos();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part covered by its direct children
  /// (children never overlap — spans nest on one thread).
  std::vector<double> SelfSeconds() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
    for (const Span& child : spans_) {
      if (child.parent >= 0) self[static_cast<size_t>(child.parent)] -= child.seconds();
    }
    return self;
  }

  /// Summed duration of every span whose name starts with `prefix`.
  double TotalSeconds(const std::string& prefix) const {
    double s = 0.0;
    for (const Span& span : spans_) {
      if (span.name.compare(0, prefix.size(), prefix) == 0) s += span.seconds();
    }
    return s;
  }

  /// Writes every span as JSON: {"spans": [{"id", "name", "start_ns",
  /// "end_ns", "parent"}, ...]}, times relative to the first span.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace dssj::perfbench

#endif  // DSSJ_PERFBENCH_TRACE_H_
