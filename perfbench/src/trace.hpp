#pragma once
// Wall-clock spans around the benchmark's calls into each levnet module.
//
// Every clock read goes through one analysis::Stopwatch (the library's
// sanctioned timing window). A span records name, start, end and the span
// that was open when it began; spans stay in memory and are written once,
// as a Chrome trace, when the run ends. A disabled Tracer records nothing
// and reads no clock, so the untraced pass pays only a branch per call.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/stopwatch.hpp"

namespace levbench {

/// Seconds since process start, read through the shared Stopwatch.
[[nodiscard]] double now_s();

struct SpanRecord {
  std::string name;    // "<layer>.<call>", e.g. "machine.build"
  double start_s = 0;  // now_s() at entry
  double end_s = 0;    // now_s() at exit
  int parent = -1;     // index of the enclosing span, -1 at top level
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Opens a span; returns its index (or -1 when disabled).
  int open(const char* name);
  void close(int index);

  /// Duration of span `index` in seconds.
  [[nodiscard]] double duration(int index) const;

  /// Self time per layer (the name up to the first '.'): each span's
  /// duration minus the part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Writes the spans as Chrome trace-event JSON (complete events, µs).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

/// RAII span; `seconds()` is valid after the scope closed or via stop().
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early and returns its duration (0 when disabled).
  double stop() {
    if (index_ >= 0 && !closed_) {
      tracer_.close(index_);
      closed_ = true;
    }
    return index_ >= 0 ? tracer_.duration(index_) : 0.0;
  }

 private:
  Tracer& tracer_;
  int index_;
  bool closed_ = false;
};

/// Self time of each span: duration minus the union of its children's
/// intervals. Exposed for the self-test.
[[nodiscard]] std::vector<double> span_self_seconds(
    const std::vector<SpanRecord>& spans);

}  // namespace levbench
