#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <utility>

namespace levbench {

double now_s() {
  static const levnet::analysis::Stopwatch epoch;
  return epoch.seconds();
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = current_;
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  if (index < 0) return;
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = now_s();
  current_ = span.parent;
}

double Tracer::duration(int index) const {
  const SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  return span.end_s - span.start_s;
}

std::vector<double> span_self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_s, span.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = spans[i].start_s;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, spans[i].end_s);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const std::vector<double> self = span_self_seconds(spans_);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << s.start_s * 1e6 << ", \"dur\": " << (s.end_s - s.start_s) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace levbench
