#include "obs/recorder.hpp"

#include <algorithm>
#include <ostream>

#include "obs/levels.hpp"
#include "topology/graph.hpp"

namespace levnet::obs {

namespace {

constexpr const char* kSpanNames[] = {
    "phaseA", "phaseB", "phaseC", "data", "request", "reply",
};

constexpr const char* span_name(Span span) noexcept {
  return kSpanNames[static_cast<std::size_t>(span)];
}

constexpr const char* span_category(Span span) noexcept {
  switch (span) {
    case Span::kPhaseA:
    case Span::kPhaseB:
    case Span::kPhaseC:
      return "engine";
    case Span::kData:
    case Span::kRequest:
    case Span::kReply:
      return "packet";
  }
  return "engine";
}

constexpr Span packet_span(std::uint8_t kind) noexcept {
  switch (kind) {
    case 1:
      return Span::kRequest;
    case 2:
      return Span::kReply;
    default:
      return Span::kData;
  }
}

void write_counters_json(std::ostream& out,
                         const std::array<std::uint64_t, kProbeCount>& c) {
  out << '{';
  for (std::size_t i = 0; i < kProbeCount; ++i) {
    if (i != 0) out << ',';
    out << '"' << kProbeInfo[i].name << "\":" << c[i];
  }
  out << '}';
}

void write_quantiles_json(std::ostream& out, const Histogram& h) {
  out << "{\"p50\":" << h.quantile(0.50) << ",\"p95\":" << h.quantile(0.95)
      << ",\"p99\":" << h.quantile(0.99) << ",\"samples\":" << h.total()
      << ",\"sum\":" << h.sum() << '}';
}

}  // namespace

Recorder::Recorder(RecorderConfig config) : config_(config) {
  lanes_.resize(1);
}

void Recorder::bind_topology(const topology::Graph& graph) {
  edge_levels_ = edge_levels(graph);
  tracked_levels_ = std::max<std::uint32_t>(1, level_count(edge_levels_));
}

void Recorder::on_consume(std::uint8_t kind, std::uint32_t src,
                          std::uint32_t inject_step, std::uint16_t hops,
                          std::uint32_t now) {
  ++counters_[probe_index(Probe::kConsumptions)];
  const std::uint64_t journey = now - inject_step;
  const std::uint64_t queue_delay =
      journey - std::min<std::uint64_t>(journey, hops);
  journey_.record(journey);
  queue_delay_.record(queue_delay);
  if (config_.trace) {
    TraceEvent event;
    event.ts = (time_base_ + inject_step) * kTicksPerStep;
    event.dur = journey * kTicksPerStep;
    event.tid = src;
    event.span = packet_span(kind);
    events_.push_back(event);
  }
}

void Recorder::ensure_lanes(std::size_t shards) {
  if (shards < 1) shards = 1;
  if (lanes_.size() < shards) lanes_.resize(shards);
}

void Recorder::merge_lanes() noexcept {
  // Shard order: lane s holds shard s's phase-A counts; folding by
  // ascending index is the documented deterministic aggregation.
  for (Lane& lane : lanes_) {
    counters_[probe_index(Probe::kTransmissions)] += lane.transmissions;
    lane.transmissions = 0;
  }
}

void Recorder::trace_step(std::uint32_t now) {
  const std::uint64_t base = virtual_step(now) * kTicksPerStep;
  events_.push_back(TraceEvent{base, 1, 0, Span::kPhaseA});
  events_.push_back(TraceEvent{base + 1, 1, 0, Span::kPhaseB});
  events_.push_back(TraceEvent{base + 2, 1, 0, Span::kPhaseC});
}

void Recorder::begin_sample(std::uint32_t now, std::uint64_t in_flight) {
  StepSample sample;
  sample.step = virtual_step(now);
  sample.in_flight = in_flight;
  sample.counters = counters_;
  samples_.push_back(sample);
}

void Recorder::sample_edge(std::uint32_t edge, std::size_t occupancy) noexcept {
  if (samples_.empty()) return;
  std::size_t level = 0;
  if (edge < edge_levels_.size()) level = edge_levels_[edge];
  samples_.back().level_queue[level] +=
      static_cast<std::uint32_t>(occupancy);
}

void Recorder::write_metrics_jsonl(std::ostream& out,
                                   std::uint32_t seed_index) const {
  out << "{\"type\":\"run\",\"seed\":" << seed_index
      << ",\"virtual_steps\":" << time_base_ << ",\"counters\":";
  write_counters_json(out, counters_);
  out << ",\"latency\":";
  write_quantiles_json(out, journey_);
  out << ",\"queue_delay\":";
  write_quantiles_json(out, queue_delay_);
  out << ",\"levels\":" << tracked_levels_ << "}\n";
  for (const StepSample& sample : samples_) {
    out << "{\"type\":\"sample\",\"seed\":" << seed_index
        << ",\"step\":" << sample.step
        << ",\"in_flight\":" << sample.in_flight << ",\"counters\":";
    write_counters_json(out, sample.counters);
    out << ",\"level_queue\":[";
    const std::size_t levels =
        std::min<std::size_t>(tracked_levels_, kMaxTrackedLevels);
    for (std::size_t level = 0; level < levels; ++level) {
      if (level != 0) out << ',';
      out << sample.level_queue[level];
    }
    out << "]}\n";
  }
}

void write_trace_json(std::ostream& out,
                      const std::vector<const Recorder*>& recorders) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t pid = 0; pid < recorders.size(); ++pid) {
    if (recorders[pid] == nullptr) continue;
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"seed " << pid << "\"}}";
    for (const TraceEvent& event : recorders[pid]->events()) {
      out << ",\n{\"name\":\"" << span_name(event.span) << "\",\"cat\":\""
          << span_category(event.span) << "\",\"ph\":\"X\",\"ts\":" << event.ts
          << ",\"dur\":" << event.dur << ",\"pid\":" << pid
          << ",\"tid\":" << event.tid << '}';
    }
  }
  out << "\n]}\n";
}

}  // namespace levnet::obs
