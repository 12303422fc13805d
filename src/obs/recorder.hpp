#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/probes.hpp"

namespace levnet::topology {
class Graph;
}

namespace levnet::obs {

struct RecorderConfig {
  /// Sample the per-step time series every `cadence` engine steps;
  /// 0 disables the time series (histograms and counters still collect).
  std::uint32_t cadence = 0;
  /// Collect virtual-time trace spans for Chrome/Perfetto export.
  bool trace = false;
};

/// One time-series point: cumulative probe counters plus instantaneous
/// occupancy, captured at the end of an engine step.
struct StepSample {
  std::uint64_t step = 0;  // virtual step, monotone across rehash attempts
  std::uint64_t in_flight = 0;
  std::array<std::uint64_t, kProbeCount> counters{};
  std::array<std::uint32_t, kMaxTrackedLevels> level_queue{};
};

/// Span kinds emitted into the trace. Values index kSpanNames.
enum class Span : std::uint8_t {
  kPhaseA = 0,   // transmission phase of an engine step
  kPhaseB = 1,   // landing-decision phase
  kPhaseC = 2,   // commit phase
  kData = 3,     // packet lifecycle, PacketKind::kData
  kRequest = 4,  // packet lifecycle, PacketKind::kRequest
  kReply = 5,    // packet lifecycle, PacketKind::kReply
};

struct TraceEvent {
  std::uint64_t ts = 0;   // virtual ticks (kTicksPerStep per engine step)
  std::uint64_t dur = 0;  // virtual ticks
  std::uint32_t tid = 0;  // 0 for engine phases, source node for packets
  Span span = Span::kPhaseA;
};

/// Virtual ticks per simulation step; phases A/B/C of one step get
/// distinct sub-step timestamps so they nest visibly in a trace viewer.
inline constexpr std::uint64_t kTicksPerStep = 4;

/// Deterministic run recorder. One recorder observes one seeded run (all
/// rehash attempts included); every hook is called from a serial section
/// of the engine or emulator except the per-shard lanes, which phase A
/// fills concurrently and merge_lanes() folds back in shard order at the
/// step barrier. With no recorder attached the instrumented code paths
/// reduce to a null-pointer test, keeping disabled observability
/// byte-inert and allocation-free.
class Recorder {
 public:
  explicit Recorder(RecorderConfig config = {});

  const RecorderConfig& config() const noexcept { return config_; }

  /// Builds the per-edge level labelling used by occupancy samples.
  /// Optional: without it every edge reports on level 0.
  void bind_topology(const topology::Graph& graph);

  // --- counter hooks (serial contexts) ---
  void count_injection() noexcept {
    ++counters_[probe_index(Probe::kInjections)];
  }
  void count_detour() noexcept { ++counters_[probe_index(Probe::kDetours)]; }
  void count_rehash_attempt() noexcept {
    ++counters_[probe_index(Probe::kRehashAttempts)];
  }
  void count_combining_merge() noexcept {
    ++counters_[probe_index(Probe::kCombiningMerges)];
  }

  /// Delivery of a packet to its destination handler: feeds the latency
  /// histograms, the consumption counter and (when tracing) the packet's
  /// lifecycle span. `kind` is the raw sim::PacketKind value.
  void on_consume(std::uint8_t kind, std::uint32_t src,
                  std::uint32_t inject_step, std::uint16_t hops,
                  std::uint32_t now);

  // --- per-shard lanes (the only concurrently-written state) ---
  struct alignas(64) Lane {
    std::uint64_t transmissions = 0;
  };
  void ensure_lanes(std::size_t shards);
  Lane& lane(std::size_t shard) noexcept { return lanes_[shard]; }
  /// Folds the lanes into the cumulative counters in shard order and
  /// zeroes them; called at the step barrier (serial).
  void merge_lanes() noexcept;

  // --- step boundary (serial) ---
  [[nodiscard]] bool trace_enabled() const noexcept { return config_.trace; }
  /// Emits the engine phase spans for the step that just finished.
  void trace_step(std::uint32_t now);
  [[nodiscard]] bool sample_due(std::uint32_t now) const noexcept {
    return config_.cadence != 0 && now % config_.cadence == 0;
  }
  /// Opens a time-series sample; follow with sample_edge() per occupied
  /// edge.
  void begin_sample(std::uint32_t now, std::uint64_t in_flight);
  void sample_edge(std::uint32_t edge, std::size_t occupancy) noexcept;

  /// Advances the virtual-time base past a finished engine attempt so
  /// steps stay monotone across rehash restarts.
  void advance_time(std::uint32_t engine_steps) noexcept {
    time_base_ += engine_steps;
  }
  [[nodiscard]] std::uint64_t virtual_step(std::uint32_t now) const noexcept {
    return time_base_ + now;
  }
  [[nodiscard]] std::uint64_t virtual_steps_total() const noexcept {
    return time_base_;
  }

  // --- results ---
  [[nodiscard]] std::uint64_t counter(Probe p) const noexcept {
    return counters_[probe_index(p)];
  }
  [[nodiscard]] const Histogram& journey() const noexcept { return journey_; }
  [[nodiscard]] const Histogram& queue_delay() const noexcept {
    return queue_delay_;
  }
  [[nodiscard]] const std::vector<StepSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint32_t tracked_levels() const noexcept {
    return tracked_levels_;
  }

  /// Writes this run's metrics as JSON Lines: one "run" summary line, then
  /// one "sample" line per time-series point. Integer-only fields, so the
  /// bytes are identical for identical runs.
  void write_metrics_jsonl(std::ostream& out, std::uint32_t seed_index) const;

 private:
  RecorderConfig config_;
  std::array<std::uint64_t, kProbeCount> counters_{};
  Histogram journey_;
  Histogram queue_delay_;
  std::vector<Lane> lanes_;
  std::vector<StepSample> samples_;
  std::vector<TraceEvent> events_;
  std::vector<std::uint8_t> edge_levels_;
  std::uint32_t tracked_levels_ = 1;
  std::uint64_t time_base_ = 0;
};

/// Writes a Chrome/Perfetto trace_event JSON file covering one recorder
/// per seed (pid = seed index). Timestamps are virtual ticks — the file
/// is bit-identical for bit-identical runs.
void write_trace_json(std::ostream& out,
                      const std::vector<const Recorder*>& recorders);

}  // namespace levnet::obs
