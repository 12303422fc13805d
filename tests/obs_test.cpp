// The observability layer (src/obs/): histogram bucket arithmetic, the
// obs:/trace spec tokens, the disabled-recorder inertness contract, and —
// the load-bearing guarantee — byte-identical metrics/trace exports across
// every thread knob (trial pool size and engine step_threads). The
// Concurrency suites run under the TSan CI job's filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "machine/spec.hpp"
#include "obs/histogram.hpp"
#include "obs/recorder.hpp"
#include "pram/memory.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"
#include "support/rng.hpp"
#include "topology/linear_array.hpp"

namespace levnet {
namespace {

using machine::MachineSpec;
using machine::parse_spec;
using obs::Histogram;

// ------------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketBoundaries) {
  // Values below kLinearLimit get exact identity buckets.
  EXPECT_EQ(Histogram::bucket_of(0), 0U);
  EXPECT_EQ(Histogram::bucket_of(1), 1U);
  EXPECT_EQ(Histogram::bucket_of(31), 31U);
  // From 32 on, one bucket per power of two: [32,63] -> 32, [64,127] -> 33.
  EXPECT_EQ(Histogram::bucket_of(32), 32U);
  EXPECT_EQ(Histogram::bucket_of(63), 32U);
  EXPECT_EQ(Histogram::bucket_of(64), 33U);
  EXPECT_EQ(Histogram::bucket_of(127), 33U);
  EXPECT_EQ(Histogram::bucket_of(128), 34U);
  // Overflow clamps into the last bucket instead of indexing out of range.
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            Histogram::kBucketCount - 1);

  // Upper bounds are the values quantiles report.
  EXPECT_EQ(Histogram::bucket_upper(31), 31U);
  EXPECT_EQ(Histogram::bucket_upper(32), 63U);
  EXPECT_EQ(Histogram::bucket_upper(33), 127U);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBucketCount - 1),
            std::numeric_limits<std::uint64_t>::max());
  // Every value maps into a bucket whose upper bound covers it.
  for (std::uint64_t v : {0ULL, 31ULL, 32ULL, 63ULL, 64ULL, 1000ULL}) {
    EXPECT_GE(Histogram::bucket_upper(Histogram::bucket_of(v)), v) << v;
  }
}

TEST(ObsHistogram, QuantilesReportBucketUpperBounds) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0U);  // empty
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.total(), 10U);
  EXPECT_EQ(h.sum(), 55U);
  // Linear range: the quantile is the exact rank-th smallest sample.
  EXPECT_EQ(h.quantile(0.0), 1U);   // rank clamps up to 1
  EXPECT_EQ(h.quantile(0.5), 5U);   // rank 5
  EXPECT_EQ(h.quantile(0.99), 9U);  // rank floor(9.9) = 9
  EXPECT_EQ(h.quantile(1.0), 10U);  // rank 10

  // Log range: the quantile is the bucket's inclusive upper bound.
  Histogram big;
  big.record(100);  // bucket 33, upper 127
  EXPECT_EQ(big.quantile(1.0), 127U);
}

TEST(ObsHistogram, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.record(3);
  a.record(40);
  b.record(3);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4U);
  EXPECT_EQ(a.sum(), 3U + 40U + 3U + 1000U);
  EXPECT_EQ(a.counts()[3], 2U);
  EXPECT_EQ(a.counts()[Histogram::bucket_of(40)], 1U);
  EXPECT_EQ(a.counts()[Histogram::bucket_of(1000)], 1U);
  a.reset();
  EXPECT_EQ(a.total(), 0U);
  EXPECT_EQ(a.sum(), 0U);
  EXPECT_EQ(a.quantile(0.5), 0U);
}

// ----------------------------------------------------------- spec tokens

TEST(ObsSpec, ObsTokensParseAndRoundTrip) {
  const MachineSpec spec =
      parse_spec("star:5/two-phase/crcw-combining/fifo/obs:4/trace");
  EXPECT_EQ(spec.obs_cadence, 4U);
  EXPECT_TRUE(spec.obs_trace);
  EXPECT_EQ(parse_spec(spec.to_string()), spec);

  // Each token stands alone, and both default to off.
  const MachineSpec trace_only = parse_spec("star:5/two-phase/trace");
  EXPECT_EQ(trace_only.obs_cadence, 0U);
  EXPECT_TRUE(trace_only.obs_trace);
  EXPECT_EQ(parse_spec(trace_only.to_string()), trace_only);

  const MachineSpec plain = parse_spec("star:5/two-phase");
  EXPECT_EQ(plain.obs_cadence, 0U);
  EXPECT_FALSE(plain.obs_trace);
  // obs:0 is the off default, so it never round-trips into the string.
  EXPECT_EQ(parse_spec("star:5/two-phase/obs:0").to_string(),
            plain.to_string());
}

TEST(ObsSpec, BadObsValueRejected) {
  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("star:5/two-phase/obs:x", spec, error));
  EXPECT_NE(error.find("obs:"), std::string::npos) << error;
  EXPECT_FALSE(parse_spec("star:5/two-phase/obs:", spec, error));
}

// ----------------------------------------- recorder attach + inertness

void expect_core_identical(const emulation::EmulationReport& a,
                           const emulation::EmulationReport& b,
                           const std::string& label) {
  EXPECT_EQ(a.pram_steps, b.pram_steps) << label;
  EXPECT_EQ(a.network_steps, b.network_steps) << label;
  EXPECT_EQ(a.max_step_network, b.max_step_network) << label;
  EXPECT_EQ(a.max_link_queue, b.max_link_queue) << label;
  EXPECT_EQ(a.max_node_queue, b.max_node_queue) << label;
  EXPECT_EQ(a.request_packets, b.request_packets) << label;
  EXPECT_EQ(a.reply_packets, b.reply_packets) << label;
  EXPECT_EQ(a.combined_requests, b.combined_requests) << label;
  EXPECT_EQ(a.rehashes, b.rehashes) << label;
  EXPECT_EQ(a.step_costs, b.step_costs) << label;
  EXPECT_EQ(a.peak_in_flight, b.peak_in_flight) << label;
  EXPECT_EQ(a.complete, b.complete) << label;
}

TEST(ObsRecorder, AttachedRecorderNeverPerturbsTheRun) {
  const machine::Machine m =
      machine::Machine::build("star:5/two-phase/crcw-combining/fifo");
  const machine::ProgramFactory factory =
      machine::program_factory("histogram");
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto bare_program = factory(m.processors(), seed);
    pram::SharedMemory bare_memory;
    const auto bare = m.run_seeded(seed, *bare_program, bare_memory);

    const auto obs_program = factory(m.processors(), seed);
    pram::SharedMemory obs_memory;
    obs::Recorder recorder{obs::RecorderConfig{2, true}};
    const auto observed =
        m.run_seeded(seed, *obs_program, obs_memory, &recorder);

    expect_core_identical(bare, observed, "seed " + std::to_string(seed));
    EXPECT_EQ(bare_memory.sorted_cells(), obs_memory.sorted_cells());

    // The recorder saw the run: every consumed packet fed the journey
    // histogram, and the report's quantiles come from it.
    EXPECT_GT(recorder.journey().total(), 0U);
    EXPECT_GT(recorder.counter(obs::Probe::kInjections), 0U);
    EXPECT_GT(recorder.counter(obs::Probe::kTransmissions), 0U);
    EXPECT_EQ(observed.latency_p50, recorder.journey().quantile(0.50));
    EXPECT_EQ(observed.latency_p99, recorder.journey().quantile(0.99));
    // Without a recorder the quantiles stay zero (inert default).
    EXPECT_EQ(bare.latency_p50, 0U);
    EXPECT_EQ(bare.latency_p99, 0U);
  }
}

TEST(ObsRecorder, PeakInFlightSurfaced) {
  const machine::Machine m = machine::Machine::build("star:5/two-phase");
  const machine::ProgramFactory factory =
      machine::program_factory("permutation");
  const auto program = factory(m.processors(), 1);
  pram::SharedMemory memory;
  const auto report = m.run_seeded(1, *program, memory);
  // A permutation step puts every processor's request in flight at once.
  EXPECT_GT(report.peak_in_flight, 0U);
  EXPECT_LE(report.peak_in_flight, report.request_packets);
}

// --------------------------------- byte-identical exports across threads

/// Serializes every recorder's metrics JSONL plus the combined trace JSON
/// into one string — the exact bytes levnet_run would write to disk.
std::string serialize_exports(
    const std::vector<std::unique_ptr<obs::Recorder>>& recorders) {
  std::ostringstream out;
  std::vector<const obs::Recorder*> views;
  views.reserve(recorders.size());
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    recorders[i]->write_metrics_jsonl(out, static_cast<std::uint32_t>(i));
    views.push_back(recorders[i].get());
  }
  obs::write_trace_json(out, views);
  return out.str();
}

std::string run_and_export(const std::string& spec_text, unsigned threads) {
  const machine::Machine m = machine::Machine::build(spec_text);
  const machine::ProgramFactory factory =
      machine::program_factory("histogram");
  std::vector<std::unique_ptr<obs::Recorder>> recorders;
  analysis::TrialStats stats;
  std::string error;
  EXPECT_TRUE(machine::run_trials(m, factory, 4, threads, stats, error,
                                  nullptr, &recorders))
      << error;
  EXPECT_EQ(recorders.size(), 4U);
  return serialize_exports(recorders);
}

TEST(ObsConcurrencyExport, PoolThreadsByteIdentical) {
  // The trial pool fans seeds out to workers; the recorders are per-seed
  // slots, so the serialized bytes must not depend on the pool size.
  const std::string spec = "star:5/two-phase/crcw-combining/fifo/obs:2/trace";
  const std::string one = run_and_export(spec, 1);
  const std::string eight = run_and_export(spec, 8);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(ObsConcurrencyExport, StepThreadsByteIdentical) {
  // The sharded engine fills per-shard lanes concurrently and merges them
  // in shard order at the step barrier; the exported bytes must match the
  // serial engine exactly. (The spec strings differ only in the threads
  // token, which is not part of the export.)
  const std::string serial = run_and_export(
      "shuffle:5/two-phase/crcw-combining/fifo/threads:1/obs:2/trace", 2);
  const std::string sharded = run_and_export(
      "shuffle:5/two-phase/crcw-combining/fifo/threads:8/obs:2/trace", 2);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, sharded);
}

// ------------------------------- TracingTraffic under the sharded engine

/// Concurrent-capable rightward-walk handler (the shape the emulator's
/// request phase uses): plain hops take the phase-B fast path, terminal
/// landings defer to on_packet because the digest is shared state.
class RightwardConcurrent final : public sim::TrafficHandler {
 public:
  void on_packet(sim::Packet& p, sim::NodeId at, std::uint32_t step,
                 support::Rng& rng, std::vector<sim::Forward>& out) override {
    if (at == p.dst) {
      digest = digest * 1099511628211ULL ^ p.id ^ (std::uint64_t{step} << 32) ^
               rng();
      return;
    }
    out.push_back(
        sim::Forward{at + 1, static_cast<std::uint32_t>(rng() >> 32)});
  }

  [[nodiscard]] bool route_concurrent(sim::Packet& p, sim::NodeId at,
                                      std::uint32_t step, support::Rng& rng,
                                      sim::Forward& out) const override {
    (void)step;
    if (at == p.dst) return false;
    out = sim::Forward{at + 1, static_cast<std::uint32_t>(rng() >> 32)};
    return true;
  }

  [[nodiscard]] bool route_concurrent_capable() const override { return true; }

  std::uint64_t digest = 0;
};

struct TracedRun {
  std::uint64_t digest = 0;
  std::vector<sim::PacketTrace> traces;
  sim::RunMetrics metrics;
};

TracedRun run_traced(std::uint32_t step_threads) {
  const topology::LinearArray line(24);
  RightwardConcurrent inner;
  sim::TracingTraffic traced(inner);
  sim::EngineConfig config;
  config.step_threads = step_threads;
  sim::SyncEngine engine(line.graph(), traced, config);
  support::Rng rng(0x0b5ULL);
  for (std::uint32_t i = 0; i < 32; ++i) {
    sim::Packet p;
    p.id = i;
    p.src = 0;
    p.dst = 1 + i % 23;
    engine.inject(p, 0, rng);
  }
  EXPECT_TRUE(engine.run(rng));
  return TracedRun{inner.digest, traced.traces(), engine.metrics()};
}

TEST(ObsConcurrencyTracing, TracingWrapperShardedMatchesSerial) {
  // TracingTraffic forwards route_concurrent/route_concurrent_capable, so
  // wrapping a capable handler keeps the sharded fast path *and* records
  // the decided landings: node sequences, the inner digest and the engine
  // metrics must all match the serial engine bit for bit.
  const TracedRun serial = run_traced(1);
  const TracedRun sharded = run_traced(8);
  EXPECT_EQ(serial.digest, sharded.digest);
  EXPECT_EQ(serial.metrics.steps, sharded.metrics.steps);
  EXPECT_EQ(serial.metrics.consumed, sharded.metrics.consumed);
  EXPECT_EQ(serial.metrics.total_hops, sharded.metrics.total_hops);
  ASSERT_EQ(serial.traces.size(), sharded.traces.size());
  for (std::size_t i = 0; i < serial.traces.size(); ++i) {
    EXPECT_EQ(serial.traces[i].nodes, sharded.traces[i].nodes)
        << "packet " << i;
  }
  // The traces really cover the walk: packet i visits 0..dst.
  ASSERT_GE(serial.traces.size(), 2U);
  EXPECT_EQ(serial.traces[1].nodes,
            (std::vector<sim::NodeId>{0, 1, 2}));
}

}  // namespace
}  // namespace levnet
