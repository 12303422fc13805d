#pragma once
// Per-layer probes: each helper times the benchmark's own calls into one
// levnet module under a span named after that module. The times are the
// spans' own, so the helpers belong to the traced pass only.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "emulation/emulator.hpp"
#include "machine/machine.hpp"
#include "obs/recorder.hpp"

namespace levbench {

/// Named sample lists (seconds unless the name says otherwise).
class Samples {
 public:
  void add(const std::string& name, double value) {
    data_[name].push_back(value);
  }
  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> data_;
};

/// Work counted by attached obs::Recorders, plus the untraced and traced
/// run times of the same runs (for ns/transmission and tracing overhead).
struct WorkCounts {
  std::uint64_t transmissions = 0;
  std::uint64_t injections = 0;
  std::uint64_t consumptions = 0;
  std::uint64_t combining_merges = 0;
  std::uint64_t rehash_attempts = 0;
  std::uint32_t peak_in_flight = 0;
  std::uint64_t pram_steps = 0;
  std::uint64_t runs = 0;
  double untraced_s = 0.0;
  double traced_s = 0.0;

  void add(const levnet::obs::Recorder& recorder,
           const levnet::emulation::EmulationReport& report,
           double untraced_s_of_run, double traced_s_of_run);
  /// sim.*, emulation.* and obs.overhead_share metrics (per run means for
  /// the counts, so they repeat exactly for a given seed).
  void emit(Result& result) const;
};

/// The simulated fields of a report (the latency quantiles, which only a
/// recorder fills in, zeroed) as write_report_fields text.
[[nodiscard]] std::string simulated_fields(
    levnet::emulation::EmulationReport report);

/// Route-only pass: one sim::permutation_workload through the machine's
/// graph, router and engine_config(). Returns ns per hop; `ok` is false
/// when a packet was not delivered.
[[nodiscard]] double route_ns_per_hop(const levnet::machine::Machine& m,
                                      std::uint64_t seed, Tracer& tracer,
                                      bool& ok);

/// PolynomialHash (the emulator's degree and module count) evaluated over
/// `address_space` addresses; ns per evaluation.
[[nodiscard]] double hash_ns_per_eval(const levnet::machine::Machine& m,
                                      std::uint64_t address_space,
                                      std::uint64_t seed, Tracer& tracer);

/// FaultPlan::sample for a faulted spec, drawn the way Machine::build
/// draws it; returns its seconds.
[[nodiscard]] double fault_plan_seconds(
    const levnet::machine::MachineSpec& spec, Tracer& tracer);

/// Times parse_spec, Machine::validate, Machine::build and the three parts
/// of a build (build_topology, make_router, make_fabric) for one spec,
/// `reps` times each, into `samples` under "machine.parse" ...
/// "emulation.fabric". `ok` is false when the spec does not parse or
/// validate.
void time_setup_layers(const std::string& spec_text, int reps,
                       Tracer& tracer, Samples& samples, bool& ok);

/// Emits the six set-up layer metrics from `samples` (medians), with
/// machine.validate_ms taken from `validate_s`.
void emit_setup_layers(const Samples& samples, double validate_s,
                       Result& result);

/// One trial of `program` on `spec` at threads:1 and at threads:`threads`
/// (same seed): emits sim.speedup_t4 and sim.parallel_efficiency and
/// checks that both runs report and compute the same.
void measure_thread_speedup(levnet::machine::MachineSpec spec, unsigned threads,
                            const std::string& program, std::uint32_t steps,
                            std::uint64_t seed, Tracer& tracer,
                            Result& result);

}  // namespace levbench
