#include "layers.hpp"

#include <sstream>

#include "faults/plan.hpp"
#include "hashing/poly_hash.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "machine/spec.hpp"
#include "obs/probes.hpp"
#include "pram/memory.hpp"
#include "routing/driver.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"

namespace levbench {

namespace lm = levnet::machine;

double Samples::mean(const std::string& name) const {
  const auto it = data_.find(name);
  if (it == data_.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Samples::median_of(const std::string& name) const {
  const auto it = data_.find(name);
  return it == data_.end() ? 0.0 : median(it->second);
}

void WorkCounts::add(const levnet::obs::Recorder& recorder,
                     const levnet::emulation::EmulationReport& report,
                     double untraced_s_of_run, double traced_s_of_run) {
  using levnet::obs::Probe;
  transmissions += recorder.counter(Probe::kTransmissions);
  injections += recorder.counter(Probe::kInjections);
  consumptions += recorder.counter(Probe::kConsumptions);
  combining_merges += recorder.counter(Probe::kCombiningMerges);
  rehash_attempts += recorder.counter(Probe::kRehashAttempts);
  peak_in_flight = std::max(peak_in_flight, report.peak_in_flight);
  pram_steps += report.pram_steps;
  ++runs;
  untraced_s += untraced_s_of_run;
  traced_s += traced_s_of_run;
}

void WorkCounts::emit(Result& result) const {
  const double n = runs == 0 ? 1.0 : static_cast<double>(runs);
  result.metric("sim.transmissions", static_cast<double>(transmissions) / n,
                "count");
  result.metric("sim.injections", static_cast<double>(injections) / n,
                "count");
  result.metric("sim.consumptions", static_cast<double>(consumptions) / n,
                "count");
  result.metric("emulation.combining_merges",
                static_cast<double>(combining_merges) / n, "count");
  result.metric("emulation.rehash_attempts",
                static_cast<double>(rehash_attempts) / n, "count");
  result.metric("emulation.peak_in_flight", peak_in_flight, "count");
  const double steps = static_cast<double>(pram_steps);
  result.metric("emulation.useful_ratio",
                steps / (steps + static_cast<double>(rehash_attempts)),
                "ratio");
  result.metric("sim.ns_per_transmission",
                transmissions == 0
                    ? 0.0
                    : untraced_s * 1e9 / static_cast<double>(transmissions),
                "ns");
  result.metric("obs.overhead_share",
                untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0,
                "ratio");
  result.info("recorded runs", std::to_string(runs) + " (untraced " +
                                   fmt(untraced_s * 1e3) + " ms, traced " +
                                   fmt(traced_s * 1e3) + " ms)");
}

std::string simulated_fields(levnet::emulation::EmulationReport report) {
  report.latency_p50 = report.latency_p95 = report.latency_p99 = 0;
  report.queue_delay_p50 = report.queue_delay_p95 = report.queue_delay_p99 = 0;
  std::ostringstream os;
  lm::write_report_fields(os, report);
  return os.str();
}

double route_ns_per_hop(const lm::Machine& m, std::uint64_t seed,
                        Tracer& tracer, bool& ok) {
  levnet::support::Rng rng(seed);
  const levnet::sim::Workload workload =
      levnet::sim::permutation_workload(m.processors(), rng);
  Span span(tracer, "routing.run_workload");
  const levnet::routing::RoutingOutcome outcome = levnet::routing::run_workload(
      m.graph(), m.router(), workload, m.engine_config(), rng);
  const double seconds = span.stop();
  ok = outcome.complete && outcome.delivered == workload.size();
  return outcome.metrics.total_hops == 0
             ? 0.0
             : seconds * 1e9 / static_cast<double>(outcome.metrics.total_hops);
}

double hash_ns_per_eval(const lm::Machine& m, std::uint64_t address_space,
                        std::uint64_t seed, Tracer& tracer) {
  levnet::support::Rng rng(seed);
  const std::uint32_t degree = m.spec().hash_degree != 0
                                   ? m.spec().hash_degree
                                   : m.route_scale();
  const std::uint64_t space = std::max<std::uint64_t>(address_space, 1);
  const levnet::hashing::PolynomialHash hash =
      levnet::hashing::PolynomialHash::sample(degree, space, m.processors(),
                                              rng);
  // Enough passes over the address range for ~2M evaluations.
  const std::uint64_t passes = std::max<std::uint64_t>(1, (1u << 21) / space);
  std::uint64_t sink = 0;
  Span span(tracer, "hashing.evaluate");
  for (std::uint64_t p = 0; p < passes; ++p) {
    for (std::uint64_t x = 0; x < space; ++x) sink += hash(x);
  }
  const double seconds = span.stop();
  // The sum keeps the loop observable; a module index is always below the
  // module count, so the check never fires but cannot be folded away.
  if (sink > passes * space * m.processors()) return -1.0;
  return seconds * 1e9 / static_cast<double>(passes * space);
}

double fault_plan_seconds(const lm::MachineSpec& spec, Tracer& tracer) {
  std::string error;
  std::unique_ptr<lm::TopologyBox> box = lm::build_topology(spec, error);
  if (box == nullptr) return 0.0;
  levnet::faults::FaultSpec fault_spec;
  fault_spec.link_fraction = spec.faults.links;
  fault_spec.node_fraction = spec.faults.nodes;
  fault_spec.module_fraction = spec.faults.modules;
  fault_spec.proc_fraction = spec.faults.procs;
  fault_spec.onset_epochs = spec.faults.onset_epochs;
  fault_spec.preserve_connectivity = spec.faults.preserve_connectivity;
  const std::uint32_t endpoints = box->endpoints();
  Span span(tracer, "faults.plan_sample");
  (void)levnet::faults::FaultPlan::sample(box->graph(), endpoints, endpoints,
                                          fault_spec, spec.seed);
  return span.stop();
}

void time_setup_layers(const std::string& spec_text, int reps,
                       Tracer& tracer, Samples& samples, bool& ok) {
  ok = true;
  for (int r = 0; r < reps; ++r) {
    lm::MachineSpec spec;
    std::string error;
    {
      Span span(tracer, "machine.parse_spec");
      ok = ok && lm::parse_spec(spec_text, spec, error);
      samples.add("machine.parse", span.stop());
    }
    {
      Span span(tracer, "machine.validate");
      ok = ok && lm::Machine::validate(spec, error);
      samples.add("machine.validate", span.stop());
    }
    if (!ok) return;
    {
      Span span(tracer, "machine.build");
      const lm::Machine m = lm::Machine::build(spec);
      samples.add("machine.build", span.stop());
    }
    std::unique_ptr<lm::TopologyBox> box;
    {
      Span span(tracer, "topology.build_topology");
      box = lm::build_topology(spec, error);
      samples.add("topology.build", span.stop());
    }
    if (box == nullptr) {
      ok = false;
      return;
    }
    std::unique_ptr<levnet::routing::Router> router;
    {
      Span span(tracer, "routing.make_router");
      router = box->make_router(spec.router, spec.router_param, error);
      samples.add("routing.build", span.stop());
    }
    if (router == nullptr) {
      ok = false;
      return;
    }
    {
      Span span(tracer, "emulation.make_fabric");
      const levnet::emulation::EmulationFabric fabric =
          box->make_fabric(*router);
      samples.add("emulation.fabric", span.stop());
    }
  }
}

void emit_setup_layers(const Samples& samples, double validate_s,
                       Result& result) {
  result.metric("machine.parse_us", samples.median_of("machine.parse") * 1e6,
                "us");
  result.metric("machine.validate_ms", validate_s * 1e3, "ms");
  result.metric("machine.build_ms", samples.median_of("machine.build") * 1e3,
                "ms");
  result.metric("topology.build_ms",
                samples.median_of("topology.build") * 1e3, "ms");
  result.metric("routing.build_ms", samples.median_of("routing.build") * 1e3,
                "ms");
  result.metric("emulation.fabric_ms",
                samples.median_of("emulation.fabric") * 1e3, "ms");
}

void measure_thread_speedup(lm::MachineSpec spec, unsigned threads,
                            const std::string& program, std::uint32_t steps,
                            std::uint64_t seed, Tracer& tracer,
                            Result& result) {
  double seconds[2] = {0.0, 0.0};
  std::string fields[2];
  levnet::pram::SharedMemory memory[2];
  const unsigned thread_counts[2] = {1, threads};
  for (int k = 0; k < 2; ++k) {
    spec.step_threads = thread_counts[k];
    const lm::Machine m = lm::Machine::build(spec);
    std::string error;
    const std::unique_ptr<levnet::pram::PramProgram> p =
        lm::make_program(program, m.processors(), seed, steps, error);
    Span span(tracer, k == 0 ? "sim.run_threads_1" : "sim.run_threads_n");
    const levnet::emulation::EmulationReport report =
        m.run_seeded(seed, *p, memory[k]);
    seconds[k] = span.stop();
    fields[k] = simulated_fields(report);
  }
  result.check(fields[0] == fields[1] && memory[0] == memory[1],
               "threads:1 and threads:" + std::to_string(threads) +
                   " runs differ");
  const double speedup = seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0;
  result.metric("sim.speedup_t4", speedup, "x");
  result.metric("sim.parallel_efficiency", speedup / threads, "ratio");
  result.info("sim.speedup_t4", fmt(seconds[0] * 1e3) + " ms at threads:1, " +
                                    fmt(seconds[1] * 1e3) + " ms at threads:" +
                                    std::to_string(threads));
}

}  // namespace levbench
