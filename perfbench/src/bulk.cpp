// Bulk workloads: one star:8 machine, fresh-seeded PRAM programs run
// back to back through the Machine API in-process, each checked against
// ReferencePram.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "layers.hpp"
#include "machine/registry.hpp"
#include "pram/memory.hpp"
#include "pram/reference.hpp"
#include "serve_load.hpp"

namespace levbench {

namespace {

namespace lm = levnet::machine;

struct BulkWorkload {
  const char* name;
  const char* spec;
  const char* program;
};

constexpr BulkWorkload kBulk[] = {
    {"erew-permutation", "star:8/two-phase/erew/fifo/threads:4",
     "permutation"},
    {"crcw-histogram", "star:8/two-phase/crcw-combining/fifo/threads:4",
     "histogram"},
};

constexpr std::uint32_t kPramSteps = 4;  // synthetic programs' step count
constexpr int kSetupReps = 9;            // set-up is the median of these
constexpr std::size_t kMinTrials = 5;    // steps_per_diam is over these
constexpr unsigned kStepThreads = 4;     // the specs' threads: token

struct Trial {
  bool ok = false;
  double seconds = 0.0;  // Machine::run_seeded only
  levnet::emulation::EmulationReport report;
  levnet::pram::SharedMemory memory;
};

/// One fresh-seeded trial: build the program, compute the reference
/// memory, run the emulation (timed), compare.
Trial run_trial(const lm::Machine& m, const std::string& program_key,
                std::uint64_t seed, levnet::obs::Recorder* recorder,
                Tracer& tracer, Samples& samples) {
  Trial trial;
  std::string error;
  std::unique_ptr<levnet::pram::PramProgram> program;
  {
    Span span(tracer, "machine.make_program");
    program = lm::make_program(program_key, m.processors(), seed, kPramSteps,
                               error);
  }
  if (program == nullptr) return trial;
  levnet::pram::SharedMemory ideal;
  {
    Span span(tracer, "pram.reference_run");
    levnet::pram::ReferencePram::for_program(*program).run(*program, ideal);
    if (tracer.enabled()) samples.add("pram.reference", span.stop());
  }
  program->reset();
  {
    Span span(tracer, recorder == nullptr ? "machine.run_seeded"
                                          : "obs.recorded_run");
    const double start = now_s();
    trial.report = m.run_seeded(seed, *program, trial.memory, recorder);
    trial.seconds = now_s() - start;
  }
  trial.ok = trial.report.complete && ideal == trial.memory &&
             program->validate(trial.memory);
  return trial;
}

std::string trial_what(const char* name, std::uint64_t seed) {
  return std::string(name) + " trial seed " + std::to_string(seed) +
         ": memory differs from ReferencePram";
}

}  // namespace

void run_bulk(const Options& options, Tracer& tracer, Result& result) {
  const BulkWorkload& w =
      options.workload == kBulk[0].name ? kBulk[0] : kBulk[1];
  result.info("spec", w.spec);
  result.info("program", std::string(w.program) + " (" +
                             std::to_string(kPramSteps) +
                             " PRAM steps for synthetic programs)");
  Samples samples;
  std::optional<lm::Machine> machine;
  lm::MachineSpec spec;

  // Set-up: parse + validate + build, several times; the last one is kept.
  std::vector<double> setup_s;
  if (tracer.enabled()) {
    bool ok = false;
    time_setup_layers(w.spec, kSetupReps, tracer, samples, ok);
    result.check(ok, std::string("spec does not validate: ") + w.spec);
    emit_setup_layers(samples, samples.median_of("machine.validate"), result);
  }
  for (int r = 0; r < (tracer.enabled() ? 1 : kSetupReps); ++r) {
    machine.reset();  // tearing down the previous build is not set-up
    const double start = now_s();
    std::string error;
    const bool ok = lm::parse_spec(w.spec, spec, error) &&
                    lm::Machine::validate(spec, error);
    result.check(ok, "spec does not validate: " + error);
    if (!ok) return;
    machine.emplace(lm::Machine::build(spec));
    setup_s.push_back(now_s() - start);
  }
  const lm::Machine& m = *machine;
  result.info("machine", m.name() + ", " + std::to_string(m.processors()) +
                             " processors, route scale " +
                             std::to_string(m.route_scale()));

  // The first trial in a process runs slower (cold caches, first pool
  // start); it is checked but not timed.
  Tracer untimed(false);
  const std::uint64_t warm_seed = derive_seed(options.seed, 100);
  const Trial warm =
      run_trial(m, w.program, warm_seed, nullptr, untimed, samples);
  result.check(warm.ok, trial_what(w.name, warm_seed));

  const double loop_start = now_s();
  if (!tracer.enabled()) {
    std::vector<double> trial_ms;
    std::vector<double> step_ms;
    double scaled_steps = 0.0;
    double network_steps = 0.0;
    double busy_s = 0.0;
    for (std::uint64_t i = 1;
         i <= kMinTrials || now_s() - loop_start < options.seconds; ++i) {
      const std::uint64_t seed = derive_seed(options.seed, 100 + i);
      const Trial t = run_trial(m, w.program, seed, nullptr, tracer, samples);
      result.check(t.ok, trial_what(w.name, seed));
      trial_ms.push_back(t.seconds * 1e3);
      step_ms.push_back(t.seconds * 1e3 / std::max(1U, t.report.pram_steps));
      busy_s += t.seconds;
      if (i <= kMinTrials) {
        network_steps += static_cast<double>(t.report.network_steps);
        scaled_steps += static_cast<double>(t.report.pram_steps) *
                        m.route_scale();
      }
    }
    const Tail tail = tail_percentile(trial_ms);
    result.info("trials", std::to_string(trial_ms.size()) +
                              " timed (+1 warm-up), " +
                              fmt(*std::min_element(trial_ms.begin(),
                                                    trial_ms.end())) +
                              " .. " +
                              fmt(*std::max_element(trial_ms.begin(),
                                                    trial_ms.end())) +
                              " ms");
    result.info("req_p99_ms", fmt(tail.value) + " ms, trial latency at p" +
                                  fmt(tail.percentile) + " of " +
                                  std::to_string(tail.samples) + " trials (" +
                                  std::to_string(tail.beyond) + " beyond)");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("pram_step_ms", median(step_ms), "ms");
    result.metric("steps_per_diam", network_steps / scaled_steps, "ratio");
    result.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    result.metric("req_per_s",
                  static_cast<double>(trial_ms.size()) / busy_s, "1/s");
    result.metric("req_p50_ms", median(trial_ms), "ms");
    return;
  }

  // Traced pass: untraced and recorder-attached runs of the same seeds,
  // alternating which goes first.
  WorkCounts work;
  for (std::uint64_t i = 1; i <= 2 || now_s() - loop_start < options.seconds;
       ++i) {
    const std::uint64_t seed = derive_seed(options.seed, 100 + i);
    levnet::obs::Recorder recorder;
    Trial plain;
    Trial traced;
    if (i % 2 == 1) {
      plain = run_trial(m, w.program, seed, nullptr, tracer, samples);
      traced = run_trial(m, w.program, seed, &recorder, tracer, samples);
    } else {
      traced = run_trial(m, w.program, seed, &recorder, tracer, samples);
      plain = run_trial(m, w.program, seed, nullptr, tracer, samples);
    }
    result.check(plain.ok && traced.ok, trial_what(w.name, seed));
    result.check(simulated_fields(plain.report) ==
                         simulated_fields(traced.report) &&
                     plain.memory == traced.memory,
                 std::string(w.name) + " seed " + std::to_string(seed) +
                     ": traced run differs from untraced");
    work.add(recorder, plain.report, plain.seconds, traced.seconds);
  }
  work.emit(result);
  result.metric("pram.reference_ms", samples.median_of("pram.reference") * 1e3,
                "ms");

  bool routed = false;
  result.metric("routing.ns_per_hop",
                route_ns_per_hop(m, derive_seed(options.seed, 3), tracer,
                                 routed),
                "ns");
  result.check(routed, "route-only pass left packets undelivered");
  measure_thread_speedup(spec, kStepThreads, w.program, kPramSteps,
                         derive_seed(options.seed, 4), tracer, result);
  {
    std::string error;
    const auto program = lm::make_program(w.program, m.processors(),
                                          warm_seed, kPramSteps, error);
    result.metric("hashing.ns_per_eval",
                  hash_ns_per_eval(m, program->address_space(),
                                   derive_seed(options.seed, 5), tracer),
                  "ns");
  }

  // Serve probe: this workload's own spec through the real levnet_serve.
  Round probe;
  probe.open = probe_stream(w.spec, w.program, derive_seed(options.seed, 6));
  // The faulted line builds a star:8 fault plan (seconds); once is enough.
  for (const StreamItem& item : probe.open) {
    if (item.line.find("faults:") == std::string::npos) {
      probe.closed.push_back(item);
    }
  }
  SessionPlan plan;
  plan.open_rate_per_s = 4.0;
  plan.window = 4;
  plan.closed_s = 120.0;  // the probe is short; every line is sent
  (void)run_serve_session(options, {probe}, plan, tracer, result);
}

}  // namespace levbench
