#include "machine/machine.hpp"

#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "faults/injector.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace levnet::machine {

// Shared-state inventory for the const run_seeded() contract: every
// member is written once in build() and only ever read afterwards, so
// run_seeded() may touch them const-ly from any number of threads at once.
// All mutable per-run state — fault plan, injector, liveness mask and the
// NetworkEmulator — is built inside each call.
struct Machine::Impl {
  MachineSpec spec;
  std::string name;
  std::unique_ptr<TopologyBox> topo;
  std::unique_ptr<routing::Router> router;
  std::optional<emulation::EmulationFabric> fabric;
};

Machine::Machine(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Machine::Machine(Machine&&) noexcept = default;
Machine& Machine::operator=(Machine&&) noexcept = default;
Machine::~Machine() = default;

Machine Machine::build(const MachineSpec& spec) {
  std::string error;
  LEVNET_CHECK_MSG(validate(spec, error), error);
  auto impl = std::make_unique<Impl>();
  impl->spec = spec;
  impl->topo = build_topology(spec, error);
  impl->router =
      impl->topo->make_router(spec.router, spec.router_param, error);
  LEVNET_CHECK_MSG(impl->router != nullptr, error);
  impl->fabric.emplace(impl->topo->make_fabric(*impl->router));
  impl->name = impl->topo->name();
  return Machine(std::move(impl));
}

Machine Machine::build(std::string_view spec_text) {
  return build(parse_spec(spec_text));
}

bool Machine::validate(const MachineSpec& spec, std::string& error) {
  Dims dims;
  const TopologyInfo* info = check_shape(spec, dims, error);
  return info != nullptr &&
         check_router(*info, spec.router, spec.router_param, error);
}

const MachineSpec& Machine::spec() const noexcept { return impl_->spec; }
const std::string& Machine::name() const noexcept { return impl_->name; }
const topology::Graph& Machine::graph() const noexcept {
  return impl_->topo->graph();
}
const routing::Router& Machine::router() const noexcept {
  return *impl_->router;
}
std::uint32_t Machine::processors() const noexcept {
  return impl_->topo->endpoints();
}
std::uint32_t Machine::route_scale() const noexcept {
  return impl_->topo->route_scale();
}
bool Machine::fault_plan(std::uint64_t seed, faults::FaultPlan& plan,
                         std::string& error) const {
  const FaultKnobs& knobs = impl_->spec.faults;
  const faults::FaultSpec fault_spec{
      .link_fraction = knobs.links, .node_fraction = knobs.nodes,
      .module_fraction = knobs.modules, .proc_fraction = knobs.procs,
      .onset_epochs = knobs.onset_epochs,
      .preserve_connectivity = knobs.preserve_connectivity};
  const std::uint32_t endpoints = processors();
  return faults::FaultPlan::sample(graph(), endpoints, endpoints, fault_spec,
                                   seed, plan, error);
}

sim::EngineConfig Machine::engine_config() const noexcept {
  sim::EngineConfig config;
  config.discipline = impl_->spec.discipline;
  config.node_buffer_bound = impl_->spec.node_buffer_bound;
  config.step_threads = impl_->spec.step_threads;
  return config;
}

bool Machine::run_seeded(std::uint64_t seed, pram::PramProgram& program,
                         pram::SharedMemory& memory,
                         emulation::EmulationReport& report,
                         std::string& error, obs::Recorder* recorder) const {
  const MachineSpec& spec = impl_->spec;
  emulation::EmulatorConfig config;
  config.combining = spec.mode == Mode::kCrcwCombining;
  config.hash_degree = spec.hash_degree;
  config.step_budget_factor = spec.step_budget_factor;
  config.max_rehash_attempts = spec.max_rehash_attempts;
  config.discipline = spec.discipline;
  config.node_buffer_bound = spec.node_buffer_bound;
  config.step_threads = spec.step_threads;
  config.seed = seed;
  config.recorder = recorder;
  // The run's own fault state; declaration order is the lifetime order
  // (the injector borrows the plan, the emulator borrows the injector).
  faults::FaultPlan plan;
  std::optional<faults::FaultInjector> injector;
  if (spec.faults != FaultKnobs{}) {
    if (!fault_plan(seed, plan, error)) return false;
    config.faults = &injector.emplace(graph(), processors(), plan);
  }
  emulation::NetworkEmulator emulator(*impl_->fabric, config);
  report = emulator.run(program, memory);
  return true;
}

emulation::EmulationReport Machine::run_seeded(
    std::uint64_t seed, pram::PramProgram& program, pram::SharedMemory& memory,
    obs::Recorder* recorder) const {
  emulation::EmulationReport report;
  std::string error;
  LEVNET_CHECK_MSG(run_seeded(seed, program, memory, report, error, recorder),
                   error);
  return report;
}

emulation::EmulationReport Machine::run(pram::PramProgram& program,
                                        pram::SharedMemory& memory,
                                        obs::Recorder* recorder) const {
  return run_seeded(impl_->spec.seed, program, memory, recorder);
}

emulation::EmulationReport Machine::run(pram::PramProgram& program) const {
  pram::SharedMemory memory;
  return run(program, memory);
}

ProgramFactory program_factory(std::string_view key,
                               std::uint32_t pram_steps) {
  LEVNET_CHECK_MSG(find_program(key) != nullptr,
                   ("unknown program family '" + std::string(key) +
                    "' (valid: " + program_keys_joined() + ")")
                       .c_str());
  return [key = std::string(key), pram_steps](
             std::uint32_t processors,
             std::uint64_t seed) -> std::unique_ptr<pram::PramProgram> {
    std::string make_error;
    auto program =
        make_program(key, processors, seed, pram_steps, make_error);
    LEVNET_CHECK_MSG(program != nullptr, make_error);
    return program;
  };
}

bool run_trials(const Machine& machine, const ProgramFactory& factory,
                std::uint32_t seeds, unsigned threads,
                analysis::TrialStats& stats, std::string& error,
                std::vector<emulation::EmulationReport>* reports,
                std::vector<std::unique_ptr<obs::Recorder>>* recorders) {
  LEVNET_CHECK_MSG(seeds > 0, "run_trials needs at least one seed");
  support::ThreadPool pool(threads);
  // Recorders are attached when the spec asks for observability or the
  // caller wants the recorders back; either way each seed owns its own
  // (recorders are not thread-safe), indexed like the report slots so the
  // output order is seed order at any thread count.
  const MachineSpec& spec = machine.spec();
  const bool want_obs =
      recorders != nullptr || spec.obs_cadence != 0 || spec.obs_trace;
  std::vector<std::unique_ptr<obs::Recorder>> obs_per_seed;
  if (want_obs) {
    const obs::RecorderConfig obs_config{spec.obs_cadence, spec.obs_trace};
    obs_per_seed.reserve(seeds);
    for (std::uint32_t i = 0; i < seeds; ++i) {
      obs_per_seed.push_back(std::make_unique<obs::Recorder>(obs_config));
      obs_per_seed.back()->bind_topology(machine.graph());
    }
  }
  // Seed fan-out matches analysis::TrialRunner::collect (SplitMix64 of
  // 1 + index) — results and errors land in seed-indexed slots, so stats
  // and the reported failure are bit-identical for 1 and N threads.
  std::vector<emulation::EmulationReport> per_seed(seeds);
  std::vector<std::string> errors(seeds);
  pool.parallel_for(seeds, [&](std::size_t i) {
    const std::uint64_t seed =
        analysis::TrialRunner::trial_seed(1, static_cast<std::uint32_t>(i));
    const auto program = factory(machine.processors(), seed);
    pram::SharedMemory memory;
    (void)machine.run_seeded(seed, *program, memory, per_seed[i], errors[i],
                             want_obs ? obs_per_seed[i].get() : nullptr);
  });
  for (std::uint32_t i = 0; i < seeds; ++i) {
    if (!errors[i].empty()) {
      error = "trial " + std::to_string(i) + " (seed " +
              std::to_string(analysis::TrialRunner::trial_seed(1, i)) +
              "): " + errors[i];
      return false;
    }
  }
  const std::vector<analysis::TrialMeasurement> measurements(
      per_seed.begin(), per_seed.end());
  stats = analysis::aggregate(measurements);
  if (reports != nullptr) {
    reports->insert(reports->end(),
                    std::make_move_iterator(per_seed.begin()),
                    std::make_move_iterator(per_seed.end()));
  }
  if (recorders != nullptr) {
    recorders->insert(recorders->end(),
                      std::make_move_iterator(obs_per_seed.begin()),
                      std::make_move_iterator(obs_per_seed.end()));
  }
  return true;
}

}  // namespace levnet::machine
