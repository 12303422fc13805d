// F-series (beyond the paper): degraded-mode emulation under injected
// faults (src/faults/). The paper's w.h.p. machinery — hashed memory with
// a rehash escape hatch, congestion-tolerant randomized routing — is
// exactly what a degraded network stresses; these scenarios measure how
// gracefully it bends: completion rate, slowdown versus the fault-free run
// of the same seed, detour hops per request, and the extra rehashes that
// module deaths force. The F6+ processor-fault sweeps add the recovery
// cost of work reassignment: adopted program slots and the share of
// slot-work the survivors absorbed.
//
// Each scenario builds its degraded Machine once (the base MachineSpec
// carries the fault fractions) and shares it across trials: a run derives
// plan and emulator stream together from its trial seed, so one seed names
// one exact degraded history. The fault-free twin is the same spec with
// the faults knob cleared.

#include <algorithm>
#include <memory>

#include "bench_common.hpp"
#include "machine/machine.hpp"
#include "pram/algorithms/access_patterns.hpp"

namespace {

using namespace levnet;

using bench::u32;

constexpr std::uint32_t kPramSteps = 4;

/// Base spec shared by the F-series: two-phase router, a live rehash
/// escape hatch (the budget must be armed when detour storms blow a step),
/// and few retry attempts — a seed the plan defeats should report
/// complete=false in milliseconds, not burn 2^16x budgets first.
machine::MachineSpec fault_spec(const std::string& topology, double links,
                                double nodes, double modules,
                                sim::QueueDiscipline discipline,
                                bool combining, double procs = 0.0) {
  machine::MachineSpec spec =
      machine::parse_spec(topology + "/two-phase/budget=64/rehash=10");
  spec.mode = combining ? machine::Mode::kCrcwCombining : machine::Mode::kErew;
  spec.discipline = discipline;
  spec.faults.links = links;
  spec.faults.nodes = nodes;
  spec.faults.modules = modules;
  spec.faults.procs = procs;
  return spec;
}

/// One seed's degraded-vs-pristine outcome.
struct FaultOutcome {
  double steps = 0.0;          // faulty network steps per PRAM step
  double slowdown = 1.0;       // faulty / fault-free network steps
  double detours_per_req = 0.0;
  double extra_rehashes = 0.0;  // budget + fault rehashes beyond baseline
  double adopted_slots = 0.0;  // program slots executing at a survivor
  /// Recovery overhead: % of all slot-steps that ran on an adopting
  /// survivor instead of the slot's own processor — the work inflation
  /// survivors absorb to keep the full program registry answering.
  double recovery_overhead = 0.0;
  bool complete = false;
};

/// A scenario's degraded machine and its fault-free twin, shared by every
/// trial.
struct FaultTwins {
  explicit FaultTwins(const machine::MachineSpec& base)
      : degraded(machine::Machine::build(base)),
        pristine(machine::Machine::build([&] {
          machine::MachineSpec spec = base;
          spec.faults = machine::FaultKnobs{};
          return spec;
        }())) {}
  machine::Machine degraded;
  machine::Machine pristine;
};

/// Degraded run + fault-free twin of the same seed -> one FaultOutcome.
template <typename MakeProgram>
FaultOutcome fault_trial(const FaultTwins& twins, std::uint64_t seed,
                         MakeProgram make_program) {
  const machine::Machine& degraded = twins.degraded;
  pram::SharedMemory memory;
  const auto program = make_program(degraded.processors(), seed);
  const emulation::EmulationReport faulty =
      degraded.run_seeded(seed, *program, memory);

  pram::SharedMemory clean_memory;
  const auto baseline_program = make_program(degraded.processors(), seed);
  const emulation::EmulationReport clean =
      twins.pristine.run_seeded(seed, *baseline_program, clean_memory);

  FaultOutcome outcome;
  outcome.complete = faulty.complete;
  outcome.steps = faulty.mean_step_network;
  outcome.slowdown = static_cast<double>(faulty.network_steps) /
                     static_cast<double>(std::max<std::uint64_t>(
                         clean.network_steps, 1));
  outcome.detours_per_req =
      static_cast<double>(faulty.detour_hops) /
      static_cast<double>(std::max<std::uint64_t>(faulty.request_packets, 1));
  outcome.extra_rehashes =
      static_cast<double>(faulty.rehashes + faulty.fault_rehashes) -
      static_cast<double>(clean.rehashes);
  outcome.adopted_slots = static_cast<double>(faulty.dead_procs);
  const double slot_steps =
      static_cast<double>(degraded.processors()) *
      static_cast<double>(std::max<std::uint32_t>(faulty.pram_steps, 1));
  outcome.recovery_overhead =
      100.0 * static_cast<double>(faulty.adopted_slot_steps) / slot_steps;
  return outcome;
}

void fault_row(analysis::ScenarioContext& ctx, const std::string& title,
               const std::vector<std::string>& config_cells,
               const std::vector<FaultOutcome>& outcomes) {
  // Degraded-cost columns average over *completed* seeds only: a defeated
  // seed stops mid-program with truncated step counts, so folding it in
  // would understate slowdown exactly when the faults win. The defeats
  // themselves are what complete% reports.
  double complete = 0, steps = 0, slowdown = 0, detours = 0, rehashes = 0;
  for (const FaultOutcome& o : outcomes) {
    if (!o.complete) continue;
    complete += 1.0;
    steps += o.steps;
    slowdown += o.slowdown;
    detours += o.detours_per_req;
    rehashes += o.extra_rehashes;
  }
  const auto n = static_cast<double>(outcomes.size());
  const double done = complete > 0.0 ? complete : 1.0;  // all-defeated: 0s
  auto& table = ctx.table(
      title, {"network", "fault config", "complete%", "steps/pram-step",
              "slowdown", "detour/req", "extra rehash"});
  table.row()
      .cell(config_cells.at(0))
      .cell(config_cells.at(1))
      .cell(100.0 * complete / n, 0)
      .cell(steps / done, 1)
      .cell(slowdown / done, 2)
      .cell(detours / done, 2)
      .cell(rehashes / done, 1);
}

/// Row writer for the processor-fault sweeps (F6+): instead of the
/// detour/rehash columns, the degraded cost surfaces as work reassignment —
/// how many slots were adopted and what share of the slot-work the
/// survivors absorbed. Same completed-seeds-only averaging as fault_row.
void proc_fault_row(analysis::ScenarioContext& ctx, const std::string& title,
                    const std::vector<std::string>& config_cells,
                    const std::vector<FaultOutcome>& outcomes) {
  double complete = 0, steps = 0, slowdown = 0, adopted = 0, overhead = 0;
  for (const FaultOutcome& o : outcomes) {
    if (!o.complete) continue;
    complete += 1.0;
    steps += o.steps;
    slowdown += o.slowdown;
    adopted += o.adopted_slots;
    overhead += o.recovery_overhead;
  }
  const auto n = static_cast<double>(outcomes.size());
  const double done = complete > 0.0 ? complete : 1.0;  // all-defeated: 0s
  auto& table = ctx.table(
      title, {"network", "fault config", "complete%", "steps/pram-step",
              "slowdown", "adopted slots", "recovery ovh%"});
  table.row()
      .cell(config_cells.at(0))
      .cell(config_cells.at(1))
      .cell(100.0 * complete / n, 0)
      .cell(steps / done, 1)
      .cell(slowdown / done, 2)
      .cell(adopted / done, 1)
      .cell(overhead / done, 1);
}

std::unique_ptr<pram::PramProgram> permutation_program(std::uint32_t procs,
                                                       std::uint64_t seed) {
  return std::make_unique<pram::PermutationTraffic>(procs, kPramSteps, seed);
}

constexpr char kLinksTitle[] =
    "F1: EREW permutation emulation under dead links";

[[maybe_unused]] const analysis::ScenarioRegistrar kLinksStar{
    analysis::Scenario{
        .name = "F1/degraded-links-star",
        .experiment = "F1 / degraded-mode routing (beyond the paper)",
        .sweep = "(n, link%); dead physical links, EREW permutation reads",
        .points = {{5, 0}, {5, 5}, {5, 10}, {5, 15}, {6, 10}},
        .smoke_points = {{5, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n),
                  static_cast<double>(ctx.arg(1)) / 100.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              fault_row(ctx, kLinksTitle,
                        {"star(n=" + std::to_string(n) + ")",
                         "links " + std::to_string(ctx.arg(1)) + "%"},
                        outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kLinksShuffle{
    analysis::Scenario{
        .name = "F1/degraded-links-shuffle",
        .experiment = "F1 / degraded-mode routing (beyond the paper)",
        .sweep = "(n, link%); n-way shuffle, dead links, EREW permutations",
        .points = {{3, 5}, {3, 10}, {4, 10}},
        .smoke_points = {{3, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "nshuffle:" + std::to_string(n),
                  static_cast<double>(ctx.arg(1)) / 100.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              fault_row(ctx, kLinksTitle,
                        {"shuffle(n=" + std::to_string(n) + ")",
                         "links " + std::to_string(ctx.arg(1)) + "%"},
                        outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kModulesStar{
    analysis::Scenario{
        .name = "F2/degraded-modules-star",
        .experiment = "F2 / memory remap under module faults (Hanlon-style)",
        .sweep = "(n, module%); dead memory modules, survivor remap + rehash",
        .points = {{5, 10}, {5, 20}, {6, 10}},
        .smoke_points = {{5, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n), 0.0, 0.0,
                  static_cast<double>(ctx.arg(1)) / 100.0,
                  sim::QueueDiscipline::kFifo, false);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              fault_row(ctx,
                        "F2: EREW permutation emulation under dead modules",
                        {"star(n=" + std::to_string(n) + ")",
                         "modules " + std::to_string(ctx.arg(1)) + "%"},
                        outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kNodesButterfly{
    analysis::Scenario{
        .name = "F3/degraded-nodes-butterfly",
        .experiment = "F3 / dead interior switches on the leveled network",
        .sweep = "(levels l, node%); radix-2 butterfly, endpoint column "
                 "protected",
        .points = {{4, 10}, {5, 10}, {6, 10}},
        .smoke_points = {{4, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto levels = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "butterfly:" + std::to_string(levels), 0.05,
                  static_cast<double>(ctx.arg(1)) / 100.0, 0.0,
                  sim::QueueDiscipline::kFifo, false);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              fault_row(ctx,
                        "F3: EREW permutation emulation under dead switches",
                        {"butterfly(d=2,l=" + std::to_string(levels) + ")",
                         "nodes " + std::to_string(ctx.arg(1)) +
                             "% links 5%"},
                        outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kDiscipline{
    analysis::Scenario{
        .name = "F4/degraded-discipline-star",
        .experiment = "F4 / queue discipline under faults (ablation)",
        .sweep = "(n, link%, discipline 0=fifo 1=furthest); dead links",
        .points = {{5, 10, 0}, {5, 10, 1}, {5, 15, 0}, {5, 15, 1}},
        .smoke_points = {{5, 10, 0}, {5, 10, 1}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const auto discipline =
                  ctx.arg(2) != 0 ? sim::QueueDiscipline::kFurthestFirst
                                  : sim::QueueDiscipline::kFifo;
              const machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n),
                  static_cast<double>(ctx.arg(1)) / 100.0, 0.0, 0.0,
                  discipline, false);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              fault_row(ctx, "F4: queue discipline under dead links",
                        {"star(n=" + std::to_string(n) + ")",
                         "links " + std::to_string(ctx.arg(1)) + "% " +
                             (ctx.arg(2) != 0 ? "furthest" : "fifo")},
                        outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kCrcwStar{
    analysis::Scenario{
        .name = "F5/degraded-crcw-star",
        .experiment = "F5 / combining CRCW under faults",
        .sweep = "(n, link%); hot-spot reads, en-route combining, dead links",
        .points = {{5, 5}, {5, 10}},
        .smoke_points = {{5, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n),
                  static_cast<double>(ctx.arg(1)) / 100.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, true);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(
                    twins, seed,
                    [](std::uint32_t procs, std::uint64_t)
                        -> std::unique_ptr<pram::PramProgram> {
                      return std::make_unique<pram::HotSpotReadTraffic>(
                          procs, kPramSteps, 99);
                    });
              });
              fault_row(ctx, "F5: combining CRCW hot spot under dead links",
                        {"star(n=" + std::to_string(n) + ")",
                         "links " + std::to_string(ctx.arg(1)) + "%"},
                        outcomes);
            },
    }};

constexpr char kProcsTitle[] =
    "F6: EREW permutation emulation under dead processors";

[[maybe_unused]] const analysis::ScenarioRegistrar kProcsStar{
    analysis::Scenario{
        .name = "F6/degraded-procs-star",
        .experiment =
            "F6 / processor faults with survivor work reassignment "
            "(Chlebus-Gasieniec-Pelc setting)",
        .sweep = "(n, proc%); dead processor endpoints, survivors adopt the "
                 "dead program slots",
        .points = {{5, 5}, {5, 10}, {5, 20}, {6, 10}},
        .smoke_points = {{5, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n), 0.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false,
                  static_cast<double>(ctx.arg(1)) / 100.0);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              proc_fault_row(ctx, kProcsTitle,
                             {"star(n=" + std::to_string(n) + ")",
                              "procs " + std::to_string(ctx.arg(1)) + "%"},
                             outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kProcsShuffle{
    analysis::Scenario{
        .name = "F6/degraded-procs-shuffle",
        .experiment =
            "F6 / processor faults with survivor work reassignment "
            "(Chlebus-Gasieniec-Pelc setting)",
        .sweep = "(n, proc%); n-way shuffle, dead processor endpoints",
        .points = {{3, 10}, {4, 10}},
        .smoke_points = {{3, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "nshuffle:" + std::to_string(n), 0.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false,
                  static_cast<double>(ctx.arg(1)) / 100.0);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              proc_fault_row(ctx, kProcsTitle,
                             {"shuffle(n=" + std::to_string(n) + ")",
                              "procs " + std::to_string(ctx.arg(1)) + "%"},
                             outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kProcsButterfly{
    analysis::Scenario{
        .name = "F7/degraded-procs-butterfly",
        .experiment =
            "F7 / processor faults on the leveled network, compounded with "
            "dead links",
        .sweep = "(levels l, proc%); radix-2 butterfly, dead endpoint rows "
                 "plus links 5%",
        .points = {{4, 10}, {5, 10}},
        .smoke_points = {{4, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto levels = u32(ctx.arg(0));
              const machine::MachineSpec base = fault_spec(
                  "butterfly:" + std::to_string(levels), 0.05, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false,
                  static_cast<double>(ctx.arg(1)) / 100.0);
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              proc_fault_row(ctx,
                             "F7: processor faults on the butterfly "
                             "(plus dead links)",
                             {"butterfly(d=2,l=" + std::to_string(levels) + ")",
                              "procs " + std::to_string(ctx.arg(1)) +
                                  "% links 5%"},
                             outcomes);
            },
    }};

[[maybe_unused]] const analysis::ScenarioRegistrar kProcsOnset{
    analysis::Scenario{
        .name = "F8/procs-onset-star",
        .experiment =
            "F8 / epoch-onset processor deaths (mid-run work reassignment)",
        .sweep = "(n, proc%); faults spread over the run's epochs instead of "
                 "all-static",
        .points = {{5, 10}, {5, 20}},
        .smoke_points = {{5, 10}},
        .seeds = 5,
        .run =
            [](analysis::ScenarioContext& ctx) {
              const auto n = u32(ctx.arg(0));
              machine::MachineSpec base = fault_spec(
                  "star:" + std::to_string(n), 0.0, 0.0, 0.0,
                  sim::QueueDiscipline::kFifo, false,
                  static_cast<double>(ctx.arg(1)) / 100.0);
              base.faults.onset_epochs = kPramSteps;
              const FaultTwins twins(base);

              const auto outcomes = ctx.collect([&](std::uint64_t seed) {
                return fault_trial(twins, seed, permutation_program);
              });
              proc_fault_row(ctx,
                             "F8: mid-run processor deaths "
                             "(onset epochs spread over the run)",
                             {"star(n=" + std::to_string(n) + ")",
                              "procs " + std::to_string(ctx.arg(1)) +
                                  "% onsets " + std::to_string(kPramSteps)},
                             outcomes);
            },
    }};

}  // namespace

LEVNET_BENCH_MAIN()
