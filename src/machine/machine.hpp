#pragma once
// Machine: one owning handle over the whole emulation stack.
//
// Hand-assembling an emulated PRAM takes objects whose raw-pointer
// lifetimes the caller must order correctly (graph <- router <- fabric,
// emulator borrowing the fabric, and per run a fault plan <- injector over
// the same graph). A Machine is built from a MachineSpec and owns all of
// it:
//
//   auto m = machine::Machine::build("star:5/two-phase/crcw-combining/fifo");
//   pram::HistogramCrcwSum program(keys, buckets);
//   pram::SharedMemory memory;
//   emulation::EmulationReport report = m.run(program, memory);
//
// The low-level constructors stay public and untouched — golden fixtures
// and baselines are recorded against them — and a spec-built Machine is
// pinned bit-equal to the equivalent hand assembly in tests/machine_test.
//
// Concurrency contract: a Machine is immutable after build() (graph,
// router and fabric const), so one instance can serve concurrent trials
// through run_seeded() — faulted or not. Faults are per-run input: each
// run samples its FaultPlan from its own seed and applies it to its own
// injector and liveness mask, never to the shared graph.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trials.hpp"
#include "emulation/emulator.hpp"
#include "emulation/fabric.hpp"
#include "faults/plan.hpp"
#include "machine/registry.hpp"
#include "machine/spec.hpp"
#include "obs/recorder.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "sim/engine.hpp"

namespace levnet::machine {

class Machine {
 public:
  /// Builds the machine a spec describes; CHECK-fails with the validation
  /// message on an invalid spec (use validate() first for user input).
  [[nodiscard]] static Machine build(const MachineSpec& spec);
  /// Convenience: parse + build a spec literal.
  [[nodiscard]] static Machine build(std::string_view spec_text);

  /// Shape-only: true exactly when build() would succeed. Checks the
  /// family's shape rule (parameter ranges and the node cap), the router
  /// key, and that only a router which takes one carries a parameter — by
  /// arithmetic and catalogue lookups, constructing no topology, router or
  /// fabric. On failure `error` names the bad token and lists the valid
  /// alternatives.
  [[nodiscard]] static bool validate(const MachineSpec& spec,
                                     std::string& error);

  Machine(Machine&&) noexcept;
  Machine& operator=(Machine&&) noexcept;
  ~Machine();

  [[nodiscard]] const MachineSpec& spec() const noexcept;
  /// The topology's display name ("star-5", ...).
  [[nodiscard]] const std::string& name() const noexcept;
  [[nodiscard]] const topology::Graph& graph() const noexcept;
  [[nodiscard]] const routing::Router& router() const noexcept;
  /// Processor == memory-module count.
  [[nodiscard]] std::uint32_t processors() const noexcept;
  /// The diameter scale L of the theorems.
  [[nodiscard]] std::uint32_t route_scale() const noexcept;

  /// The fault plan a run with `seed` applies (empty for a fault-free
  /// spec). False + `error` when the spec's fractions cannot be met for
  /// this seed — a per-run outcome validate() cannot foresee.
  [[nodiscard]] bool fault_plan(std::uint64_t seed, faults::FaultPlan& plan,
                                std::string& error) const;

  /// EngineConfig for driving the router directly (routing experiments):
  /// the spec's discipline and buffer bound, no step budget.
  [[nodiscard]] sim::EngineConfig engine_config() const noexcept;

  /// Runs `program` to completion against `memory` with emulator seed
  /// `seed`; a faulted spec samples its plan from the same seed, so one
  /// (spec, seed) pair is one exact degraded history. A non-null
  /// `recorder` observes the run without perturbing it (null is
  /// byte-inert). CHECK-fails on a fault quota `seed` cannot meet; the
  /// overload below returns that as false + `error`.
  ///
  /// Thread-safe: build() writes every member once; each call owns its
  /// plan, injector (liveness mask) and NetworkEmulator. Concurrent calls
  /// must each bring their own recorder. tests/concurrency_test.cpp pins
  /// 8-thread runs, faulted and fault-free, bit-identical to sequential.
  emulation::EmulationReport run_seeded(std::uint64_t seed,
                                        pram::PramProgram& program,
                                        pram::SharedMemory& memory,
                                        obs::Recorder* recorder
                                        = nullptr) const;
  /// As above, but an unsatisfiable fault quota returns false + `error`
  /// (the sampler's message) and leaves `report` untouched.
  [[nodiscard]] bool run_seeded(std::uint64_t seed, pram::PramProgram& program,
                                pram::SharedMemory& memory,
                                emulation::EmulationReport& report,
                                std::string& error,
                                obs::Recorder* recorder = nullptr) const;

  /// run_seeded() with the spec's seed.
  emulation::EmulationReport run(pram::PramProgram& program,
                                 pram::SharedMemory& memory,
                                 obs::Recorder* recorder = nullptr) const;
  /// run() into a scratch memory (reports only).
  emulation::EmulationReport run(pram::PramProgram& program) const;

 private:
  struct Impl;
  explicit Machine(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Builds one program instance per trial: `processors` is the machine's
/// endpoint count, `seed` the trial's derived seed.
using ProgramFactory = std::function<std::unique_ptr<pram::PramProgram>(
    std::uint32_t processors, std::uint64_t seed)>;

/// A registry-backed factory for program family `key` (CHECK-fails on an
/// unknown key). `pram_steps` bounds the synthetic-traffic families.
[[nodiscard]] ProgramFactory program_factory(std::string_view key,
                                             std::uint32_t pram_steps = 4);

/// Batched trials: runs `seeds` independent emulations of `machine` across
/// `threads` pool workers (0 = hardware concurrency), with the same
/// SplitMix64 seed fan-out and seed-order aggregation as
/// analysis::TrialRunner — results are bit-identical for 1 and N threads.
/// Every trial is machine.run_seeded(trial seed). When `reports` is
/// non-null the per-seed EmulationReports are appended in seed order.
///
/// Observability: when the spec carries obs:/trace tokens, or `recorders`
/// is non-null, one obs::Recorder per seed (configured from the spec) is
/// attached — stats then carry latency quantiles. A non-null `recorders`
/// receives the per-seed recorders in seed order for metrics/trace export.
/// Recorders never perturb the emulation; reports stay bit-identical.
///
/// False + `error` naming the first trial (in seed order) whose fault
/// quota cannot be met; `stats`, `reports` and `recorders` are then left
/// untouched.
[[nodiscard]] bool run_trials(
    const Machine& machine, const ProgramFactory& factory,
    std::uint32_t seeds, unsigned threads, analysis::TrialStats& stats,
    std::string& error,
    std::vector<emulation::EmulationReport>* reports = nullptr,
    std::vector<std::unique_ptr<obs::Recorder>>* recorders = nullptr);

}  // namespace levnet::machine
