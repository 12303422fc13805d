#pragma once
// FaultInjector: applies a FaultPlan to one run, epoch by epoch.
//
// The injector owns all of a run's degradation state: the liveness mask
// of dead links and nodes (topology::Liveness, laid over the shared,
// immutable graph), memory-module and processor liveness, and the survivor
// remaps (hashing::ExclusionRemap) that keep remap(h(addr)) off dead
// modules and adopt_proc(p) off dead processors. A processor event is the
// compound fault: its endpoint node dies (all incident links), its
// co-located memory module dies, and its program slot is adopted by a
// seed-derived survivor. One injector serves one run; concurrent runs on
// the same machine each build their own (machine::Machine::run_seeded).
//
// Epochs are abstract: the emulator calls advance_to(pram_step) before
// each PRAM step, a routing harness may advance per network step. reset()
// rewinds everything (mask cleared, modules revived, cursor at 0) so the
// same injector can replay the plan for a fresh run.

#include <cstdint>

#include "faults/plan.hpp"
#include "hashing/exclusion.hpp"
#include "topology/graph.hpp"
#include "topology/liveness.hpp"

namespace levnet::faults {

class FaultInjector {
 public:
  /// Binds plan to a graph and a module space. The graph and the plan
  /// must outlive the injector. The survivor-remap salt is derived from
  /// the plan seed, so the whole degradation is one-seed deterministic.
  FaultInjector(const topology::Graph& graph, std::uint32_t modules,
                const FaultPlan& plan);

  /// What advance_to just changed; module changes require a remap/rehash,
  /// proc changes additionally require a slot-adoption remap.
  struct Applied {
    std::uint32_t links = 0;
    std::uint32_t nodes = 0;
    std::uint32_t modules = 0;
    std::uint32_t procs = 0;
    [[nodiscard]] bool any() const noexcept {
      return links + nodes + modules + procs != 0;
    }
  };

  /// Revives everything and rewinds the plan cursor.
  void reset();

  /// Applies every not-yet-applied event with event.epoch <= epoch, in
  /// plan order. Rebuilds the survivor remap when a module died.
  Applied advance_to(std::uint32_t epoch);

  [[nodiscard]] bool module_live(std::uint32_t m) const noexcept {
    return module_live_[m] != 0;
  }
  /// Survivor module for hash bucket m (identity while m is live).
  [[nodiscard]] std::uint32_t remap_module(std::uint32_t m) const noexcept {
    return remap_(m);
  }

  [[nodiscard]] bool proc_live(std::uint32_t p) const noexcept {
    return proc_live_[p] != 0;
  }
  /// Survivor processor that executes processor p's program slot
  /// (identity while p is live). Seed-salted like the module remap, so the
  /// adoption assignment is replayable from the plan alone.
  [[nodiscard]] std::uint32_t adopt_proc(std::uint32_t p) const noexcept {
    return proc_remap_(p);
  }

  [[nodiscard]] std::uint32_t dead_links() const noexcept {
    return dead_links_;
  }
  [[nodiscard]] std::uint32_t dead_nodes() const noexcept {
    return dead_nodes_;
  }
  [[nodiscard]] std::uint32_t dead_modules() const noexcept {
    return remap_.excluded();
  }
  [[nodiscard]] std::uint32_t dead_procs() const noexcept {
    return proc_remap_.excluded();
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }
  /// The run's dead links and nodes so far.
  [[nodiscard]] const topology::Liveness& liveness() const noexcept {
    return live_;
  }

 private:
  topology::Liveness live_;
  const FaultPlan* plan_;
  std::vector<std::uint8_t> module_live_;
  std::vector<std::uint8_t> proc_live_;
  hashing::ExclusionRemap remap_;
  hashing::ExclusionRemap proc_remap_;
  std::size_t cursor_ = 0;  // first unapplied plan event
  std::uint32_t dead_links_ = 0;
  std::uint32_t dead_nodes_ = 0;
};

}  // namespace levnet::faults
