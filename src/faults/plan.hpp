#pragma once
// FaultPlan: a deterministic, seed-derived schedule of component failures.
//
// The paper's emulation theorems assume a pristine leveled network; this
// subsystem stresses exactly the machinery those theorems lean on (hashed
// memory with a rehash escape hatch, congestion-tolerant randomized
// routing) by killing links, nodes and memory modules. Failure model is
// fail-stop with migrated state (Chlebus-Gasieniec-Pelc's static-fault
// PRAM setting, Hanlon's memory-remap setting): a dead component stops
// carrying traffic / hosting cells, but cell *contents* are assumed
// migrated by the remap layer — the simulation measures the degraded
// routing and rehashing cost, not data loss.
//
// A plan is a list of (kind, id, epoch) events sampled once from a spec
// (fault fractions per component class) and a seed. Epochs are abstract
// fault times: the owner decides what an epoch is (the PRAM emulator
// advances one epoch per PRAM step). Epoch 0 events are static faults,
// active before the first step. Sampling is pure — it never touches the
// graph it reads — and deterministic given (graph, spec, seed), so a
// fault scenario is exactly reproducible across runs and thread counts.

#include <cstdint>
#include <string>
#include <vector>

#include "topology/graph.hpp"

namespace levnet::faults {

using topology::EdgeId;
using topology::NodeId;

enum class FaultKind : std::uint8_t {
  kLink = 0,    // a physical link: the directed edge and its reverse
  kNode = 1,    // a switch/node: all incident edges die with it
  kModule = 2,  // a memory module: addresses remap to survivors
  kProc = 3,    // a processor endpoint: its node, co-located module, and
                // program slots all fail; survivors adopt the slots
};

struct FaultEvent {
  FaultKind kind = FaultKind::kLink;
  /// EdgeId for kLink, NodeId for kNode, module index for kModule.
  std::uint32_t id = 0;
  /// Fault time; 0 = static (active before anything runs).
  std::uint32_t epoch = 0;
};

struct FaultSpec {
  /// Fraction of physical links to kill, in [0, 1).
  double link_fraction = 0.0;
  /// Fraction of non-endpoint nodes to kill, in [0, 1). Endpoint nodes
  /// (ids below `endpoints` at sample time) are never hit by *node*
  /// faults; killing a processor endpoint is the separate, deliberate
  /// `proc_fraction` axis below.
  double node_fraction = 0.0;
  /// Fraction of memory modules to kill, in [0, 1). At least one module
  /// always survives.
  double module_fraction = 0.0;
  /// Fraction of processor endpoints to kill, in [0, 1) — the
  /// Chlebus-Gasieniec-Pelc static-processor-fault axis. A dead processor
  /// takes its endpoint node (all incident links) and its co-located
  /// memory module down with it; the emulation layer reassigns its
  /// program slots to a seed-derived survivor. Sampling guarantees at
  /// least one live processor and (under `preserve_connectivity`) that
  /// the survivor endpoints stay mutually connected.
  double proc_fraction = 0.0;
  /// Fault epochs are drawn uniformly from [0, onset_epochs); 1 (or 0)
  /// makes every fault static.
  std::uint32_t onset_epochs = 1;
  /// Skip any link/node kill that would disconnect the endpoint set in the
  /// fully degraded graph. Keeps emulation completable: every request can
  /// still reach every module w.h.p. (detours permitting).
  bool preserve_connectivity = true;
};

class FaultPlan {
 public:
  /// Empty plan: no faults, guaranteed inert everywhere it is consulted.
  FaultPlan() = default;

  /// Samples a plan against `graph`. Nodes [0, endpoints) are protected
  /// from node faults (processor kills are the explicit `proc_fraction`
  /// axis) and the live ones anchor the connectivity requirement;
  /// `modules` is the memory-module count (fabric endpoints).
  /// Deterministic in all arguments. Returns false with a named `error`
  /// when `proc_fraction > 0` and the requested fractions cannot be
  /// satisfied under the connectivity/survivor guards (jointly
  /// unsatisfiable). Whether they can depends on the seed, so this is a
  /// per-run outcome, not a spec-shape error.
  [[nodiscard]] static bool sample(const topology::Graph& graph,
                                   std::uint32_t endpoints,
                                   std::uint32_t modules,
                                   const FaultSpec& spec, std::uint64_t seed,
                                   FaultPlan& plan, std::string& error);
  /// As above, CHECK-failing with the named error instead.
  [[nodiscard]] static FaultPlan sample(const topology::Graph& graph,
                                        std::uint32_t endpoints,
                                        std::uint32_t modules,
                                        const FaultSpec& spec,
                                        std::uint64_t seed);

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Link/node kills the sampler rejected to preserve connectivity.
  [[nodiscard]] std::uint32_t skipped_for_connectivity() const noexcept {
    return skipped_;
  }

 private:
  std::vector<FaultEvent> events_;  // sorted by (epoch, kind, id)
  std::uint64_t seed_ = 0;
  std::uint32_t skipped_ = 0;
};

}  // namespace levnet::faults
