#include "faults/injector.hpp"

#include "support/check.hpp"

namespace levnet::faults {

FaultInjector::FaultInjector(const topology::Graph& graph,
                             std::uint32_t modules, const FaultPlan& plan)
    : live_(graph),
      plan_(&plan),
      module_live_(modules, 1),
      // Processors and modules are co-located one per endpoint fabric-wide,
      // so the module count bounds the processor id space too.
      proc_live_(modules, 1) {
  for (const FaultEvent& event : plan.events()) {
    switch (event.kind) {
      case FaultKind::kLink:
        LEVNET_CHECK_MSG(event.id < graph.edge_count(),
                         "fault plan names a link outside the graph");
        break;
      case FaultKind::kNode:
        LEVNET_CHECK_MSG(event.id < graph.node_count(),
                         "fault plan names a node outside the graph");
        break;
      case FaultKind::kModule:
        LEVNET_CHECK_MSG(event.id < modules,
                         "fault plan names a module outside the fabric");
        break;
      case FaultKind::kProc:
        LEVNET_CHECK_MSG(event.id < modules,
                         "fault plan names a processor outside the fabric");
        break;
    }
  }
}

void FaultInjector::reset() {
  live_.revive_all();
  module_live_.assign(module_live_.size(), 1);
  proc_live_.assign(proc_live_.size(), 1);
  remap_ = hashing::ExclusionRemap{};
  proc_remap_ = hashing::ExclusionRemap{};
  cursor_ = 0;
  dead_links_ = 0;
  dead_nodes_ = 0;
}

FaultInjector::Applied FaultInjector::advance_to(std::uint32_t epoch) {
  Applied applied;
  const auto& events = plan_->events();
  while (cursor_ < events.size() && events[cursor_].epoch <= epoch) {
    const FaultEvent& event = events[cursor_++];
    switch (event.kind) {
      case FaultKind::kLink:
        // Only effective kills count: a link can already be dead when an
        // earlier node event took its endpoint (sampling overlap), and
        // the dead_* snapshot must describe distinct disabled components.
        if (live_.edge_live(event.id)) {
          live_.kill_link(event.id);
          ++dead_links_;
          ++applied.links;
        }
        break;
      case FaultKind::kNode:
        if (live_.node_live(event.id)) {
          live_.kill_node(event.id);
          ++dead_nodes_;
          ++applied.nodes;
        }
        break;
      case FaultKind::kModule:
        if (module_live_[event.id] != 0) {
          module_live_[event.id] = 0;
          ++applied.modules;
        }
        break;
      case FaultKind::kProc:
        // The compound fault: the processor's endpoint node (and every
        // incident link) dies, its co-located memory module dies, and its
        // program slot will be adopted by a survivor via proc_remap_.
        // The node kill is not counted in dead_nodes_ — the snapshot
        // reports distinct disabled components by their primary kind.
        if (proc_live_[event.id] != 0) {
          proc_live_[event.id] = 0;
          ++applied.procs;
          if (live_.node_live(event.id)) live_.kill_node(event.id);
          if (module_live_[event.id] != 0) {
            module_live_[event.id] = 0;
            ++applied.modules;
          }
        }
        break;
    }
  }
  if (applied.modules != 0) {
    // The remap salt is derived from the plan seed, not drawn from a live
    // RNG stream: rebuilding at any epoch yields the same survivor
    // assignment, so a replay (reset + advance) is bit-identical.
    remap_ = hashing::ExclusionRemap::build(
        module_live_, plan_->seed() ^ 0x5EED'0F'DEADULL);
  }
  if (applied.procs != 0) {
    // Same replayability argument, distinct salt: slot adoption and module
    // remap are independent survivor assignments over the same id space.
    proc_remap_ = hashing::ExclusionRemap::build(
        proc_live_, plan_->seed() ^ 0xAD09'7000'5EEDULL);
  }
  return applied;
}

}  // namespace levnet::faults
