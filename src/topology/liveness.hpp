#pragma once
// Liveness: one run's fault overlay — which links and nodes of an immutable
// topology::Graph are dead. Faults are a run's input, not the machine's
// (Chlebus-Gasieniec-Pelc's static-fault model): faults::FaultInjector
// owns one mask per run, and the engine, the emulator and the fault-aware
// routers read it through a pointer passed in with each call — null for a
// pristine network, so the fault-free path is one pointer test.

#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "topology/graph.hpp"

namespace levnet::topology {

class Liveness {
 public:
  /// Everything live. The graph must outlive the mask.
  explicit Liveness(const Graph& graph)
      : graph_(&graph),
        edge_live_(graph.edge_count(), 1),
        node_live_(graph.node_count(), 1) {}

  /// True while any link or node is dead.
  [[nodiscard]] bool has_faults() const noexcept {
    return dead_edges_ != 0 || dead_nodes_ != 0;
  }
  /// Directed edge e is usable: neither it, its tail, nor its head has been
  /// killed (kill_node marks every incident edge dead, so one lookup
  /// answers all three).
  [[nodiscard]] bool edge_live(EdgeId e) const noexcept {
    return edge_live_[e] != 0;
  }
  [[nodiscard]] bool node_live(NodeId v) const noexcept {
    return node_live_[v] != 0;
  }
  [[nodiscard]] std::uint32_t dead_edge_count() const noexcept {
    return dead_edges_;
  }
  [[nodiscard]] std::uint32_t dead_node_count() const noexcept {
    return dead_nodes_;
  }

  /// Kills (revives) the physical link carrying edge e: e and its reverse
  /// edge when the graph has one — a bidirectional cable cut.
  void kill_link(EdgeId e) { set_link(e, false); }
  void revive_link(EdgeId e) { set_link(e, true); }
  /// Kills a node and every edge incident to it (transit through the node
  /// becomes impossible in either direction). A non-null `killed` receives
  /// the edges this call killed, so revive_node can undo exactly it (the
  /// fault sampler's rejected candidates).
  void kill_node(NodeId v, std::vector<EdgeId>* killed = nullptr);
  void revive_node(NodeId v, const std::vector<EdgeId>& killed);
  /// Everything live again.
  void revive_all();

  /// Number of live out-edges of u (degraded out-degree).
  [[nodiscard]] std::uint32_t live_out_degree(NodeId u) const noexcept;
  /// Uniformly random live out-neighbor of u, or kInvalidNode when the
  /// whole fan is dead. The shared primitive of every degraded-mode
  /// detour/scramble step (emulator on_fault, butterfly recovery walk).
  [[nodiscard]] NodeId random_live_neighbor(NodeId u,
                                            support::Rng& rng) const;

 private:
  void set_edge(EdgeId e, bool live);
  void set_link(EdgeId e, bool live);

  const Graph* graph_;
  std::uint32_t dead_edges_ = 0;
  std::uint32_t dead_nodes_ = 0;
  std::vector<std::uint8_t> edge_live_;  // size edge_count
  std::vector<std::uint8_t> node_live_;  // size node_count
};

/// `live` when it has anything dead, else null: the gate every
/// liveness-aware branch tests.
[[nodiscard]] inline const Liveness* degraded(const Liveness* live) noexcept {
  return live != nullptr && live->has_faults() ? live : nullptr;
}

}  // namespace levnet::topology
