#pragma once
// Directed graph in CSR form — the substrate every topology compiles to.
//
// All networks in the paper (leveled networks, star graph, d-way shuffle,
// hypercube, mesh) are represented as directed graphs where a bidirectional
// physical link contributes two directed edges. The simulator's capacity
// rule — at most one packet per directed edge per step — then matches the
// paper's "at most one packet passes through any link of the network at any
// time" (Section 2.2).
//
// A Graph is immutable once built, so one instance can back any number of
// concurrent runs. Faults never touch it: a run's dead links and nodes
// live in its own topology::Liveness (liveness.hpp).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace levnet::topology {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};
inline constexpr NodeId kInvalidNode = ~NodeId{0};

class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from a directed edge list. Edges are sorted by
  /// (tail, head); parallel edges are rejected. Also precomputes, for every
  /// directed edge, the id of its reverse edge (or kInvalidEdge), which the
  /// CRCW combining reply phase uses to retrace request paths.
  [[nodiscard]] static Graph from_edges(
      NodeId node_count, std::vector<std::pair<NodeId, NodeId>> edges);

  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return heads_.size(); }

  /// Out-neighbors of u in ascending order.
  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId u) const noexcept {
    return {heads_.data() + offsets_[u], heads_.data() + offsets_[u + 1]};
  }

  [[nodiscard]] std::uint32_t out_degree(NodeId u) const noexcept {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Maximum out-degree over all nodes.
  [[nodiscard]] std::uint32_t max_out_degree() const noexcept {
    return max_out_degree_;
  }

  /// Edge id of the k-th out-edge of u (CSR position).
  [[nodiscard]] EdgeId out_edge(NodeId u, std::uint32_t k) const noexcept {
    return offsets_[u] + k;
  }

  /// First out-edge id of u; out-edges of u are [out_begin(u), out_begin(u+1)).
  [[nodiscard]] EdgeId out_begin(NodeId u) const noexcept { return offsets_[u]; }

  /// Directed edge u->v, or kInvalidEdge. Linear scan: degrees are small
  /// for every topology in this library.
  [[nodiscard]] EdgeId edge_between(NodeId u, NodeId v) const noexcept;

  [[nodiscard]] NodeId edge_head(EdgeId e) const noexcept { return heads_[e]; }
  [[nodiscard]] NodeId edge_tail(EdgeId e) const noexcept { return tails_[e]; }

  /// Id of the reverse directed edge (head->tail), or kInvalidEdge if the
  /// graph has no such edge.
  [[nodiscard]] EdgeId reverse_edge(EdgeId e) const noexcept {
    return reverse_[e];
  }

 private:
  NodeId node_count_ = 0;
  std::uint32_t max_out_degree_ = 0;
  std::vector<EdgeId> offsets_;   // size node_count_+1
  std::vector<NodeId> heads_;     // size edge_count
  std::vector<NodeId> tails_;     // size edge_count
  std::vector<EdgeId> reverse_;   // size edge_count
};

}  // namespace levnet::topology
