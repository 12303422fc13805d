#pragma once
// Binary n-cube, the comparison network of Section 1 and Section 2.3.4.
//
// 2^dim nodes, node u adjacent to u XOR (1 << i). Degree = diameter = dim,
// both logarithmic in the size — the star graph beats it on both counts,
// which experiment E12 tabulates.

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class Hypercube {
 public:
  explicit Hypercube(std::uint32_t dim);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t dim() const noexcept { return dim_; }
  [[nodiscard]] NodeId node_count() const noexcept { return NodeId{1} << dim_; }
  [[nodiscard]] std::uint32_t degree() const noexcept { return dim_; }
  [[nodiscard]] std::uint32_t diameter() const noexcept { return dim_; }

  /// Next node on the e-cube (dimension-order) path from u toward v:
  /// corrects the lowest differing bit. u must differ from v.
  [[nodiscard]] NodeId ecube_step(NodeId u, NodeId v) const noexcept;

  /// Hamming distance.
  [[nodiscard]] std::uint32_t distance(NodeId u, NodeId v) const noexcept;

 private:
  std::uint32_t dim_;
  Graph graph_;
};

}  // namespace levnet::topology
