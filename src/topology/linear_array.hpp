#pragma once
// Linear processor array: the 1-D substrate of the mesh analysis
// (Section 3.4.1 reduces each mesh stage to routing on a linear array).

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class LinearArray {
 public:
  explicit LinearArray(std::uint32_t n);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] NodeId node_count() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t diameter() const noexcept { return n_ - 1; }

  [[nodiscard]] std::uint32_t distance(NodeId u, NodeId v) const noexcept {
    return u > v ? u - v : v - u;
  }

 private:
  std::uint32_t n_;
  Graph graph_;
};

}  // namespace levnet::topology
