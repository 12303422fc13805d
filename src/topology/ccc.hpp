#pragma once
// Cube-connected cycles CCC(k): each hypercube corner w of a k-cube is
// replaced by a k-node cycle; node (i, w) links around its cycle and, at
// cycle position i, across the "rung" to (i, w xor 2^i).
//
// CCC is the classic CONSTANT-degree member of the leveled-network class
// (its standard drawing is a leveled network of O(k) levels with degree 3),
// complementing the non-constant-degree star and shuffle the paper
// specializes to: N = k * 2^k nodes, degree 3, diameter Theta(k) =
// Theta(log N).

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class CubeConnectedCycles {
 public:
  /// k >= 3 (k < 3 degenerates: position and rung edges coincide).
  explicit CubeConnectedCycles(std::uint32_t k);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] NodeId node_count() const noexcept {
    return k_ * (NodeId{1} << k_);
  }
  [[nodiscard]] std::uint32_t degree() const noexcept { return 3; }
  /// Upper bound on the route length of the dimension-sweep router below
  /// (cycle walk with rung detours, plus the final cycle walk).
  [[nodiscard]] std::uint32_t route_bound() const noexcept {
    return 2 * k_ + k_ / 2 + 2;
  }

  [[nodiscard]] NodeId node_id(std::uint32_t position,
                               std::uint32_t corner) const noexcept {
    return corner * k_ + position;
  }
  [[nodiscard]] std::uint32_t position_of(NodeId v) const noexcept {
    return v % k_;
  }
  [[nodiscard]] std::uint32_t corner_of(NodeId v) const noexcept {
    return v / k_;
  }

  /// Next node on the deterministic oblivious dimension-sweep route toward
  /// `dst`: walk the cycle forward, taking the rung whenever the current
  /// position's cube bit differs from the destination corner; once corners
  /// agree, walk the cycle the short way to the destination position.
  /// Returns kInvalidNode when already at dst.
  [[nodiscard]] NodeId sweep_step(NodeId at, NodeId dst) const noexcept;

 private:
  std::uint32_t k_;
  Graph graph_;
};

}  // namespace levnet::topology
