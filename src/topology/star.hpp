#pragma once
// The n-star graph (Definitions 2.4-2.5, Figure 2).
//
// Nodes are the n! permutations of symbols {1..n}; node u is adjacent to
// SWAP_j(u) for j in {2..n}, where SWAP_j exchanges the first symbol with
// the j-th. Degree n-1, diameter floor(3(n-1)/2) (Akers-Harel-Krishnamurthy
// [2]) — sub-logarithmic in the n! network size, which is exactly why the
// paper targets it.
//
// Node ids are Lehmer ranks of the permutations, so id 0 is the identity.
// The class also exposes the deterministic greedy routing step ("send the
// first symbol home; if position 1 is correct, fetch the smallest unplaced
// symbol"), which realizes the minimal star-transposition path and is the
// deterministic oblivious router of Section 2.3.3, as well as the exact
// star distance used by priority queue disciplines.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "topology/graph.hpp"

namespace levnet::topology {

/// Maximum supported star dimension: 12! just exceeds NodeId, and >9 is
/// already beyond what a laptop-scale simulation wants.
inline constexpr std::uint32_t kMaxStarSymbols = 12;

/// A permutation of {1..n} stored in fixed storage; index 0 holds the first
/// symbol (the one SWAP exchanges).
using StarPerm = std::array<std::uint8_t, kMaxStarSymbols>;

class StarGraph {
 public:
  /// n in [2, 12]; builds the full n! node graph. n <= 9 is the practical
  /// simulation range (9! = 362,880 nodes).
  explicit StarGraph(std::uint32_t n);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t symbols() const noexcept { return n_; }
  [[nodiscard]] NodeId node_count() const noexcept { return count_; }
  [[nodiscard]] std::uint32_t degree() const noexcept { return n_ - 1; }
  /// floor(3(n-1)/2), from [2].
  [[nodiscard]] std::uint32_t diameter() const noexcept {
    return 3 * (n_ - 1) / 2;
  }

  /// Lehmer rank of a permutation (id of the node).
  [[nodiscard]] NodeId rank(const StarPerm& p) const noexcept;
  /// Permutation with the given rank. O(1): served from the table built at
  /// construction (the routing hot path hits this once per link crossing).
  [[nodiscard]] const StarPerm& unrank(NodeId id) const noexcept {
    return perms_[id];
  }

  /// Node reached from `u` by SWAP_j, j in [1, n-1] (swap positions 0 and j).
  /// O(1) table lookup; the table is a byproduct of edge construction.
  [[nodiscard]] NodeId swap_neighbor(NodeId u, std::uint32_t j) const noexcept {
    LEVNET_DCHECK(j >= 1 && j < n_);
    return swap_neighbors_[static_cast<std::size_t>(u) * (n_ - 1) + (j - 1)];
  }

  /// Exact star-graph distance between u and v (cycle-structure formula,
  /// validated against BFS in tests).
  [[nodiscard]] std::uint32_t distance(NodeId u, NodeId v) const noexcept;

  /// Next node on a minimal path from u toward v; u must differ from v.
  /// Deterministic (smallest-index tie-break), oblivious: the hop depends
  /// only on (u, v).
  [[nodiscard]] NodeId greedy_step(NodeId u, NodeId v) const noexcept;

  /// Formats the permutation of node `u` as e.g. "BACD" style digits
  /// ("2134") for figure reproduction.
  [[nodiscard]] std::string label(NodeId u) const;

 private:
  /// rho = v^{-1} o u as a position sequence: rho[i] = position of symbol
  /// u[i] within v. Sorting rho to the identity by star swaps routes u to v.
  [[nodiscard]] StarPerm relative(NodeId u, NodeId v) const noexcept;

  /// The O(n^2) Lehmer decode; construction-time only (unrank() serves the
  /// memoized table).
  [[nodiscard]] StarPerm lehmer_unrank(NodeId id) const noexcept;

  std::uint32_t n_;
  NodeId count_;
  std::array<NodeId, kMaxStarSymbols + 1> factorial_{};
  Graph graph_;
  /// Memoized decode/step tables, filled at construction. They cost the
  /// same O(n! * n) as the CSR edge lists the constructor already builds,
  /// and turn greedy_step/distance from O(n^2) rank/unrank arithmetic per
  /// link crossing into O(n) table walks — the emulation benches spend the
  /// majority of their time in these two calls.
  std::vector<StarPerm> perms_;          // perms_[u] == lehmer-unrank(u)
  std::vector<NodeId> swap_neighbors_;   // [u * (n-1) + (j-1)] == SWAP_j(u)
};

}  // namespace levnet::topology
