#pragma once
// The d-way shuffle network (Section 2.3.5, Figure 4).
//
// N = d^n nodes labelled with n base-d digits d_n ... d_1. Node
// d_n d_{n-1} ... d_1 has a forward (shift) link to l d_n ... d_2 for every
// digit l — drop the least-significant digit, shift, inject l at the top.
// There is a unique forward path of exactly n links between any pair of
// nodes: inject the destination's digits least-significant first. Choosing
// the injected digit uniformly at random at each of n steps lands on a
// uniformly random node — phase 1 of Algorithm 2.3. With d = n this is the
// n-way shuffle, whose diameter n is sub-logarithmic in N = n^n.
//
// The physical links are bidirectional: backward (un-shift) edges exist so
// CRCW combining replies can retrace request paths; forward routing only
// ever uses shift edges.

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class DWayShuffle {
 public:
  /// d >= 2 digits, n >= 1 positions; d^n nodes.
  DWayShuffle(std::uint32_t d, std::uint32_t n);

  /// Convenience constructor for the paper's n-way shuffle (d = n).
  [[nodiscard]] static DWayShuffle n_way(std::uint32_t n) {
    return DWayShuffle(n, n);
  }

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t radix() const noexcept { return d_; }
  [[nodiscard]] std::uint32_t digits() const noexcept { return n_; }
  [[nodiscard]] NodeId node_count() const noexcept { return count_; }
  /// Unique-path length = diameter = n.
  [[nodiscard]] std::uint32_t route_length() const noexcept { return n_; }

  /// Node reached by one forward shift injecting `digit` at the top.
  [[nodiscard]] NodeId shift_inject(NodeId u, std::uint32_t digit) const noexcept;

  /// k-th least-significant digit of the destination label (k in [0, n)),
  /// i.e. the digit to inject on hop k of the unique path toward `v`.
  [[nodiscard]] std::uint32_t route_digit(NodeId v, std::uint32_t k) const noexcept;

  /// Next node on the unique forward path toward v given that `hops_done`
  /// forward hops of this pass have already been taken.
  [[nodiscard]] NodeId forward_toward(NodeId u, NodeId v,
                                      std::uint32_t hops_done) const noexcept;

  /// Label digits, most significant first, for figure reproduction.
  [[nodiscard]] std::string label(NodeId u) const;

 private:
  std::uint32_t d_;
  std::uint32_t n_;
  NodeId count_;
  NodeId top_pow_;  // d^(n-1)
  Graph graph_;
};

}  // namespace levnet::topology
