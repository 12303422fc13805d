#pragma once
// Wrapped radix-d butterfly — the canonical leveled network (Definition in
// Section 2.3.1, Figure 1).
//
// The network has l columns of R = d^l rows each (l*R nodes total, matching
// the paper's "leveled network of lN nodes"). Node (c, r) links forward to
// the d nodes ((c+1) mod l, r with base-d digit c replaced by any value).
// Consequences used throughout:
//   * from any column-0 node there is a unique forward path of exactly l
//     links to any other column-0 node (fix digit 0, then 1, ...), which is
//     the paper's unique-path property;
//   * taking a uniformly random link at each of l forward steps lands on a
//     uniformly random row — phase 1 of Algorithm 2.1.
// With d = 2 this is the classic wrapped butterfly used by Ranade [13];
// processors and memory modules both live on column 0 (the paper's "first
// column are processors, last column are memory modules" with the wrap
// identifying the two).
//
// Links are physically bidirectional: each forward edge has a matching
// backward edge so that CRCW combining replies can retrace request paths.

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class WrappedButterfly {
 public:
  /// radix >= 2, levels >= 1; row count is radix^levels (must fit NodeId).
  WrappedButterfly(std::uint32_t radix, std::uint32_t levels);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t radix() const noexcept { return radix_; }
  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }
  /// Rows per column (= number of processors / memory modules).
  [[nodiscard]] NodeId row_count() const noexcept { return rows_; }
  [[nodiscard]] NodeId node_count() const noexcept {
    return rows_ * levels_;
  }

  /// Forward route length between column-0 nodes; also the network diameter
  /// scale used in the theorems.
  [[nodiscard]] std::uint32_t route_length() const noexcept { return levels_; }

  [[nodiscard]] NodeId node_id(std::uint32_t column, NodeId row) const noexcept {
    return column * rows_ + row;
  }
  [[nodiscard]] std::uint32_t column_of(NodeId v) const noexcept {
    return v / rows_;
  }
  [[nodiscard]] NodeId row_of(NodeId v) const noexcept { return v % rows_; }

  /// Row reached from `row` when the digit at position `level` is set to
  /// `digit` (positions are base-radix, position 0 least significant).
  [[nodiscard]] NodeId with_digit(NodeId row, std::uint32_t level,
                                  std::uint32_t digit) const noexcept;

  /// Base-radix digit of `row` at `level`.
  [[nodiscard]] std::uint32_t digit(NodeId row, std::uint32_t level) const noexcept;

  /// Next node on the unique forward path from (column c, row r) toward the
  /// column-0 row `target_row`: fixes digit c to target's digit c.
  [[nodiscard]] NodeId forward_toward(NodeId v, NodeId target_row) const noexcept;

 private:
  std::uint32_t radix_;
  std::uint32_t levels_;
  NodeId rows_;
  std::vector<NodeId> digit_pow_;  // radix^i for i in [0, levels]
  Graph graph_;
};

}  // namespace levnet::topology
