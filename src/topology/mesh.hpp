#pragma once
// The n x n mesh-connected computer (Section 3.1, Figure 5).
//
// Each grid point is a processor, each edge a bidirectional communication
// link (MIMD model: in one step a processor can communicate with all of its
// <= 4 neighbours, which the simulator realizes as one packet per directed
// edge per step). Diameter 2n - 2; the paper's point is that any practical
// algorithm must run within a small constant of that.
//
// The class also exposes the horizontal-slice partitioning of Section 3.4
// (Figure 5): stage 1 of the routing algorithm randomizes a packet's row
// within a slice of height slice_rows.

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class Mesh {
 public:
  /// rows x cols grid; the paper's square mesh is Mesh(n, n).
  Mesh(std::uint32_t rows, std::uint32_t cols);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] NodeId node_count() const noexcept { return rows_ * cols_; }
  [[nodiscard]] std::uint32_t diameter() const noexcept {
    return rows_ + cols_ - 2;
  }

  [[nodiscard]] NodeId node_id(std::uint32_t r, std::uint32_t c) const noexcept {
    return r * cols_ + c;
  }
  [[nodiscard]] std::uint32_t row_of(NodeId v) const noexcept {
    return v / cols_;
  }
  [[nodiscard]] std::uint32_t col_of(NodeId v) const noexcept {
    return v % cols_;
  }

  /// Manhattan (routing) distance.
  [[nodiscard]] std::uint32_t distance(NodeId u, NodeId v) const noexcept;

  /// Index of the horizontal slice containing row r when slices have
  /// `slice_rows` rows each (the last slice may be short).
  [[nodiscard]] std::uint32_t slice_of(std::uint32_t r,
                                       std::uint32_t slice_rows) const noexcept {
    return r / slice_rows;
  }

  /// Row range [first, last] of the slice containing r.
  struct RowRange {
    std::uint32_t first;
    std::uint32_t last;
  };
  [[nodiscard]] RowRange slice_rows_of(std::uint32_t r,
                                       std::uint32_t slice_rows) const noexcept;

 private:
  std::uint32_t rows_;
  std::uint32_t cols_;
  Graph graph_;
};

}  // namespace levnet::topology
