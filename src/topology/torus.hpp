#pragma once
// 2-D torus: the mesh of Section 3 with wraparound links. Halves the
// diameter (to n for an n x n torus) at the cost of non-planar wiring; the
// mesh emulation algorithm ports directly, so the torus serves as the
// "what if the MCC had end-around connections" extension experiment.

#include <cstdint>
#include <string>

#include "topology/graph.hpp"

namespace levnet::topology {

class Torus {
 public:
  Torus(std::uint32_t rows, std::uint32_t cols);

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::string name() const;

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] NodeId node_count() const noexcept { return rows_ * cols_; }
  [[nodiscard]] std::uint32_t diameter() const noexcept {
    return rows_ / 2 + cols_ / 2;
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

  /// Wrapped (toroidal) Manhattan distance.
  [[nodiscard]] std::uint32_t distance(NodeId u, NodeId v) const noexcept;

  /// One step along the shorter wrapped direction in the row coordinate
  /// (+1 or -1 mod rows) toward target_row; analogous for columns.
  [[nodiscard]] std::uint32_t row_step_toward(std::uint32_t r,
                                              std::uint32_t target_row) const
      noexcept;
  [[nodiscard]] std::uint32_t col_step_toward(std::uint32_t c,
                                              std::uint32_t target_col) const
      noexcept;

 private:
  std::uint32_t rows_;
  std::uint32_t cols_;
  Graph graph_;
};

}  // namespace levnet::topology
