#include "routing/mesh_router.hpp"

#include <bit>
#include <cstdlib>

#include "support/check.hpp"

namespace levnet::routing {
namespace {

using topology::Mesh;

[[nodiscard]] std::uint32_t abs_diff(std::uint32_t a, std::uint32_t b) noexcept {
  return a > b ? a - b : b - a;
}

/// One vertical step from (r, c) toward target row.
[[nodiscard]] NodeId vertical_step(const Mesh& mesh, std::uint32_t r,
                                   std::uint32_t c,
                                   std::uint32_t target_row) noexcept {
  return mesh.node_id(target_row > r ? r + 1 : r - 1, c);
}

/// One horizontal step from (r, c) toward target column.
[[nodiscard]] NodeId horizontal_step(const Mesh& mesh, std::uint32_t r,
                                     std::uint32_t c,
                                     std::uint32_t target_col) noexcept {
  return mesh.node_id(r, target_col > c ? c + 1 : c - 1);
}

/// XY route: along the row to the target column first, then the column.
[[nodiscard]] NodeId xy_step(const Mesh& mesh, NodeId at, NodeId target) noexcept {
  const std::uint32_t r = mesh.row_of(at);
  const std::uint32_t c = mesh.col_of(at);
  const std::uint32_t tr = mesh.row_of(target);
  const std::uint32_t tc = mesh.col_of(target);
  if (c != tc) return horizontal_step(mesh, r, c, tc);
  return vertical_step(mesh, r, c, tr);
}

}  // namespace

std::uint32_t default_slice_rows(const topology::Mesh& mesh) {
  const std::uint32_t n = mesh.rows();
  const auto log2n = static_cast<std::uint32_t>(std::bit_width(n - 1));
  return std::max(1U, n / std::max(1U, log2n));
}

MeshThreeStageRouter::MeshThreeStageRouter(const topology::Mesh& mesh,
                                           std::uint32_t slice_rows)
    : mesh_(mesh),
      slice_rows_(slice_rows == 0 ? default_slice_rows(mesh) : slice_rows) {
  LEVNET_CHECK(slice_rows_ >= 1);
}

void MeshThreeStageRouter::prepare(Packet& p, support::Rng& rng,
                                   const Liveness*) const {
  const std::uint32_t src_row = mesh_.row_of(p.src);
  const auto [first, last] = mesh_.slice_rows_of(src_row, slice_rows_);
  const auto random_row =
      static_cast<std::uint32_t>(rng.range(first, last));
  p.intermediate = mesh_.node_id(random_row, mesh_.col_of(p.src));
  p.route_state = kStageRandomize;
}

NodeId MeshThreeStageRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                      const Liveness*) const {
  const std::uint32_t r = mesh_.row_of(at);
  const std::uint32_t c = mesh_.col_of(at);
  const std::uint32_t dst_row = mesh_.row_of(p.dst);
  const std::uint32_t dst_col = mesh_.col_of(p.dst);

  if (p.route_state == kStageRandomize) {
    const std::uint32_t random_row = mesh_.row_of(p.intermediate);
    if (r != random_row) return vertical_step(mesh_, r, c, random_row);
    p.route_state = kStageRow;
  }
  if (p.route_state == kStageRow) {
    if (c != dst_col) return horizontal_step(mesh_, r, c, dst_col);
    p.route_state = kStageColumn;
  }
  if (r != dst_row) return vertical_step(mesh_, r, c, dst_row);
  return kInvalidNode;
}

std::uint32_t MeshThreeStageRouter::remaining(const Packet& p,
                                              NodeId at) const {
  const std::uint32_t r = mesh_.row_of(at);
  const std::uint32_t c = mesh_.col_of(at);
  const std::uint32_t dst_row = mesh_.row_of(p.dst);
  const std::uint32_t dst_col = mesh_.col_of(p.dst);
  switch (p.route_state) {
    case kStageRandomize: {
      const std::uint32_t random_row = mesh_.row_of(p.intermediate);
      return abs_diff(r, random_row) + abs_diff(c, dst_col) +
             abs_diff(random_row, dst_row);
    }
    case kStageRow:
      return abs_diff(c, dst_col) + abs_diff(r, dst_row);
    default:
      return abs_diff(r, dst_row);
  }
}

void ValiantBrebnerMeshRouter::prepare(Packet& p, support::Rng& rng,
                                       const Liveness*) const {
  p.intermediate = static_cast<NodeId>(rng.below(mesh_.node_count()));
  p.route_state = 0;
}

NodeId ValiantBrebnerMeshRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                          const Liveness*) const {
  if (p.route_state == 0) {
    if (at != p.intermediate) return xy_step(mesh_, at, p.intermediate);
    p.route_state = 1;
  }
  if (at == p.dst) return kInvalidNode;
  return xy_step(mesh_, at, p.dst);
}

std::uint32_t ValiantBrebnerMeshRouter::remaining(const Packet& p,
                                                  NodeId at) const {
  if (p.route_state == 0) {
    return mesh_.distance(at, p.intermediate) +
           mesh_.distance(p.intermediate, p.dst);
  }
  return mesh_.distance(at, p.dst);
}

void GreedyXYMeshRouter::prepare(Packet& p, support::Rng&,
                                 const Liveness*) const {
  p.route_state = 0;
}

NodeId GreedyXYMeshRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                    const Liveness*) const {
  if (at == p.dst) return kInvalidNode;
  return xy_step(mesh_, at, p.dst);
}

std::uint32_t GreedyXYMeshRouter::remaining(const Packet& p, NodeId at) const {
  return mesh_.distance(at, p.dst);
}

}  // namespace levnet::routing
