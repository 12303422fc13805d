#pragma once
// Mesh routing algorithms (Section 3.4 and baselines from Section 3.2).
//
// MeshThreeStageRouter is the paper's algorithm: partition the mesh into
// horizontal slices of `slice_rows` rows (Figure 5); a packet from (i, j)
// to (k, l)
//   stage 0: moves along column j to a random row i' inside its own slice,
//   stage 1: moves along row i' to column l,
//   stage 2: moves along column l to row k.
// With slice_rows ~ n/log n, stage 0 costs o(n) and stages 1-2 cost
// n + o(n) each under furthest-destination-first contention resolution
// (Theorem 3.1: 2n + o(n), queues O(log n)). For the locality regime of
// Theorem 3.3, slice_rows is scaled with the request distance d.
//
// ValiantBrebnerMeshRouter is the 3n + o(n) baseline [19]: route XY to a
// uniformly random node anywhere, then XY to the destination.
// GreedyXYMeshRouter is the deterministic dimension-order baseline whose
// queues blow up on the transpose permutation — the reason randomization
// is needed.

#include "routing/router.hpp"
#include "topology/mesh.hpp"

namespace levnet::routing {

/// Default slice height from the paper's epsilon = 1/log n choice.
[[nodiscard]] std::uint32_t default_slice_rows(const topology::Mesh& mesh);

class MeshThreeStageRouter final : public Router {
 public:
  /// slice_rows == 0 selects the default n/ceil(log2 n).
  MeshThreeStageRouter(const topology::Mesh& mesh, std::uint32_t slice_rows = 0);

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  /// Exact remaining path length (stage-aware) — the "furthest destination
  /// first" key of Section 3.4.
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

  [[nodiscard]] std::uint32_t slice_rows() const noexcept {
    return slice_rows_;
  }

 private:
  static constexpr std::uint32_t kStageRandomize = 0;
  static constexpr std::uint32_t kStageRow = 1;
  static constexpr std::uint32_t kStageColumn = 2;

  const topology::Mesh& mesh_;
  std::uint32_t slice_rows_;
};

class ValiantBrebnerMeshRouter final : public Router {
 public:
  explicit ValiantBrebnerMeshRouter(const topology::Mesh& mesh) : mesh_(mesh) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::Mesh& mesh_;
};

class GreedyXYMeshRouter final : public Router {
 public:
  explicit GreedyXYMeshRouter(const topology::Mesh& mesh) : mesh_(mesh) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::Mesh& mesh_;
};

}  // namespace levnet::routing
