#pragma once
// Routers for the extension topologies: torus (wrapped mesh) and
// cube-connected cycles. Both get a deterministic oblivious router and the
// Valiant-style two-phase randomized variant, mirroring the pattern the
// paper applies to the star and shuffle.

#include "routing/router.hpp"
#include "topology/ccc.hpp"
#include "topology/torus.hpp"

namespace levnet::routing {

/// Dimension-order routing with wrapped shortest directions.
class TorusGreedyRouter final : public Router {
 public:
  explicit TorusGreedyRouter(const topology::Torus& torus) : torus_(torus) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  [[nodiscard]] NodeId step_toward(NodeId at, NodeId target) const noexcept;

  const topology::Torus& torus_;
};

/// Two-phase: wrapped dimension-order to a uniform random node, then on to
/// the destination.
class TorusValiantRouter final : public Router {
 public:
  explicit TorusValiantRouter(const topology::Torus& torus) : torus_(torus) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  [[nodiscard]] NodeId step_toward(NodeId at, NodeId target) const noexcept;

  const topology::Torus& torus_;
};

/// Deterministic oblivious dimension sweep (see ccc.hpp).
class CccSweepRouter final : public Router {
 public:
  explicit CccSweepRouter(const topology::CubeConnectedCycles& ccc)
      : ccc_(ccc) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::CubeConnectedCycles& ccc_;
};

/// Two-phase on CCC: sweep to a uniform random node, then sweep to the
/// destination — the universal leveled-network recipe on the class's
/// constant-degree member.
class CccTwoPhaseRouter final : public Router {
 public:
  explicit CccTwoPhaseRouter(const topology::CubeConnectedCycles& ccc)
      : ccc_(ccc) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::CubeConnectedCycles& ccc_;
};

}  // namespace levnet::routing
