#pragma once
// Hypercube routing: e-cube (deterministic dimension order) and Valiant's
// two-phase scheme [19] — the classical O~(log N) comparison point of
// Section 1 against which the paper's sub-logarithmic networks are framed.

#include "routing/router.hpp"
#include "topology/hypercube.hpp"

namespace levnet::routing {

class EcubeRouter final : public Router {
 public:
  explicit EcubeRouter(const topology::Hypercube& cube) : cube_(cube) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::Hypercube& cube_;
};

class ValiantHypercubeRouter final : public Router {
 public:
  explicit ValiantHypercubeRouter(const topology::Hypercube& cube)
      : cube_(cube) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::Hypercube& cube_;
};

}  // namespace levnet::routing
