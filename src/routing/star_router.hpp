#pragma once
// Star-graph routing (Section 2.3.3-2.3.4).
//
// StarGreedyRouter is the deterministic oblivious router: follow a minimal
// star-transposition path (send the first symbol home, else fetch the
// smallest unplaced symbol). StarTwoPhaseRouter is Algorithm 2.2: pick a
// uniformly random intermediate node, route greedily to it, then greedily
// to the destination — Theorem 2.2 / Corollary 2.1 give O~(n) routing with
// FIFO queues.

#include "routing/router.hpp"
#include "topology/star.hpp"

namespace levnet::routing {

class StarGreedyRouter final : public Router {
 public:
  explicit StarGreedyRouter(const topology::StarGraph& star) : star_(star) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::StarGraph& star_;
};

class StarTwoPhaseRouter final : public Router {
 public:
  explicit StarTwoPhaseRouter(const topology::StarGraph& star) : star_(star) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  static constexpr std::uint32_t kPhaseToIntermediate = 1;
  static constexpr std::uint32_t kPhaseToDestination = 2;

  const topology::StarGraph& star_;
};

}  // namespace levnet::routing
