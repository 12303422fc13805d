#pragma once
// d-way shuffle routing (Section 2.3.5).
//
// ShuffleUniquePathRouter follows the unique n-link forward path (inject
// the destination digits least-significant first) — deterministic and
// oblivious. ShuffleTwoPhaseRouter is Algorithm 2.3: a first pass injecting
// n uniformly random digits reaches a random intermediate node, a second
// pass follows the unique path to the destination — Theorem 2.3 /
// Corollary 2.2 give O~(n) routing on the n-way shuffle, beating the
// Theta(n log n / log log n) of Valiant's general d-way analysis.

#include "routing/router.hpp"
#include "topology/shuffle.hpp"

namespace levnet::routing {

class ShuffleUniquePathRouter final : public Router {
 public:
  explicit ShuffleUniquePathRouter(const topology::DWayShuffle& net)
      : net_(net) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  const topology::DWayShuffle& net_;
};

class ShuffleTwoPhaseRouter final : public Router {
 public:
  explicit ShuffleTwoPhaseRouter(const topology::DWayShuffle& net)
      : net_(net) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;

 private:
  static constexpr std::uint32_t kPhaseRandom = 1;
  static constexpr std::uint32_t kPhaseFixed = 2;
  static constexpr std::uint32_t kPhaseDone = 3;

  const topology::DWayShuffle& net_;
};

}  // namespace levnet::routing
