#pragma once
// Algorithm 2.1 — the universal randomized routing algorithm for leveled
// networks, realized on the wrapped radix-d butterfly.
//
// Phase 1: at every level the packet crosses a uniformly random forward
// link ("flipping a d-sided coin"), so after l links it sits on a uniformly
// random intermediate node. Phase 2: it follows the unique forward path of
// exactly l links to its destination. Theorem 2.1: a permutation between
// the endpoint column completes in O~(l) steps with FIFO queues of size
// O(l); Theorem 2.4 extends this to partial l-relations when l = O(d).
//
// Endpoints are column-0 nodes (the wrap identifies the paper's first and
// last columns; see butterfly.hpp).

#include "routing/router.hpp"
#include "topology/butterfly.hpp"

namespace levnet::routing {

class TwoPhaseButterflyRouter final : public Router {
 public:
  explicit TwoPhaseButterflyRouter(const topology::WrappedButterfly& net)
      : net_(net) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;
  /// Fault recovery cannot restart the two hop-counted phases from an
  /// interior column (phase 2 assumes exactly l forward hops from a
  /// column-0 start), so a detoured packet switches to a position-based
  /// recovery phase: follow forward_toward until it stands on p.dst,
  /// escaping dead planned links via l-hop random scrambles (see
  /// next_hop's recover branch for why greedy correction alone livelocks).
  void reroute(Packet& p, NodeId resume_at, support::Rng& rng,
               const Liveness* live) const override;

 private:
  static constexpr std::uint32_t kPhaseRandom = 1;
  static constexpr std::uint32_t kPhaseFixed = 2;
  static constexpr std::uint32_t kPhaseDone = 3;
  static constexpr std::uint32_t kPhaseRecover = 4;

  /// One hop of the degraded-mode scramble walk: a uniformly random live
  /// out-link of `at`, backward links included (see the .cpp for why
  /// forward-only scrambling is not ergodic).
  [[nodiscard]] NodeId random_live_step(NodeId at, support::Rng& rng,
                                        const Liveness& live) const;

  const topology::WrappedButterfly& net_;
};

/// Deterministic single-pass router along the unique forward path — the
/// oblivious baseline whose congestion the randomized phase 1 removes.
class UniquePathButterflyRouter final : public Router {
 public:
  explicit UniquePathButterflyRouter(const topology::WrappedButterfly& net)
      : net_(net) {}

  void prepare(Packet& p, support::Rng& rng,
               const Liveness* live) const override;
  [[nodiscard]] NodeId next_hop(Packet& p, NodeId at, support::Rng& rng,
                                const Liveness* live) const override;
  [[nodiscard]] std::uint32_t remaining(const Packet& p,
                                        NodeId at) const override;
  /// No degraded mode: the default reroute (src := resume_at + prepare)
  /// would silently misdeliver — the hop-counted pass assumes a column-0
  /// start — and this router's whole point is determinism, which fault
  /// recovery necessarily breaks (see TwoPhaseButterflyRouter's recovery
  /// phase). Fails loudly instead; use the two-phase router for fault
  /// scenarios.
  void reroute(Packet& p, NodeId resume_at, support::Rng& rng,
               const Liveness* live) const override;

 private:
  const topology::WrappedButterfly& net_;
};

}  // namespace levnet::routing
