#pragma once
// Router interface: one oblivious next-hop policy per algorithm.
//
// All routers in the paper are oblivious (Section 2.2.1): a packet's path
// depends only on its own (source, destination) and its private coin flips.
// The interface enforces that shape — `prepare` draws the coins (e.g. the
// random intermediate node of Valiant's scheme) into the packet, and
// `next_hop` is a pure function of packet state and current position.
// Every call also receives the run's fault mask (`live`, null on a
// pristine network); fault-aware routers steer around what it marks dead,
// the rest ignore it.
//
// Concurrency contract: routers must be immutable after construction (no
// mutable members, all randomness via the caller-supplied Rng, all fault
// state via the caller-supplied mask). The trial harness shares one router
// instance across concurrent seed trials, each with its own engine, Rng
// and mask — faulted or not.

#include <cstdint>

#include "sim/packet.hpp"
#include "support/rng.hpp"
#include "topology/graph.hpp"
#include "topology/liveness.hpp"

namespace levnet::routing {

using sim::Packet;
using topology::kInvalidNode;
using topology::Liveness;
using topology::NodeId;

class Router {
 public:
  virtual ~Router() = default;

  /// Initializes routing state for a journey that starts at p.src and ends
  /// at p.dst (draws random intermediates, resets hop counters).
  virtual void prepare(Packet& p, support::Rng& rng,
                       const Liveness* live) const = 0;

  /// Next node to visit from `at`, or kInvalidNode when the packet is to be
  /// delivered at `at`. May advance p.route_state.
  [[nodiscard]] virtual NodeId next_hop(Packet& p, NodeId at,
                                        support::Rng& rng,
                                        const Liveness* live) const = 0;

  /// Remaining journey length estimate; the engine's furthest-first
  /// discipline serves larger values first (Section 3.4's priority rule).
  [[nodiscard]] virtual std::uint32_t remaining(const Packet& p,
                                                NodeId at) const {
    (void)p;
    (void)at;
    return 0;
  }

  /// Degraded-mode recovery: a fault detour is about to move p to
  /// `resume_at`, off its planned path; re-initialize the routing state so
  /// next_hop makes progress toward p.dst from there. The default restarts
  /// the journey (src := resume_at, prepare), which is correct for
  /// position-based routers (star greedy/two-phase, shuffle, mesh).
  /// Hop-counted routers whose phases assume a fixed start column
  /// (butterfly) must override with a position-based recovery mode.
  virtual void reroute(Packet& p, NodeId resume_at, support::Rng& rng,
                       const Liveness* live) const {
    p.src = resume_at;
    prepare(p, rng, live);
  }
};

}  // namespace levnet::routing
