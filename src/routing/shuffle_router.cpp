#include "routing/shuffle_router.hpp"

#include "support/check.hpp"

namespace levnet::routing {
// The shift link out of a constant-digit node that re-injects the same
// digit is a self-loop in the abstract network; the graph omits self-loops,
// so the routers below consume such hops in place (the packet stays put for
// that link of the unique path) — a zero-cost traversal that can only make
// the measured routing time smaller by at most one step for d special nodes.

void ShuffleUniquePathRouter::prepare(Packet& p, support::Rng&,
                                      const Liveness*) const {
  p.route_state = 0;
}

NodeId ShuffleUniquePathRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                         const Liveness*) const {
  std::uint32_t hops = sim::route_state_hops(p.route_state);
  while (hops < net_.digits()) {
    const NodeId next = net_.forward_toward(at, p.dst, hops);
    ++hops;
    if (next != at) {
      p.route_state = sim::route_state_pack(0, hops);
      return next;
    }
  }
  LEVNET_DCHECK(at == p.dst);
  p.route_state = sim::route_state_pack(0, hops);
  return kInvalidNode;
}

std::uint32_t ShuffleUniquePathRouter::remaining(const Packet& p,
                                                 NodeId at) const {
  (void)at;
  return net_.digits() - sim::route_state_hops(p.route_state);
}

void ShuffleTwoPhaseRouter::prepare(Packet& p, support::Rng&,
                                    const Liveness*) const {
  p.route_state = sim::route_state_pack(kPhaseRandom, 0);
}

NodeId ShuffleTwoPhaseRouter::next_hop(Packet& p, NodeId at,
                                       support::Rng& rng,
                                       const Liveness* live) const {
  std::uint32_t phase = sim::route_state_phase(p.route_state);
  std::uint32_t hops = sim::route_state_hops(p.route_state);
  const std::uint32_t n = net_.digits();

  const Liveness* const mask = topology::degraded(live);
  if (mask != nullptr && phase != kPhaseDone && at != p.dst) {
    // Degraded last hop: all d forward (shift) entries into the
    // destination can be dead while a backward (un-shift) link survives —
    // forward-only restarts would then never deliver. Grab the
    // destination whenever it is a live direct neighbor, whichever
    // direction the link points, and finish the journey there.
    const topology::EdgeId direct = net_.graph().edge_between(at, p.dst);
    if (direct != topology::kInvalidEdge && mask->edge_live(direct)) {
      p.route_state = sim::route_state_pack(kPhaseDone, 0);
      return p.dst;
    }
  }

  for (;;) {
    if (phase == kPhaseDone) return kInvalidNode;
    if (phase == kPhaseRandom && hops == n) {
      p.intermediate = at;
      phase = kPhaseFixed;
      hops = 0;
    }
    if (phase == kPhaseFixed && hops == n) {
      LEVNET_DCHECK(at == p.dst);
      p.route_state = sim::route_state_pack(kPhaseDone, 0);
      return kInvalidNode;
    }
    NodeId next;
    if (phase == kPhaseRandom) {
      next = net_.shift_inject(
          at, static_cast<std::uint32_t>(rng.below(net_.radix())));
      if (mask != nullptr) {
        // Degraded mode: prefer a live shift link (self-loop shifts stay
        // put and need no link). Bounded redraws; the engine's on_fault
        // detour is the backstop for badly cut-off nodes.
        for (std::uint32_t tries = 0; tries < 2 * net_.radix(); ++tries) {
          if (next == at) break;
          const topology::EdgeId e = net_.graph().edge_between(at, next);
          if (e != topology::kInvalidEdge && mask->edge_live(e)) break;
          next = net_.shift_inject(
              at, static_cast<std::uint32_t>(rng.below(net_.radix())));
        }
      }
    } else {
      next = net_.forward_toward(at, p.dst, hops);
    }
    ++hops;
    if (next != at) {
      p.route_state = sim::route_state_pack(phase, hops);
      return next;
    }
    // Self-loop link: hop consumed in place; keep going this step.
    p.route_state = sim::route_state_pack(phase, hops);
  }
}

std::uint32_t ShuffleTwoPhaseRouter::remaining(const Packet& p,
                                               NodeId at) const {
  (void)at;
  const std::uint32_t phase = sim::route_state_phase(p.route_state);
  const std::uint32_t hops = sim::route_state_hops(p.route_state);
  const std::uint32_t n = net_.digits();
  switch (phase) {
    case kPhaseRandom:
      return (n - hops) + n;
    case kPhaseFixed:
      return n - hops;
    default:
      return 0;
  }
}

}  // namespace levnet::routing
