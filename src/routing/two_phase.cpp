#include "routing/two_phase.hpp"

#include "support/check.hpp"

namespace levnet::routing {

void TwoPhaseButterflyRouter::prepare(Packet& p, support::Rng&,
                                      const Liveness*) const {
  p.route_state = p.src == p.dst ? sim::route_state_pack(kPhaseDone, 0)
                                 : sim::route_state_pack(kPhaseRandom, 0);
  p.intermediate = p.src;
}

NodeId TwoPhaseButterflyRouter::next_hop(Packet& p, NodeId at,
                                         support::Rng& rng,
                                         const Liveness* live) const {
  std::uint32_t phase = sim::route_state_phase(p.route_state);
  std::uint32_t hops = sim::route_state_hops(p.route_state);
  const std::uint32_t l = net_.levels();

  if (phase == kPhaseDone) return kInvalidNode;
  if (phase == kPhaseRandom && hops == l) {
    // Random walk complete: `at` is the uniformly random intermediate node.
    p.intermediate = at;
    phase = kPhaseFixed;
    hops = 0;
  }
  if (phase == kPhaseFixed && hops == l) {
    LEVNET_DCHECK(at == p.dst);
    p.route_state = sim::route_state_pack(kPhaseDone, 0);
    return kInvalidNode;
  }

  if (phase == kPhaseRecover) {
    // Position-based degraded-mode phase (see reroute): follow the unique
    // forward structure until the packet stands on its destination; no hop
    // counting, so further detours cannot desynchronize it.
    //
    // Greedy correction alone can livelock: a dead digit-correcting link
    // into column c+1 funnels *every* greedy approach to the same row
    // through itself (the digit at position c can only change at column
    // c), and no detour via neighbors changes that digit either. The
    // escape is the paper's own medicine re-applied: when the planned
    // link is dead, scramble — walk uniformly random live links (backward
    // included, see random_live_step) for the next l hops, which
    // re-randomizes every digit, then resume greedy correction from
    // wherever that lands. Each scramble gives a fresh chance to approach
    // the destination with the blocked digit already correct, so recovery
    // terminates w.h.p.
    if (at == p.dst) {
      p.route_state = sim::route_state_pack(kPhaseDone, 0);
      return kInvalidNode;
    }
    // Degraded last hop: every *forward* entry into the destination can be
    // dead while a backward link survives (the graph is physically
    // bidirectional). Recovery therefore grabs the destination whenever it
    // is a live direct neighbor, whichever direction the link points.
    LEVNET_DCHECK(live != nullptr);  // entered via reroute: a faulted run
    const topology::EdgeId direct = net_.graph().edge_between(at, p.dst);
    if (direct != topology::kInvalidEdge && live->edge_live(direct)) {
      return p.dst;
    }
    const std::uint32_t scramble = hops;  // hops field = scramble countdown
    if (scramble > 0) {
      p.route_state = sim::route_state_pack(kPhaseRecover, scramble - 1);
      return random_live_step(at, rng, *live);
    }
    const NodeId next = net_.forward_toward(at, net_.row_of(p.dst));
    const topology::EdgeId e = net_.graph().edge_between(at, next);
    if (e != topology::kInvalidEdge && live->edge_live(e)) return next;
    p.route_state = sim::route_state_pack(kPhaseRecover, l);
    return random_live_step(at, rng, *live);
  }

  NodeId next;
  if (phase == kPhaseRandom) {
    const std::uint32_t column = net_.column_of(at);
    const NodeId row = net_.row_of(at);
    auto digit = static_cast<std::uint32_t>(rng.below(net_.radix()));
    if (const Liveness* const mask = topology::degraded(live)) {
      // Degraded mode: the d-sided coin prefers live forward links. A few
      // redraws keep the choice uniform over survivors in the common case;
      // if the node is badly cut off the engine's on_fault detour (which
      // re-enters via reroute) is the backstop.
      for (std::uint32_t tries = 0; tries < 2 * net_.radix(); ++tries) {
        const NodeId candidate =
            net_.node_id((column + 1) % l, net_.with_digit(row, column, digit));
        const topology::EdgeId e = net_.graph().edge_between(at, candidate);
        if (e != topology::kInvalidEdge && mask->edge_live(e)) break;
        digit = static_cast<std::uint32_t>(rng.below(net_.radix()));
      }
    }
    next = net_.node_id((column + 1) % l, net_.with_digit(row, column, digit));
  } else {
    next = net_.forward_toward(at, net_.row_of(p.dst));
  }
  p.route_state = sim::route_state_pack(phase, hops + 1);
  return next;
}

NodeId TwoPhaseButterflyRouter::random_live_step(
    NodeId at, support::Rng& rng, const Liveness& live) const {
  // Uniform over ALL live out-links, backward included. Forward-only
  // scrambling is not ergodic on a degraded butterfly: a neighborhood
  // whose live forward exits all funnel into a forward-dead node traps a
  // forward-only walk forever (its backward escapes are never taken while
  // any live forward link exists). A uniform walk on the live graph is
  // ergodic, so together with the dst-adjacency grab recovery terminates
  // with probability 1.
  const NodeId next = live.random_live_neighbor(at, rng);
  if (next != kInvalidNode) return next;
  // Whole fan dead: hand any neighbor to the engine, whose on_fault
  // drop/detour path is the backstop.
  return net_.graph().out_neighbors(at)[0];
}

void TwoPhaseButterflyRouter::reroute(Packet& p, NodeId resume_at,
                                      support::Rng&, const Liveness*) const {
  p.src = resume_at;
  // Resume with a full scramble countdown, not straight greedy: an
  // engine-level detour means the packet just bounced off a badly degraded
  // neighborhood (e.g. a node whose whole forward fan is dead, reachable
  // only backward). Greedy correction from the detour target would funnel
  // deterministically back into the same trap; l random hops first make
  // the walk ergodic over the surviving graph, and the dst-adjacency grab
  // in next_hop's recover branch completes delivery.
  p.route_state = sim::route_state_pack(kPhaseRecover, net_.levels());
}

std::uint32_t TwoPhaseButterflyRouter::remaining(const Packet& p,
                                                 NodeId at) const {
  (void)at;
  const std::uint32_t phase = sim::route_state_phase(p.route_state);
  const std::uint32_t hops = sim::route_state_hops(p.route_state);
  const std::uint32_t l = net_.levels();
  switch (phase) {
    case kPhaseRandom:
      return (l - hops) + l;
    case kPhaseFixed:
      return l - hops;
    case kPhaseRecover:
      return l;  // flat estimate; recovery has no hop budget
    default:
      return 0;
  }
}

void UniquePathButterflyRouter::reroute(Packet&, NodeId, support::Rng&,
                                        const Liveness*) const {
  LEVNET_CHECK_MSG(false,
                   "UniquePathButterflyRouter has no degraded mode; use "
                   "TwoPhaseButterflyRouter for fault scenarios");
}

void UniquePathButterflyRouter::prepare(Packet& p, support::Rng&,
                                        const Liveness*) const {
  p.route_state = sim::route_state_pack(p.src == p.dst ? 1 : 0, 0);
}

NodeId UniquePathButterflyRouter::next_hop(Packet& p, NodeId at,
                                           support::Rng&,
                                           const Liveness*) const {
  if (sim::route_state_phase(p.route_state) == 1) return kInvalidNode;
  const std::uint32_t hops = sim::route_state_hops(p.route_state);
  if (hops == net_.levels()) {
    LEVNET_DCHECK(at == p.dst);
    return kInvalidNode;
  }
  p.route_state = sim::route_state_pack(0, hops + 1);
  return net_.forward_toward(at, net_.row_of(p.dst));
}

std::uint32_t UniquePathButterflyRouter::remaining(const Packet& p,
                                                   NodeId at) const {
  (void)at;
  if (sim::route_state_phase(p.route_state) == 1) return 0;
  return net_.levels() - sim::route_state_hops(p.route_state);
}

}  // namespace levnet::routing
