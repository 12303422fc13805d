#include "routing/star_router.hpp"

namespace levnet::routing {

void StarGreedyRouter::prepare(Packet& p, support::Rng&,
                               const Liveness*) const {
  p.route_state = 0;
}

NodeId StarGreedyRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                  const Liveness*) const {
  if (at == p.dst) return kInvalidNode;
  return star_.greedy_step(at, p.dst);
}

std::uint32_t StarGreedyRouter::remaining(const Packet& p, NodeId at) const {
  return star_.distance(at, p.dst);
}

void StarTwoPhaseRouter::prepare(Packet& p, support::Rng& rng,
                                 const Liveness* live) const {
  p.intermediate = static_cast<NodeId>(rng.below(star_.node_count()));
  if (topology::degraded(live) != nullptr) {
    // Degraded mode: a dead intermediate would aim the greedy phase into a
    // hole it can never enter; rejection-sample over survivors (uniform on
    // live nodes, same single draw as the pristine path when all are live).
    while (!live->node_live(p.intermediate)) {
      p.intermediate = static_cast<NodeId>(rng.below(star_.node_count()));
    }
  }
  p.route_state = sim::route_state_pack(kPhaseToIntermediate, 0);
}

NodeId StarTwoPhaseRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                    const Liveness*) const {
  if (sim::route_state_phase(p.route_state) == kPhaseToIntermediate) {
    if (at != p.intermediate) return star_.greedy_step(at, p.intermediate);
    p.route_state = sim::route_state_pack(kPhaseToDestination, 0);
  }
  if (at == p.dst) return kInvalidNode;
  return star_.greedy_step(at, p.dst);
}

std::uint32_t StarTwoPhaseRouter::remaining(const Packet& p, NodeId at) const {
  if (sim::route_state_phase(p.route_state) == kPhaseToIntermediate) {
    return star_.distance(at, p.intermediate) +
           star_.distance(p.intermediate, p.dst);
  }
  return star_.distance(at, p.dst);
}

}  // namespace levnet::routing
