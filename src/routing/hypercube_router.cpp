#include "routing/hypercube_router.hpp"

namespace levnet::routing {

void EcubeRouter::prepare(Packet& p, support::Rng&, const Liveness*) const {
  p.route_state = 0;
}

NodeId EcubeRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                             const Liveness*) const {
  if (at == p.dst) return kInvalidNode;
  return cube_.ecube_step(at, p.dst);
}

std::uint32_t EcubeRouter::remaining(const Packet& p, NodeId at) const {
  return cube_.distance(at, p.dst);
}

void ValiantHypercubeRouter::prepare(Packet& p, support::Rng& rng,
                                     const Liveness*) const {
  p.intermediate = static_cast<NodeId>(rng.below(cube_.node_count()));
  p.route_state = 0;
}

NodeId ValiantHypercubeRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                        const Liveness*) const {
  if (p.route_state == 0) {
    if (at != p.intermediate) return cube_.ecube_step(at, p.intermediate);
    p.route_state = 1;
  }
  if (at == p.dst) return kInvalidNode;
  return cube_.ecube_step(at, p.dst);
}

std::uint32_t ValiantHypercubeRouter::remaining(const Packet& p,
                                                NodeId at) const {
  if (p.route_state == 0) {
    return cube_.distance(at, p.intermediate) +
           cube_.distance(p.intermediate, p.dst);
  }
  return cube_.distance(at, p.dst);
}

}  // namespace levnet::routing
