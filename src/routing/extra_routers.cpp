#include "routing/extra_routers.hpp"

namespace levnet::routing {

// ------------------------------------------------------------------- torus

NodeId TorusGreedyRouter::step_toward(NodeId at, NodeId target) const noexcept {
  const std::uint32_t r = torus_.row_of(at);
  const std::uint32_t c = torus_.col_of(at);
  const std::uint32_t tr = torus_.row_of(target);
  const std::uint32_t tc = torus_.col_of(target);
  if (c != tc) return torus_.node_id(r, torus_.col_step_toward(c, tc));
  return torus_.node_id(torus_.row_step_toward(r, tr), c);
}

void TorusGreedyRouter::prepare(Packet& p, support::Rng&,
                                const Liveness*) const {
  p.route_state = 0;
}

NodeId TorusGreedyRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                   const Liveness*) const {
  if (at == p.dst) return kInvalidNode;
  return step_toward(at, p.dst);
}

std::uint32_t TorusGreedyRouter::remaining(const Packet& p, NodeId at) const {
  return torus_.distance(at, p.dst);
}

void TorusValiantRouter::prepare(Packet& p, support::Rng& rng,
                                 const Liveness*) const {
  p.intermediate = static_cast<NodeId>(rng.below(torus_.node_count()));
  p.route_state = 0;
}

NodeId TorusValiantRouter::step_toward(NodeId at,
                                       NodeId target) const noexcept {
  const std::uint32_t r = torus_.row_of(at);
  const std::uint32_t c = torus_.col_of(at);
  const std::uint32_t tr = torus_.row_of(target);
  const std::uint32_t tc = torus_.col_of(target);
  if (c != tc) return torus_.node_id(r, torus_.col_step_toward(c, tc));
  return torus_.node_id(torus_.row_step_toward(r, tr), c);
}

NodeId TorusValiantRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                    const Liveness*) const {
  if (p.route_state == 0) {
    if (at != p.intermediate) return step_toward(at, p.intermediate);
    p.route_state = 1;
  }
  if (at == p.dst) return kInvalidNode;
  return step_toward(at, p.dst);
}

std::uint32_t TorusValiantRouter::remaining(const Packet& p, NodeId at) const {
  if (p.route_state == 0) {
    return torus_.distance(at, p.intermediate) +
           torus_.distance(p.intermediate, p.dst);
  }
  return torus_.distance(at, p.dst);
}

// --------------------------------------------------------------------- ccc

void CccSweepRouter::prepare(Packet& p, support::Rng&, const Liveness*) const {
  p.route_state = 0;
}

NodeId CccSweepRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                const Liveness*) const {
  return ccc_.sweep_step(at, p.dst);
}

std::uint32_t CccSweepRouter::remaining(const Packet& p, NodeId at) const {
  (void)at;
  (void)p;
  // Exact CCC distance needs a per-pair optimization; the route bound is a
  // serviceable priority surrogate (all packets share it -> FIFO ties).
  return ccc_.route_bound();
}

void CccTwoPhaseRouter::prepare(Packet& p, support::Rng& rng,
                                const Liveness*) const {
  p.intermediate = static_cast<NodeId>(rng.below(ccc_.node_count()));
  p.route_state = 0;
}

NodeId CccTwoPhaseRouter::next_hop(Packet& p, NodeId at, support::Rng&,
                                   const Liveness*) const {
  if (p.route_state == 0) {
    if (at != p.intermediate) return ccc_.sweep_step(at, p.intermediate);
    p.route_state = 1;
  }
  return ccc_.sweep_step(at, p.dst);
}

std::uint32_t CccTwoPhaseRouter::remaining(const Packet& p, NodeId at) const {
  (void)at;
  return p.route_state == 0 ? 2 * ccc_.route_bound() : ccc_.route_bound();
}

}  // namespace levnet::routing
