#include "topology/liveness.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace levnet::topology {

void Liveness::set_edge(EdgeId e, bool live) {
  LEVNET_CHECK(e < edge_live_.size());
  if ((edge_live_[e] != 0) == live) return;
  edge_live_[e] = live ? 1 : 0;
  live ? --dead_edges_ : ++dead_edges_;
}

void Liveness::set_link(EdgeId e, bool live) {
  set_edge(e, live);
  const EdgeId rev = graph_->reverse_edge(e);
  if (rev != kInvalidEdge) set_edge(rev, live);
}

void Liveness::kill_node(NodeId v, std::vector<EdgeId>* killed) {
  LEVNET_CHECK(v < node_live_.size());
  if (node_live_[v] == 0) return;
  node_live_[v] = 0;
  ++dead_nodes_;
  // Incident edges die with the node, found by a full scan (the CSR has no
  // in-edge index; node kills are plan application and sampling, not hot
  // path).
  for (EdgeId e = 0; e < graph_->edge_count(); ++e) {
    if (graph_->edge_tail(e) != v && graph_->edge_head(e) != v) continue;
    if (edge_live_[e] == 0) continue;
    set_edge(e, false);
    if (killed != nullptr) killed->push_back(e);
  }
}

void Liveness::revive_node(NodeId v, const std::vector<EdgeId>& killed) {
  if (node_live_[v] == 0) {
    node_live_[v] = 1;
    --dead_nodes_;
  }
  for (const EdgeId e : killed) set_edge(e, true);
}

void Liveness::revive_all() {
  std::fill(edge_live_.begin(), edge_live_.end(), std::uint8_t{1});
  std::fill(node_live_.begin(), node_live_.end(), std::uint8_t{1});
  dead_edges_ = 0;
  dead_nodes_ = 0;
}

std::uint32_t Liveness::live_out_degree(NodeId u) const noexcept {
  std::uint32_t live = 0;
  for (EdgeId e = graph_->out_begin(u); e < graph_->out_begin(u + 1); ++e) {
    live += edge_live_[e];
  }
  return live;
}

NodeId Liveness::random_live_neighbor(NodeId u, support::Rng& rng) const {
  const std::uint32_t live = live_out_degree(u);
  if (live == 0) return kInvalidNode;
  auto pick = static_cast<std::uint32_t>(rng.below(live));
  for (EdgeId e = graph_->out_begin(u); e < graph_->out_begin(u + 1); ++e) {
    if (edge_live_[e] != 0 && pick-- == 0) return graph_->edge_head(e);
  }
  return kInvalidNode;  // unreachable
}

}  // namespace levnet::topology
