#include "topology/graph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace levnet::topology {

Graph Graph::from_edges(NodeId node_count,
                        std::vector<std::pair<NodeId, NodeId>> edges) {
  Graph g;
  g.node_count_ = node_count;
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    LEVNET_CHECK_MSG(edges[i] != edges[i + 1], "parallel edge rejected");
  }
  g.offsets_.assign(node_count + 1, 0);
  g.heads_.resize(edges.size());
  g.tails_.resize(edges.size());
  for (const auto& [u, v] : edges) {
    LEVNET_CHECK(u < node_count && v < node_count);
    ++g.offsets_[u + 1];
  }
  for (NodeId u = 0; u < node_count; ++u) {
    g.offsets_[u + 1] += g.offsets_[u];
    g.max_out_degree_ =
        std::max(g.max_out_degree_, g.offsets_[u + 1] - g.offsets_[u]);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    g.heads_[i] = edges[i].second;
    g.tails_[i] = edges[i].first;
  }
  g.reverse_.resize(edges.size());
  for (EdgeId e = 0; e < g.heads_.size(); ++e) {
    g.reverse_[e] = g.edge_between(g.heads_[e], g.tails_[e]);
  }
  return g;
}

EdgeId Graph::edge_between(NodeId u, NodeId v) const noexcept {
  const auto nbrs = out_neighbors(u);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == v) return out_edge(u, k);
  }
  return kInvalidEdge;
}

}  // namespace levnet::topology
