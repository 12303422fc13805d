#include "faults/plan.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "topology/liveness.hpp"

namespace levnet::faults {

namespace {

/// Scratch degraded graph used only while sampling: the plan must not
/// touch the real graph, but connectivity screening needs to look at the
/// network as it will be once every accepted kill has landed. The mask is
/// the same topology::Liveness a run's injector applies the plan to; the
/// sampler only adds undo for rejected candidates.
struct Scratch {
  explicit Scratch(const topology::Graph& g)
      : graph(&g), live(g), bfs_seen(g.node_count(), 0) {
    // Symmetric graphs (every edge paired with its reverse, which
    // kill_link/kill_node preserve) only need one forward BFS: reach-from
    // implies reach-to. With unpaired one-way edges that implication
    // fails, so the screen must also check the transpose; build the
    // in-edge lists once in that case.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (g.reverse_edge(e) == topology::kInvalidEdge) {
        asymmetric = true;
        break;
      }
    }
    if (asymmetric) {
      in_edges.resize(g.node_count());
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        in_edges[g.edge_head(e)].push_back(e);
      }
    }
  }

  /// BFS from `root` over live edges and nodes; `backward` walks the
  /// transpose. Returns true iff every *live* endpoint was reached.
  /// The visited set is a stamped array reused across every screening
  /// retry — rejection-heavy samples on large graphs no longer pay an
  /// O(node_count) clear per attempt.
  [[nodiscard]] bool endpoints_reachable(std::uint32_t endpoints,
                                         std::uint32_t live_endpoints,
                                         NodeId root, bool backward) {
    bfs_queue.clear();
    if (++bfs_stamp == 0) {  // stamp wrapped: one real clear, then restart
      std::fill(bfs_seen.begin(), bfs_seen.end(), 0);
      bfs_stamp = 1;
    }
    bfs_queue.push_back(root);
    bfs_seen[root] = bfs_stamp;
    std::size_t head = 0;
    std::uint32_t endpoints_seen = 1;
    while (head < bfs_queue.size()) {
      const NodeId u = bfs_queue[head++];
      const auto visit = [&](EdgeId e, NodeId v) {
        if (!live.edge_live(e) || !live.node_live(v) ||
            bfs_seen[v] == bfs_stamp) {
          return;
        }
        bfs_seen[v] = bfs_stamp;
        bfs_queue.push_back(v);
        if (v < endpoints) ++endpoints_seen;
      };
      if (backward) {
        for (const EdgeId e : in_edges[u]) visit(e, graph->edge_tail(e));
      } else {
        for (std::uint32_t k = 0; k < graph->out_degree(u); ++k) {
          const EdgeId e = graph->out_edge(u, k);
          visit(e, graph->edge_head(e));
        }
      }
      if (endpoints_seen == live_endpoints) return true;
    }
    return endpoints_seen == live_endpoints;
  }

  /// True iff every live endpoint can both reach and be reached by the
  /// first live endpoint over live edges/nodes — the "every surviving
  /// processor can still talk to every surviving module, both ways"
  /// requirement. Dead endpoints (proc faults) are out of the quantifier:
  /// nothing is owed to a processor that no longer computes. Symmetric
  /// graphs need only the forward pass.
  [[nodiscard]] bool endpoints_connected(std::uint32_t endpoints) {
    NodeId root = topology::kInvalidNode;
    std::uint32_t survivors = 0;
    for (NodeId v = 0; v < endpoints; ++v) {
      if (live.node_live(v)) {
        if (root == topology::kInvalidNode) root = v;
        ++survivors;
      }
    }
    if (survivors <= 1) return true;
    if (!endpoints_reachable(endpoints, survivors, root, false)) return false;
    return !asymmetric ||
           endpoints_reachable(endpoints, survivors, root, true);
  }

  const topology::Graph* graph;
  topology::Liveness live;
  bool asymmetric = false;
  std::vector<std::vector<EdgeId>> in_edges;  // built only when asymmetric
  std::vector<NodeId> bfs_queue;
  std::vector<std::uint32_t> bfs_seen;  // stamp-visited, reused per retry
  std::uint32_t bfs_stamp = 0;
};

std::uint32_t target_count(double fraction, std::size_t candidates) {
  LEVNET_CHECK_MSG(fraction >= 0.0 && fraction < 1.0,
                   "fault fraction must lie in [0, 1)");
  return static_cast<std::uint32_t>(fraction *
                                    static_cast<double>(candidates));
}

}  // namespace

FaultPlan FaultPlan::sample(const topology::Graph& graph,
                            std::uint32_t endpoints, std::uint32_t modules,
                            const FaultSpec& spec, std::uint64_t seed) {
  FaultPlan plan;
  std::string error;
  LEVNET_CHECK_MSG(sample(graph, endpoints, modules, spec, seed, plan, error),
                   error);
  return plan;
}

bool FaultPlan::sample(const topology::Graph& graph, std::uint32_t endpoints,
                       std::uint32_t modules, const FaultSpec& spec,
                       std::uint64_t seed, FaultPlan& plan,
                       std::string& error) {
  plan = FaultPlan{};
  plan.seed_ = seed;
  if (spec.link_fraction == 0.0 && spec.node_fraction == 0.0 &&
      spec.module_fraction == 0.0 && spec.proc_fraction == 0.0) {
    // Nothing to sample: skip the candidate shuffles and scratch arrays
    // entirely (fault-free twins in A/B benches take this path per seed).
    return true;
  }
  // Decorrelate from the emulator/router streams that share the same
  // user-facing seed.
  std::uint64_t mix = seed ^ 0xFA17'FA17'FA17'FA17ULL;
  support::Rng rng(support::splitmix64(mix));

  Scratch scratch(graph);
  const auto fail = [&error](const char* why) {
    error = std::string("FaultPlan::sample: ") + why;
    return false;
  };
  const auto draw_epoch = [&]() -> std::uint32_t {
    return spec.onset_epochs <= 1
               ? 0
               : static_cast<std::uint32_t>(rng.below(spec.onset_epochs));
  };

  // Processors first: a dead processor takes its endpoint node (and every
  // incident link) with it, so the later link/node phases must see those
  // kills in the scratch graph. When the fraction is zero the phase is
  // skipped entirely — zero RNG draws — so proc-free plans keep the exact
  // draw sequence (and therefore the exact events) of every plan sampled
  // before this axis existed.
  std::uint32_t proc_dead = 0;
  if (spec.proc_fraction > 0.0) {
    std::vector<NodeId> procs;
    for (NodeId p = 0; p < endpoints; ++p) procs.push_back(p);
    support::shuffle(procs, rng);
    std::uint32_t proc_target = target_count(spec.proc_fraction,
                                             procs.size());
    if (endpoints != 0) {
      // At least one processor must survive to adopt the dead ones' slots.
      proc_target = std::min(proc_target, endpoints - 1);
    }
    std::vector<EdgeId> proc_edges;
    for (const NodeId p : procs) {
      if (proc_dead == proc_target) break;
      proc_edges.clear();
      scratch.live.kill_node(p, &proc_edges);
      if (spec.preserve_connectivity &&
          !scratch.endpoints_connected(endpoints)) {
        scratch.live.revive_node(p, proc_edges);
        ++plan.skipped_;
        continue;
      }
      plan.events_.push_back({FaultKind::kProc, p, draw_epoch()});
      ++proc_dead;
    }
    if (proc_dead != proc_target) {
      return fail(
          "procs= fraction unsatisfiable — every remaining processor kill "
          "would disconnect the survivor endpoints (lower procs= or set "
          "allow-cut=1)");
    }
  }

  // Links: one candidate per physical link (the lower-id directed edge of
  // each reverse pair; one-way edges stand alone). Candidates already dead
  // in the scratch graph (killed alongside a dead processor) are passed
  // over without consuming quota: their death is implied by the kProc
  // event, and "killing" them again would corrupt the revive-on-reject
  // bookkeeping.
  std::vector<EdgeId> links;
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    const EdgeId rev = graph.reverse_edge(e);
    if (rev == topology::kInvalidEdge || e < rev) links.push_back(e);
  }
  support::shuffle(links, rng);
  const std::uint32_t link_target = target_count(spec.link_fraction,
                                                 links.size());
  std::uint32_t accepted = 0;
  for (const EdgeId e : links) {
    if (accepted == link_target) break;
    if (!scratch.live.edge_live(e)) continue;
    scratch.live.kill_link(e);
    if (spec.preserve_connectivity &&
        !scratch.endpoints_connected(endpoints)) {
      scratch.live.revive_link(e);
      ++plan.skipped_;
      continue;
    }
    plan.events_.push_back({FaultKind::kLink, e, draw_epoch()});
    ++accepted;
  }
  // Link-only plans have always under-filled silently when the guard
  // rejects everything (pinned behavior); under procs= the combination is
  // a configuration error, named instead of silently shrunk.
  if (spec.proc_fraction != 0.0 && accepted != link_target) {
    return fail("procs= and links= jointly unsatisfiable — after the "
                "processor kills, the connectivity guard rejected every "
                "remaining link candidate (lower links=/procs= or set "
                "allow-cut=1)");
  }

  // Nodes: endpoints host processors; *node* faults never touch them
  // (processor kills are the explicit procs= axis above).
  std::vector<NodeId> nodes;
  for (NodeId v = endpoints; v < graph.node_count(); ++v) nodes.push_back(v);
  support::shuffle(nodes, rng);
  const std::uint32_t node_target = target_count(spec.node_fraction,
                                                 nodes.size());
  accepted = 0;
  std::vector<EdgeId> killed_edges;
  for (const NodeId v : nodes) {
    if (accepted == node_target) break;
    killed_edges.clear();
    scratch.live.kill_node(v, &killed_edges);
    if (spec.preserve_connectivity &&
        !scratch.endpoints_connected(endpoints)) {
      scratch.live.revive_node(v, killed_edges);
      ++plan.skipped_;
      continue;
    }
    plan.events_.push_back({FaultKind::kNode, v, draw_epoch()});
    ++accepted;
  }
  if (spec.proc_fraction != 0.0 && accepted != node_target) {
    return fail("procs= and nodes= jointly unsatisfiable — after the "
                "processor kills, the connectivity guard rejected every "
                "remaining node candidate (lower nodes=/procs= or set "
                "allow-cut=1)");
  }

  // Modules: no connectivity interplay, but at least one must survive.
  // Modules co-located with a dead processor die with it (the injector
  // applies that implication), so they are skipped here and the survivor
  // floor is counted over the live ones.
  std::vector<std::uint32_t> mods;
  for (std::uint32_t m = 0; m < modules; ++m) mods.push_back(m);
  support::shuffle(mods, rng);
  std::uint32_t module_target = target_count(spec.module_fraction,
                                             mods.size());
  const std::uint32_t live_modules = modules - proc_dead;
  if (live_modules != 0) {
    module_target = std::min(module_target, live_modules - 1);
  } else {
    module_target = 0;
  }
  accepted = 0;
  for (const std::uint32_t m : mods) {
    if (accepted == module_target) break;
    if (m < endpoints && !scratch.live.node_live(m)) continue;
    plan.events_.push_back({FaultKind::kModule, m, draw_epoch()});
    ++accepted;
  }

  // Apply order within an epoch: processor kills first (they imply node
  // and module deaths the later kinds must observe), then the pre-existing
  // link < node < module order so proc-free plans sort exactly as before.
  const auto kind_rank = [](FaultKind k) -> int {
    switch (k) {
      case FaultKind::kProc: return 0;
      case FaultKind::kLink: return 1;
      case FaultKind::kNode: return 2;
      case FaultKind::kModule: return 3;
    }
    return 4;
  };
  std::sort(plan.events_.begin(), plan.events_.end(),
            [&](const FaultEvent& a, const FaultEvent& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              if (a.kind != b.kind) return kind_rank(a.kind) < kind_rank(b.kind);
              return a.id < b.id;
            });
  return true;
}

}  // namespace levnet::faults
