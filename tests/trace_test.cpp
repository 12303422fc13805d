// Trace module tests: route recording, overlap counting, the nonrepeating
// property (Definition 2.1) and the queue-line lemma (Fact 2.1) checked on
// live routing runs — the analysis tools the paper's proofs rest on.

#include <gtest/gtest.h>

#include "routing/driver.hpp"
#include "routing/mesh_router.hpp"
#include "routing/star_router.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"
#include "topology/mesh.hpp"
#include "topology/star.hpp"

namespace levnet::sim {
namespace {

TEST(TraceAudit, SharedLinksCountsDirectedLinks) {
  PacketTrace a{{0, 1, 2, 3}};
  PacketTrace b{{5, 1, 2, 3}};  // shares 1->2 and 2->3
  EXPECT_EQ(shared_link_count(a, b), 2U);
  PacketTrace c{{3, 2, 1}};  // reversed direction: no shared directed links
  EXPECT_EQ(shared_link_count(a, c), 0U);
}

TEST(TraceAudit, NonrepeatingAcceptsContiguousSharing) {
  PacketTrace a{{0, 1, 2, 3, 4}};
  PacketTrace b{{7, 1, 2, 3, 9}};  // joins, rides along, leaves
  EXPECT_TRUE(nonrepeating_pair(a, b));
}

TEST(TraceAudit, NonrepeatingRejectsRejoining) {
  // Share 0->1, diverge, then share 3->4 again: violates Definition 2.1.
  PacketTrace a{{0, 1, 2, 3, 4}};
  PacketTrace b{{0, 1, 7, 3, 4}};
  EXPECT_FALSE(nonrepeating_pair(a, b));
}

TEST(TraceAudit, OverlapCountExcludesSelf) {
  std::vector<PacketTrace> all{
      {{0, 1, 2}}, {{1, 2, 3}}, {{4, 5, 6}},  // only #1 overlaps #0
  };
  EXPECT_EQ(overlap_count(all[0], 0, all), 1U);
  EXPECT_EQ(overlap_count(all[2], 2, all), 0U);
}

/// Runs a traced permutation routing and returns traces + delays.
struct TracedRun {
  std::vector<PacketTrace> traces;
  std::vector<std::uint32_t> delays;  // per packet id
  bool complete = false;
};

TracedRun traced_permutation(const topology::Graph& graph,
                             const routing::Router& router,
                             std::uint32_t endpoints, std::uint64_t seed) {
  support::Rng rng(seed);
  const Workload w = permutation_workload(endpoints, rng);
  routing::RouterTraffic inner(router);
  inner.expect_packets(w.size());
  TracingTraffic tracing(inner);
  SyncEngine engine(graph, tracing, {});
  std::vector<std::uint32_t> inject_hops(w.size(), 0);
  std::uint32_t id = 0;
  for (const auto& demand : w) {
    Packet p;
    p.id = id++;
    p.src = demand.source;
    p.dst = demand.destination;
    router.prepare(p, rng, nullptr);
    const topology::NodeId origin = p.src;
    engine.inject(std::move(p), origin, rng);
  }
  TracedRun run;
  run.complete = engine.run(rng) && inner.all_at_destination();
  run.traces = tracing.traces();
  run.delays.resize(w.size(), 0);
  for (std::uint32_t i = 0; i < w.size(); ++i) {
    const std::uint32_t arrival = inner.arrival_steps()[i];
    const std::uint32_t hops =
        static_cast<std::uint32_t>(run.traces[i].link_count());
    run.delays[i] = arrival - hops;  // injected at step 0
  }
  return run;
}

TEST(QueueLineLemma, HoldsForGreedyStarRouting) {
  // Fact 2.1: under a nonrepeating scheme, delay(x) <= #packets overlapping
  // x's path. Star greedy paths are fixed per (src, dst), so tracing gives
  // the exact paths of the analysis.
  const topology::StarGraph star(5);
  const routing::StarGreedyRouter router(star);
  const TracedRun run =
      traced_permutation(star.graph(), router, star.node_count(), 3);
  ASSERT_TRUE(run.complete);
  for (std::size_t i = 0; i < run.traces.size(); ++i) {
    EXPECT_LE(run.delays[i], overlap_count(run.traces[i], i, run.traces))
        << "packet " << i;
  }
}

TEST(QueueLineLemma, HoldsForMeshThreeStage) {
  const topology::Mesh mesh(8, 8);
  const routing::MeshThreeStageRouter router(mesh);
  const TracedRun run =
      traced_permutation(mesh.graph(), router, mesh.node_count(), 5);
  ASSERT_TRUE(run.complete);
  for (std::size_t i = 0; i < run.traces.size(); ++i) {
    EXPECT_LE(run.delays[i], overlap_count(run.traces[i], i, run.traces))
        << "packet " << i;
  }
}

TEST(Nonrepeating, MeshThreeStagePathsAreNonrepeating) {
  // Stage-monotone XY-style paths satisfy Definition 2.1 pairwise.
  const topology::Mesh mesh(8, 8);
  const routing::MeshThreeStageRouter router(mesh);
  const TracedRun run =
      traced_permutation(mesh.graph(), router, mesh.node_count(), 7);
  ASSERT_TRUE(run.complete);
  for (std::size_t i = 0; i < run.traces.size(); ++i) {
    for (std::size_t j = i + 1; j < run.traces.size(); ++j) {
      EXPECT_TRUE(nonrepeating_pair(run.traces[i], run.traces[j]))
          << "packets " << i << " and " << j;
    }
  }
}

TEST(Trace, PathLengthsMatchRouterBounds) {
  const topology::StarGraph star(5);
  const routing::StarTwoPhaseRouter router(star);
  const TracedRun run =
      traced_permutation(star.graph(), router, star.node_count(), 11);
  ASSERT_TRUE(run.complete);
  for (const PacketTrace& trace : run.traces) {
    // Two greedy passes of at most diameter links each.
    EXPECT_LE(trace.link_count(), 2U * star.diameter());
  }
}

}  // namespace
}  // namespace levnet::sim
