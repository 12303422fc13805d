// Routing algorithm tests: every router delivers every workload to the
// right place, within the step bounds the theorems promise (with generous
// constants — these are correctness gates, not benchmarks), and the
// engine's one-packet-per-link rule shows up as bounded queues.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "routing/driver.hpp"
#include "routing/hypercube_router.hpp"
#include "routing/mesh_router.hpp"
#include "routing/shuffle_router.hpp"
#include "routing/star_router.hpp"
#include "routing/two_phase.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"
#include "topology/butterfly.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/shuffle.hpp"
#include "topology/star.hpp"

namespace levnet::routing {
namespace {

using sim::Workload;

RoutingOutcome route_permutation(const topology::Graph& graph,
                                 const Router& router, std::uint32_t endpoints,
                                 std::uint64_t seed,
                                 sim::EngineConfig config = {}) {
  support::Rng rng(seed);
  const Workload w = sim::permutation_workload(endpoints, rng);
  return run_workload(graph, router, w, config, rng);
}

// ---------------------------------------------------------------- butterfly

TEST(TwoPhaseButterfly, PermutationCompletesWithinBound) {
  const topology::WrappedButterfly bf(2, 6);  // 64 endpoints
  const TwoPhaseButterflyRouter router(bf);
  const RoutingOutcome outcome =
      route_permutation(bf.graph(), router, bf.row_count(), 17);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.delivered, bf.row_count());
  // Path length is exactly 2l; allow generous delay slack.
  EXPECT_GE(outcome.metrics.steps, 2 * bf.levels());
  EXPECT_LE(outcome.metrics.steps, 8 * bf.levels());
}

TEST(TwoPhaseButterfly, AllRadixesDeliver) {
  for (std::uint32_t d : {2U, 3U, 4U}) {
    const topology::WrappedButterfly bf(d, 3);
    const TwoPhaseButterflyRouter router(bf);
    const RoutingOutcome outcome =
        route_permutation(bf.graph(), router, bf.row_count(), 23);
    EXPECT_TRUE(outcome.complete) << "radix " << d;
  }
}

TEST(TwoPhaseButterfly, HRelationCompletes) {
  const topology::WrappedButterfly bf(2, 5);
  const TwoPhaseButterflyRouter router(bf);
  support::Rng rng(31);
  const Workload w = sim::h_relation_workload(bf.row_count(), 5, rng);
  const RoutingOutcome outcome =
      run_workload(bf.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.delivered, w.size());
}

TEST(UniquePathButterfly, DeterministicPathDelivers) {
  const topology::WrappedButterfly bf(2, 5);
  const UniquePathButterflyRouter router(bf);
  const RoutingOutcome outcome =
      route_permutation(bf.graph(), router, bf.row_count(), 37);
  EXPECT_TRUE(outcome.complete);
}

TEST(TwoPhaseButterfly, DeterministicGivenSeed) {
  const topology::WrappedButterfly bf(2, 5);
  const TwoPhaseButterflyRouter router(bf);
  const RoutingOutcome a =
      route_permutation(bf.graph(), router, bf.row_count(), 41);
  const RoutingOutcome b =
      route_permutation(bf.graph(), router, bf.row_count(), 41);
  EXPECT_EQ(a.metrics.steps, b.metrics.steps);
  EXPECT_EQ(a.metrics.total_hops, b.metrics.total_hops);
  EXPECT_EQ(a.metrics.max_link_queue, b.metrics.max_link_queue);
}

// --------------------------------------------------------------------- star

TEST(StarGreedy, PermutationDelivers) {
  const topology::StarGraph star(5);
  const StarGreedyRouter router(star);
  const RoutingOutcome outcome =
      route_permutation(star.graph(), router, star.node_count(), 43);
  EXPECT_TRUE(outcome.complete);
}

TEST(StarTwoPhase, PermutationCompletesWithinBound) {
  const topology::StarGraph star(6);  // 720 nodes, diameter 7
  const StarTwoPhaseRouter router(star);
  const RoutingOutcome outcome =
      route_permutation(star.graph(), router, star.node_count(), 47);
  EXPECT_TRUE(outcome.complete);
  // Theorem 2.2: O~(n); the two greedy passes walk at most 2 * diameter
  // links, delays add a small multiple.
  EXPECT_LE(outcome.metrics.steps, 8 * star.diameter());
}

TEST(StarTwoPhase, NRelationCompletes) {
  // Corollary 2.1: partial n-relations also finish in O~(n).
  const topology::StarGraph star(5);
  const StarTwoPhaseRouter router(star);
  support::Rng rng(53);
  const Workload w =
      sim::h_relation_workload(star.node_count(), star.symbols(), rng);
  const RoutingOutcome outcome = run_workload(star.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.delivered, w.size());
}

TEST(StarRouting, ManyOneDelivers) {
  const topology::StarGraph star(5);
  const StarTwoPhaseRouter router(star);
  support::Rng rng(59);
  const Workload w = sim::many_one_workload(star.node_count(), rng);
  const RoutingOutcome outcome = run_workload(star.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
}

// ------------------------------------------------------------------ shuffle

TEST(ShuffleUniquePath, PermutationDelivers) {
  const topology::DWayShuffle shuffle(4, 4);  // 256 nodes
  const ShuffleUniquePathRouter router(shuffle);
  const RoutingOutcome outcome =
      route_permutation(shuffle.graph(), router, shuffle.node_count(), 61);
  EXPECT_TRUE(outcome.complete);
}

TEST(ShuffleTwoPhase, PermutationCompletesWithinBound) {
  const topology::DWayShuffle shuffle = topology::DWayShuffle::n_way(4);
  const ShuffleTwoPhaseRouter router(shuffle);
  const RoutingOutcome outcome =
      route_permutation(shuffle.graph(), router, shuffle.node_count(), 67);
  EXPECT_TRUE(outcome.complete);
  // Theorem 2.3: O~(n) with path length exactly 2n.
  EXPECT_LE(outcome.metrics.steps, 10 * shuffle.route_length());
}

TEST(ShuffleTwoPhase, ConstantDigitNodesRouteCorrectly) {
  // Nodes 000..0 and 333..3 have self-loop shift links that the router
  // consumes in place; a permutation touching them must still deliver.
  const topology::DWayShuffle shuffle(4, 3);
  const ShuffleTwoPhaseRouter router(shuffle);
  support::Rng rng(71);
  Workload w;
  const std::uint32_t n = shuffle.node_count();
  for (std::uint32_t i = 0; i < n; ++i) w.push_back({i, n - 1 - i});
  const RoutingOutcome outcome =
      run_workload(shuffle.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
}

TEST(ShuffleTwoPhase, HRelationCompletes) {
  const topology::DWayShuffle shuffle = topology::DWayShuffle::n_way(3);
  const ShuffleTwoPhaseRouter router(shuffle);
  support::Rng rng(73);
  const Workload w =
      sim::h_relation_workload(shuffle.node_count(), shuffle.digits(), rng);
  const RoutingOutcome outcome =
      run_workload(shuffle.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
}

// --------------------------------------------------------------------- mesh

TEST(MeshThreeStage, PermutationCompletesWithin2nPlusLowerOrder) {
  const topology::Mesh mesh(16, 16);
  const MeshThreeStageRouter router(mesh);
  sim::EngineConfig config;
  config.discipline = sim::QueueDiscipline::kFurthestFirst;
  const RoutingOutcome outcome =
      route_permutation(mesh.graph(), router, mesh.node_count(), 79, config);
  EXPECT_TRUE(outcome.complete);
  // Theorem 3.1: 2n + o(n). At n = 16 the o(n) slack is still visible, so
  // gate at 3n.
  EXPECT_LE(outcome.metrics.steps, 3 * mesh.rows());
}

TEST(MeshThreeStage, StagesVisitSliceRowFirst) {
  const topology::Mesh mesh(8, 8);
  const MeshThreeStageRouter router(mesh, 2);
  EXPECT_EQ(router.slice_rows(), 2U);
  support::Rng rng(83);
  sim::Packet p;
  p.src = mesh.node_id(5, 1);
  p.dst = mesh.node_id(0, 6);
  router.prepare(p, rng, nullptr);
  // The random row must be inside the slice of row 5 (rows 4..5).
  const std::uint32_t random_row = mesh.row_of(p.intermediate);
  EXPECT_GE(random_row, 4U);
  EXPECT_LE(random_row, 5U);
}

TEST(MeshValiantBrebner, PermutationDelivers) {
  const topology::Mesh mesh(12, 12);
  const ValiantBrebnerMeshRouter router(mesh);
  const RoutingOutcome outcome =
      route_permutation(mesh.graph(), router, mesh.node_count(), 89);
  EXPECT_TRUE(outcome.complete);
}

TEST(MeshGreedyXY, PermutationDelivers) {
  const topology::Mesh mesh(12, 12);
  const GreedyXYMeshRouter router(mesh);
  const RoutingOutcome outcome =
      route_permutation(mesh.graph(), router, mesh.node_count(), 97);
  EXPECT_TRUE(outcome.complete);
}

TEST(MeshGreedyXY, TransposeDelivers) {
  // Transpose is permutation-legal and greedy XY handles it; the router
  // correctness gate, with the staged router as a cross-check.
  const topology::Mesh mesh(16, 16);
  const Workload w = sim::transpose_workload(16);
  const GreedyXYMeshRouter greedy(mesh);
  support::Rng rng(101);
  const RoutingOutcome outcome = run_workload(mesh.graph(), greedy, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
}

TEST(MeshThreeStage, BurstyRelationsBeatGreedyXY) {
  // Theorem 2.4's regime: h packets per source. Greedy XY sends a source's
  // whole burst down one row channel; stage-1 randomization spreads it
  // across the slice's rows, cutting the row-channel bottleneck — the
  // reason Section 3.4 randomizes within slices.
  const std::uint32_t n = 32;
  const topology::Mesh mesh(n, n);
  support::Rng rng_w(103);
  const Workload w = sim::h_relation_workload(n * n, 8, rng_w);

  const GreedyXYMeshRouter greedy(mesh);
  support::Rng rng_a(7);
  const RoutingOutcome greedy_outcome =
      run_workload(mesh.graph(), greedy, w, {}, rng_a);
  EXPECT_TRUE(greedy_outcome.complete);

  const MeshThreeStageRouter staged(mesh);
  support::Rng rng_b(7);
  sim::EngineConfig config;
  config.discipline = sim::QueueDiscipline::kFurthestFirst;
  const RoutingOutcome staged_outcome =
      run_workload(mesh.graph(), staged, w, config, rng_b);
  EXPECT_TRUE(staged_outcome.complete);

  EXPECT_LT(staged_outcome.metrics.steps, greedy_outcome.metrics.steps);
}

TEST(MeshThreeStage, LocalWorkloadFinishesInLocalTime) {
  // Theorem 3.3 regime: all requests within Manhattan distance d complete
  // in O(d), not O(n).
  const std::uint32_t n = 32;
  const std::uint32_t d = 4;
  const topology::Mesh mesh(n, n);
  const MeshThreeStageRouter router(mesh, /*slice_rows=*/2);
  support::Rng rng(103);
  const Workload w = sim::local_mesh_workload(n, d, rng);
  sim::EngineConfig config;
  config.discipline = sim::QueueDiscipline::kFurthestFirst;
  const RoutingOutcome outcome =
      run_workload(mesh.graph(), router, w, config, rng);
  EXPECT_TRUE(outcome.complete);
  EXPECT_LE(outcome.metrics.steps, 6 * d);  // well below the 2n scale
}

// ---------------------------------------------------------------- hypercube

TEST(HypercubeEcube, PermutationDelivers) {
  const topology::Hypercube cube(6);
  const EcubeRouter router(cube);
  const RoutingOutcome outcome =
      route_permutation(cube.graph(), router, cube.node_count(), 107);
  EXPECT_TRUE(outcome.complete);
}

TEST(HypercubeValiant, PermutationCompletesWithinBound) {
  const topology::Hypercube cube(8);
  const ValiantHypercubeRouter router(cube);
  const RoutingOutcome outcome =
      route_permutation(cube.graph(), router, cube.node_count(), 109);
  EXPECT_TRUE(outcome.complete);
  EXPECT_LE(outcome.metrics.steps, 8 * cube.dim());
}

// ------------------------------------------------- parameterized seed sweep

struct SweepParam {
  const char* network;
  std::uint64_t seed;
};

// Without a printer gtest shows the struct's raw bytes, so the `network`
// pointer (randomised by ASLR) would make the discovered test names differ
// from build to build.
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << '(' << param.network << ", " << param.seed << ')';
}

class RoutingSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RoutingSweep, PermutationAlwaysCompletes) {
  const SweepParam param = GetParam();
  const std::string net = param.network;
  if (net == "star") {
    const topology::StarGraph star(5);
    const StarTwoPhaseRouter router(star);
    EXPECT_TRUE(
        route_permutation(star.graph(), router, star.node_count(), param.seed)
            .complete);
  } else if (net == "shuffle") {
    const topology::DWayShuffle shuffle = topology::DWayShuffle::n_way(3);
    const ShuffleTwoPhaseRouter router(shuffle);
    EXPECT_TRUE(route_permutation(shuffle.graph(), router,
                                  shuffle.node_count(), param.seed)
                    .complete);
  } else if (net == "butterfly") {
    const topology::WrappedButterfly bf(2, 5);
    const TwoPhaseButterflyRouter router(bf);
    EXPECT_TRUE(
        route_permutation(bf.graph(), router, bf.row_count(), param.seed)
            .complete);
  } else {
    const topology::Mesh mesh(10, 10);
    const MeshThreeStageRouter router(mesh);
    EXPECT_TRUE(
        route_permutation(mesh.graph(), router, mesh.node_count(), param.seed)
            .complete);
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const char* net : {"star", "shuffle", "butterfly", "mesh"}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      params.push_back({net, seed});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, RoutingSweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param.network) +
                                  "_s" + std::to_string(suite_info.param.seed);
                         });

}  // namespace
}  // namespace levnet::routing
