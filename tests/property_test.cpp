// Property-style sweeps (parameterized over seeds): invariants that must
// hold for EVERY seed, not just the checked-in ones — link capacity,
// delivery completeness, emulation/reference memory equality, and the
// statistical stability of the routing-time bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "emulation/emulator.hpp"
#include "emulation/fabric.hpp"
#include "pram/algorithms/access_patterns.hpp"
#include "pram/algorithms/histogram.hpp"
#include "pram/reference.hpp"
#include "routing/driver.hpp"
#include "routing/mesh_router.hpp"
#include "routing/star_router.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "sim/workload.hpp"
#include "support/rng.hpp"
#include "topology/mesh.hpp"
#include "topology/star.hpp"

namespace levnet {
namespace {

// ------------------------------------------------- link capacity invariant

/// Wraps a handler and asserts the engine's core rule from Section 2.2:
/// at most one packet crosses any directed link per step. Landings at one
/// node per step are capped by its in-degree, and each (from, step) pair
/// must be unique per link.
class CapacityAuditTraffic final : public sim::TrafficHandler {
 public:
  CapacityAuditTraffic(sim::TrafficHandler& inner,
                       const topology::Graph& graph)
      : inner_(inner), graph_(graph) {}

  void on_packet(sim::Packet& p, sim::NodeId at, std::uint32_t step,
                 support::Rng& rng, std::vector<sim::Forward>& out) override {
    if (p.came_from != topology::kInvalidNode) {
      const topology::EdgeId e = graph_.edge_between(p.came_from, at);
      ASSERT_NE(e, topology::kInvalidEdge);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(e) << 32) | step;
      ASSERT_TRUE(crossings_.insert(key).second)
          << "two packets crossed edge " << e << " in step " << step;
    }
    inner_.on_packet(p, at, step, rng, out);
  }

  std::uint32_t priority(const sim::Packet& p,
                         sim::NodeId at) const override {
    return inner_.priority(p, at);
  }

 private:
  sim::TrafficHandler& inner_;
  const topology::Graph& graph_;
  std::set<std::uint64_t> crossings_;
};

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, LinkCapacityNeverViolatedOnMesh) {
  const topology::Mesh mesh(8, 8);
  const routing::MeshThreeStageRouter router(mesh);
  support::Rng rng(GetParam());
  const sim::Workload w = sim::permutation_workload(mesh.node_count(), rng);
  routing::RouterTraffic inner(router);
  inner.expect_packets(w.size());
  CapacityAuditTraffic audit(inner, mesh.graph());
  sim::SyncEngine engine(mesh.graph(), audit, {});
  std::uint32_t id = 0;
  for (const auto& demand : w) {
    sim::Packet p;
    p.id = id++;
    p.src = demand.source;
    p.dst = demand.destination;
    router.prepare(p, rng, nullptr);
    const topology::NodeId origin = p.src;
    engine.inject(std::move(p), origin, rng);
  }
  EXPECT_TRUE(engine.run(rng));
  EXPECT_TRUE(inner.all_at_destination());
}

TEST_P(SeedSweep, StarRoutingTimeStaysWithinTheoremBound) {
  // Theorem 2.2's O~(n): across seeds, permutation routing on star(5) must
  // stay under a fixed small multiple of n (failure probability of the
  // theorem's bound is polynomially small; a violation here means a code
  // regression, not bad luck).
  const topology::StarGraph star(5);
  const routing::StarTwoPhaseRouter router(star);
  support::Rng rng(GetParam());
  const sim::Workload w = sim::permutation_workload(star.node_count(), rng);
  const auto outcome = routing::run_workload(star.graph(), router, w, {}, rng);
  ASSERT_TRUE(outcome.complete);
  EXPECT_LE(outcome.metrics.steps, 6 * star.symbols());
}

TEST_P(SeedSweep, EmulationMemoryAlwaysMatchesReference) {
  const topology::Mesh mesh(5, 5);
  const routing::MeshThreeStageRouter router(mesh);
  const emulation::EmulationFabric fabric(mesh.graph(), router,
                                          mesh.diameter(), mesh.name());
  support::Rng rng(GetParam() * 31 + 7);
  std::vector<pram::Word> keys(25);
  for (auto& k : keys) k = static_cast<pram::Word>(rng.below(5));
  pram::HistogramCrcwSum program(keys, 5);

  pram::SharedMemory reference_memory;
  pram::ReferencePram::for_program(program).run(program, reference_memory);
  program.reset();

  emulation::EmulatorConfig config;
  config.combining = (GetParam() % 2) == 0;  // alternate modes across seeds
  config.seed = GetParam();
  emulation::NetworkEmulator emulator(fabric, config);
  pram::SharedMemory emulated;
  emulator.run(program, emulated);
  EXPECT_TRUE(reference_memory == emulated);
  EXPECT_TRUE(program.validate(emulated));
}

TEST_P(SeedSweep, HotSpotCombiningAlwaysAnswersEveryReader) {
  const topology::StarGraph star(4);
  const routing::StarTwoPhaseRouter router(star);
  const emulation::EmulationFabric fabric(star.graph(), router,
                                          star.diameter(), star.name());
  pram::HotSpotReadTraffic program(star.node_count(), 2, 4242);
  emulation::EmulatorConfig config;
  config.combining = true;
  config.seed = GetParam();
  emulation::NetworkEmulator emulator(fabric, config);
  pram::SharedMemory memory;
  const auto report = emulator.run(program, memory);
  EXPECT_TRUE(program.validate(memory));  // every reader saw the sentinel
  EXPECT_GT(report.combined_requests, 0U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<std::uint64_t>(1, 13),
                         [](const auto& suite_info) {
                           return "seed" + std::to_string(suite_info.param);
                         });

// ----------------------------------------------- workload-space properties

class WorkloadSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(WorkloadSweep, PartialPermutationsAlwaysRoute) {
  const auto [seed, density] = GetParam();
  const topology::Mesh mesh(8, 8);
  const routing::MeshThreeStageRouter router(mesh);
  support::Rng rng(seed);
  const sim::Workload w =
      sim::partial_permutation_workload(mesh.node_count(), density, rng);
  const auto outcome = routing::run_workload(mesh.graph(), router, w, {}, rng);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.delivered, w.size());
}

INSTANTIATE_TEST_SUITE_P(
    Densities, WorkloadSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3),
                       ::testing::Values(0.0, 0.25, 0.5, 1.0)),
    [](const auto& suite_info) {
      // Built with += rather than an operator+ chain: GCC 12's -Wrestrict
      // false-fires on `const char* + std::string&&` (GCC PR105329).
      std::string name = "s";
      name += std::to_string(std::get<0>(suite_info.param));
      name += "_d";
      name +=
          std::to_string(static_cast<int>(std::get<1>(suite_info.param) * 100));
      return name;
    });

}  // namespace
}  // namespace levnet
