// Fault-injection subsystem tests (src/faults/).
//
// Three layers are pinned here:
//   * the plan/injector mechanics — deterministic sampling, endpoint
//     protection, connectivity preservation, epoch replay, the graph
//     liveness mask and the survivor remap;
//   * the engine's degraded mode — forwards detour around dead links via
//     TrafficHandler::on_fault, stranded queues are evacuated, drops are
//     counted, and a zero-fault overlay is perfectly inert;
//   * end-to-end degraded emulation — PRAM programs (prefix sum,
//     histogram, odd-even sort) still produce reference-identical final
//     memory under <=10% dead links/modules/processors on multiple
//     topologies, EREW and CRCW-combining, with fault trials bit-identical
//     across thread counts. Processor faults are compound (endpoint node +
//     co-located module + program slot) and survivors adopt the dead slots
//     through a seed-derived remap. Degraded machines are assembled from MachineSpecs
//     (machine/machine.hpp): the run seed derives plan and emulator
//     stream together, and one shared machine serves every fault trial —
//     each run owns its injector and liveness mask, never the graph.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trials.hpp"
#include "emulation/emulator.hpp"
#include "emulation/fabric.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "hashing/exclusion.hpp"
#include "machine/machine.hpp"
#include "machine/run_io.hpp"
#include "machine/spec.hpp"
#include "pram/algorithms/access_patterns.hpp"
#include "pram/algorithms/histogram.hpp"
#include "pram/algorithms/prefix_sum.hpp"
#include "pram/algorithms/sorting.hpp"
#include "pram/reference.hpp"
#include "routing/star_router.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "topology/butterfly.hpp"
#include "topology/linear_array.hpp"
#include "topology/liveness.hpp"
#include "topology/shuffle.hpp"
#include "topology/star.hpp"

namespace levnet::faults {
namespace {

using pram::SharedMemory;
using pram::Word;
using topology::EdgeId;
using topology::NodeId;

std::vector<Word> random_words(std::size_t n, std::uint64_t seed,
                               std::uint64_t bound = 1000) {
  support::Rng rng(seed);
  std::vector<Word> v(n);
  for (auto& w : v) w = static_cast<Word>(rng.below(bound));
  return v;
}

std::size_t count_kind(const FaultPlan& plan, FaultKind kind) {
  std::size_t n = 0;
  for (const FaultEvent& e : plan.events()) n += e.kind == kind ? 1 : 0;
  return n;
}

/// The plan machine `m` applies on a run with its spec seed.
FaultPlan plan_of(const machine::Machine& m) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(m.fault_plan(m.spec().seed, plan, error)) << error;
  return plan;
}

// ------------------------------------------------------------ plan layer

TEST(FaultPlan, SamplingIsDeterministicInSeedAndSpec) {
  const topology::StarGraph star(5);
  FaultSpec spec;
  spec.link_fraction = 0.10;
  spec.module_fraction = 0.10;
  const FaultPlan a =
      FaultPlan::sample(star.graph(), star.node_count(), star.node_count(),
                        spec, 42);
  const FaultPlan b =
      FaultPlan::sample(star.graph(), star.node_count(), star.node_count(),
                        spec, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
  }
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(count_kind(a, FaultKind::kNode), 0U);  // fraction 0
  // ~10% of the 240 physical links and of the 120 modules.
  EXPECT_EQ(count_kind(a, FaultKind::kLink) + a.skipped_for_connectivity(),
            24U);
  EXPECT_EQ(count_kind(a, FaultKind::kModule), 12U);

  const FaultPlan other =
      FaultPlan::sample(star.graph(), star.node_count(), star.node_count(),
                        spec, 43);
  bool identical = other.events().size() == a.events().size();
  for (std::size_t i = 0; identical && i < a.events().size(); ++i) {
    identical = a.events()[i].id == other.events()[i].id;
  }
  EXPECT_FALSE(identical) << "different seeds drew the same plan";
}

TEST(FaultPlan, NodeFaultsSpareEndpointsAndKeepThemConnected) {
  topology::WrappedButterfly bf(2, 4);  // 16 rows x 4 columns
  const std::uint32_t endpoints = bf.row_count();
  FaultSpec spec;
  spec.node_fraction = 0.20;
  spec.link_fraction = 0.10;
  const FaultPlan plan =
      FaultPlan::sample(bf.graph(), endpoints, endpoints, spec, 7);
  EXPECT_GT(count_kind(plan, FaultKind::kNode), 0U);
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kNode) {
      EXPECT_GE(e.id, endpoints);
    }
  }

  // Apply everything and verify all endpoints still reach each other.
  FaultInjector injector(bf.graph(), endpoints, plan);
  injector.advance_to(~0U);
  const topology::Graph& g = bf.graph();
  const topology::Liveness& live = injector.liveness();
  std::vector<std::uint8_t> seen(g.node_count(), 0);
  std::vector<NodeId> queue{0};
  seen[0] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (std::uint32_t k = 0; k < g.out_degree(u); ++k) {
      const EdgeId e = g.out_edge(u, k);
      if (!live.edge_live(e)) continue;
      const NodeId v = g.edge_head(e);
      if (!seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  for (NodeId v = 0; v < endpoints; ++v) {
    EXPECT_TRUE(seen[v]) << "endpoint " << v << " cut off";
  }
}

TEST(FaultPlan, ConnectivityGuardRejectsEveryCutOfALine) {
  // On a line every link is a bridge between endpoints, so a
  // connectivity-preserving plan must reject every candidate.
  const topology::LinearArray line(16);
  FaultSpec spec;
  spec.link_fraction = 0.5;
  const FaultPlan plan =
      FaultPlan::sample(line.graph(), line.node_count(), line.node_count(),
                        spec, 3);
  EXPECT_EQ(count_kind(plan, FaultKind::kLink), 0U);
  EXPECT_EQ(plan.skipped_for_connectivity(), 15U);  // every physical link
}

TEST(FaultPlan, ProcSamplingIsDeterministicAndKillsOnlyProcessors) {
  const topology::StarGraph star(5);
  FaultSpec spec;
  spec.proc_fraction = 0.25;
  spec.module_fraction = 0.10;
  const FaultPlan a = FaultPlan::sample(star.graph(), star.node_count(),
                                        star.node_count(), spec, 42);
  const FaultPlan b = FaultPlan::sample(star.graph(), star.node_count(),
                                        star.node_count(), spec, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].epoch, b.events()[i].epoch);
  }
  // 25% of the 120 processors, met exactly (the guard found enough
  // acceptable kills on the richly-connected star), every victim an
  // endpoint id, and proc kills sorted ahead of everything else so the
  // injector sees the implied node/module deaths before later kinds land.
  EXPECT_EQ(count_kind(a, FaultKind::kProc), 30U);
  EXPECT_EQ(a.events().front().kind, FaultKind::kProc);
  std::vector<std::uint8_t> proc_dead(star.node_count(), 0);
  for (const FaultEvent& e : a.events()) {
    if (e.kind == FaultKind::kProc) {
      EXPECT_LT(e.id, star.node_count());
      proc_dead[e.id] = 1;
    }
  }
  // The module quota is still ~10% of all modules, but never names a
  // module that already died with its co-located processor.
  EXPECT_EQ(count_kind(a, FaultKind::kModule), 12U);
  for (const FaultEvent& e : a.events()) {
    if (e.kind == FaultKind::kModule) {
      EXPECT_EQ(proc_dead[e.id], 0);
    }
  }
}

TEST(FaultPlan, ProcFaultsLeaveSurvivorEndpointsConnected) {
  topology::WrappedButterfly bf(2, 4);
  const std::uint32_t endpoints = bf.row_count();
  FaultSpec spec;
  spec.proc_fraction = 0.25;
  spec.link_fraction = 0.05;
  const FaultPlan plan =
      FaultPlan::sample(bf.graph(), endpoints, endpoints, spec, 9);
  EXPECT_GT(count_kind(plan, FaultKind::kProc), 0U);

  FaultInjector injector(bf.graph(), endpoints, plan);
  injector.advance_to(~0U);
  const topology::Graph& g = bf.graph();
  const topology::Liveness& live = injector.liveness();
  // BFS from the first live endpoint over the degraded graph: every
  // surviving endpoint must still be reachable; dead ones owe nothing and
  // must have taken all their incident links down with them.
  NodeId root = topology::kInvalidNode;
  for (NodeId v = 0; v < endpoints; ++v) {
    if (live.node_live(v)) {
      root = v;
      break;
    }
  }
  ASSERT_NE(root, topology::kInvalidNode);
  std::vector<std::uint8_t> seen(g.node_count(), 0);
  std::vector<NodeId> queue{root};
  seen[root] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (std::uint32_t k = 0; k < g.out_degree(u); ++k) {
      const EdgeId e = g.out_edge(u, k);
      if (!live.edge_live(e)) continue;
      const NodeId v = g.edge_head(e);
      if (!seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  for (NodeId v = 0; v < endpoints; ++v) {
    if (live.node_live(v)) {
      EXPECT_TRUE(seen[v]) << "survivor endpoint " << v << " cut off";
    } else {
      EXPECT_EQ(live.live_out_degree(v), 0U)
          << "dead proc " << v << " kept a live link";
    }
  }
}

TEST(FaultPlanDeathTest, ImpossibleProcQuotaDiesWithANamedError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // On a line only the two current end processors are ever killable and a
  // rejected interior candidate is never retried, so a 90% quota is out of
  // reach. Under procs= that under-fill is a configuration error with a
  // named message, not a silently smaller plan.
  const topology::LinearArray line(16);
  FaultSpec spec;
  spec.proc_fraction = 0.9;
  EXPECT_DEATH(
      {
        (void)FaultPlan::sample(line.graph(), line.node_count(),
                                line.node_count(), spec, 3);
      },
      "procs= fraction unsatisfiable");
}

TEST(FaultPlanDeathTest, ProcAndLinkQuotasJointlyUnsatisfiableDieNamed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Every surviving link of a line is a bridge, so after the processor
  // kill the guard rejects every link candidate. Link-only plans under-fill
  // silently (pinned above); with procs= in play the conflict is named.
  const topology::LinearArray line(8);
  FaultSpec spec;
  spec.proc_fraction = 0.2;  // one endpoint dies
  spec.link_fraction = 0.5;
  EXPECT_DEATH(
      {
        (void)FaultPlan::sample(line.graph(), line.node_count(),
                                line.node_count(), spec, 3);
      },
      "jointly unsatisfiable");
}

TEST(FaultPlan, UnsatisfiableQuotaIsAnErrorValue) {
  // The error-returning overload reports what the 5-argument form dies
  // with; front ends turn it into a per-request / per-trial error.
  const topology::LinearArray line(16);
  FaultSpec spec;
  spec.proc_fraction = 0.9;
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::sample(line.graph(), line.node_count(),
                                 line.node_count(), spec, 3, plan, error));
  EXPECT_NE(error.find("procs= fraction unsatisfiable"), std::string::npos)
      << error;
}

TEST(GraphLiveness, MaskSemantics) {
  topology::StarGraph star(4);
  const topology::Graph& g = star.graph();
  topology::Liveness live(g);
  EXPECT_FALSE(live.has_faults());
  ASSERT_GT(g.edge_count(), 0U);
  const EdgeId e = 0;
  const EdgeId rev = g.reverse_edge(e);
  ASSERT_NE(rev, topology::kInvalidEdge);
  live.kill_link(e);
  EXPECT_TRUE(live.has_faults());
  EXPECT_FALSE(live.edge_live(e));
  EXPECT_FALSE(live.edge_live(rev));
  EXPECT_EQ(live.dead_edge_count(), 2U);

  const NodeId victim = g.edge_head(e) == 0 ? g.edge_tail(e) : g.edge_head(e);
  const std::uint32_t before = live.live_out_degree(victim);
  std::vector<EdgeId> killed;
  live.kill_node(victim, &killed);
  EXPECT_FALSE(live.node_live(victim));
  EXPECT_EQ(live.live_out_degree(victim), 0U);
  EXPECT_GT(before, 0U);
  // Every edge into the dead node died too; the link killed above was
  // already dead, so it is not in the node's undo list.
  for (EdgeId edge = 0; edge < g.edge_count(); ++edge) {
    if (g.edge_head(edge) == victim || g.edge_tail(edge) == victim) {
      EXPECT_FALSE(live.edge_live(edge));
    }
  }
  EXPECT_EQ(killed.size() + 2, live.dead_edge_count());

  // Undo (the sampler's rejected candidates) restores exactly the prior
  // state: the node and its edges live again, the older link cut stays.
  live.revive_node(victim, killed);
  EXPECT_TRUE(live.node_live(victim));
  EXPECT_EQ(live.dead_edge_count(), 2U);
  EXPECT_FALSE(live.edge_live(e));
  live.revive_link(e);
  EXPECT_FALSE(live.has_faults());
  EXPECT_TRUE(live.edge_live(rev));

  live.kill_node(victim);
  live.revive_all();
  EXPECT_FALSE(live.has_faults());
  EXPECT_TRUE(live.edge_live(e));
  EXPECT_TRUE(live.node_live(victim));
  EXPECT_EQ(live.dead_edge_count(), 0U);
  EXPECT_EQ(live.dead_node_count(), 0U);
}

TEST(ExclusionRemap, RedirectsDeadBucketsOntoSurvivors) {
  std::vector<std::uint8_t> live(10, 1);
  live[2] = live[7] = live[9] = 0;
  const hashing::ExclusionRemap remap = hashing::ExclusionRemap::build(live, 5);
  EXPECT_FALSE(remap.identity());
  EXPECT_EQ(remap.excluded(), 3U);
  for (std::uint32_t b = 0; b < live.size(); ++b) {
    const std::uint32_t target = remap(b);
    EXPECT_TRUE(live[target]) << "bucket " << b << " remapped to dead "
                              << target;
    if (live[b]) {
      EXPECT_EQ(target, b);
    }
  }
  const hashing::ExclusionRemap again = hashing::ExclusionRemap::build(live, 5);
  for (std::uint32_t b = 0; b < live.size(); ++b) EXPECT_EQ(remap(b), again(b));

  const hashing::ExclusionRemap identity =
      hashing::ExclusionRemap::build(std::vector<std::uint8_t>(4, 1), 5);
  EXPECT_TRUE(identity.identity());
  EXPECT_EQ(identity(3), 3U);
}

TEST(FaultInjector, EpochAdvanceAndReplay) {
  topology::StarGraph star(4);
  FaultSpec spec;
  spec.link_fraction = 0.15;
  spec.module_fraction = 0.2;
  spec.onset_epochs = 3;
  const FaultPlan plan = FaultPlan::sample(
      star.graph(), star.node_count(), star.node_count(), spec, 11);
  ASSERT_FALSE(plan.empty());

  FaultInjector injector(star.graph(), star.node_count(), plan);
  std::uint32_t applied_total = 0;
  for (std::uint32_t epoch = 0; epoch < spec.onset_epochs; ++epoch) {
    const FaultInjector::Applied applied = injector.advance_to(epoch);
    applied_total += applied.links + applied.nodes + applied.modules;
  }
  EXPECT_EQ(applied_total, plan.events().size());
  const std::uint32_t links_first = injector.dead_links();
  const std::uint32_t modules_first = injector.dead_modules();
  EXPECT_GT(links_first + modules_first, 0U);
  // Every dead module remaps to a live one.
  for (std::uint32_t m = 0; m < star.node_count(); ++m) {
    EXPECT_TRUE(injector.module_live(injector.remap_module(m)));
  }

  injector.reset();
  EXPECT_FALSE(injector.liveness().has_faults());
  EXPECT_EQ(injector.dead_links(), 0U);
  injector.advance_to(spec.onset_epochs);
  EXPECT_EQ(injector.dead_links(), links_first);
  EXPECT_EQ(injector.dead_modules(), modules_first);
}

TEST(FaultInjector, ProcDeathIsCompoundAndSurvivorsAdoptDeterministically) {
  topology::StarGraph star(4);
  FaultSpec spec;
  spec.proc_fraction = 0.3;
  const FaultPlan plan = FaultPlan::sample(
      star.graph(), star.node_count(), star.node_count(), spec, 17);
  const std::size_t dead = count_kind(plan, FaultKind::kProc);
  ASSERT_GT(dead, 0U);

  FaultInjector injector(star.graph(), star.node_count(), plan);
  injector.advance_to(~0U);
  EXPECT_EQ(injector.dead_procs(), dead);
  std::vector<std::uint32_t> adoption(star.node_count());
  for (std::uint32_t p = 0; p < star.node_count(); ++p) {
    const std::uint32_t host = injector.adopt_proc(p);
    adoption[p] = host;
    EXPECT_TRUE(injector.proc_live(host))
        << "slot " << p << " adopted by dead " << host;
    if (injector.proc_live(p)) {
      EXPECT_EQ(host, p);  // live processors keep their own slot
    } else {
      EXPECT_NE(host, p);
      // The compound fault: the endpoint node and the co-located module
      // died with the processor.
      EXPECT_FALSE(injector.liveness().node_live(p));
      EXPECT_FALSE(injector.module_live(p));
    }
  }

  injector.reset();
  EXPECT_EQ(injector.dead_procs(), 0U);
  for (std::uint32_t p = 0; p < star.node_count(); ++p) {
    EXPECT_TRUE(injector.proc_live(p));
    EXPECT_EQ(injector.adopt_proc(p), p);
  }
  injector.advance_to(~0U);
  for (std::uint32_t p = 0; p < star.node_count(); ++p) {
    EXPECT_EQ(injector.adopt_proc(p), adoption[p]) << "replay diverged";
  }
}

// ----------------------------------------------------- engine fault hook

/// Three-node clique handler: data packets walk 0 -> 1 -> 2 unless a fault
/// forces the scenic route 1 -> 0 -> 2.
struct DetourHandler final : sim::TrafficHandler {
  bool offer_detour = false;
  bool rerouted = false;

  void on_packet(sim::Packet& p, NodeId at, std::uint32_t, support::Rng&,
                 std::vector<sim::Forward>& out) override {
    if (at == p.dst) return;  // consumed
    const NodeId next = (rerouted && at == 0) ? p.dst
                        : at == 0             ? 1
                                              : p.dst;
    out.push_back(sim::Forward{next, 0});
  }

  NodeId on_fault(sim::Packet&, NodeId, NodeId, support::Rng&) override {
    if (!offer_detour) return topology::kInvalidNode;
    rerouted = true;
    return 0;  // back up, then go direct
  }
};

topology::Graph clique3() {
  return topology::Graph::from_edges(
      3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}});
}

TEST(EngineFaults, StrandedQueueIsDroppedWithoutADetour) {
  const topology::Graph g = clique3();
  topology::Liveness live(g);
  DetourHandler handler;
  sim::SyncEngine engine(g, handler, {}, &live);
  support::Rng rng(1);

  sim::Packet p;
  p.src = 0;
  p.dst = 2;
  engine.inject(p, 0, rng);
  ASSERT_EQ(engine.step(rng), 1U);  // crossed 0->1; now queued on 1->2
  live.kill_link(g.edge_between(1, 2));
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.metrics().dropped, 1U);
  EXPECT_EQ(engine.metrics().detours, 0U);
  EXPECT_EQ(engine.in_flight(), 0U);  // dropped packets release their slot
}

TEST(EngineFaults, StrandedQueueEvacuatesThroughOnFault) {
  const topology::Graph g = clique3();
  topology::Liveness live(g);
  DetourHandler handler;
  handler.offer_detour = true;
  sim::SyncEngine engine(g, handler, {}, &live);
  support::Rng rng(1);

  sim::Packet p;
  p.src = 0;
  p.dst = 2;
  engine.inject(p, 0, rng);
  ASSERT_EQ(engine.step(rng), 1U);
  live.kill_link(g.edge_between(1, 2));
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.metrics().dropped, 0U);
  EXPECT_EQ(engine.metrics().detours, 1U);
  EXPECT_EQ(engine.metrics().consumed, 1U);
}

TEST(EngineFaults, FreshForwardsDetourAroundADeadLink) {
  const topology::Graph g = clique3();
  topology::Liveness live(g);
  live.kill_link(g.edge_between(1, 2));  // dead before anything moves
  DetourHandler handler;
  handler.offer_detour = true;
  sim::SyncEngine engine(g, handler, {}, &live);
  support::Rng rng(1);

  sim::Packet p;
  p.src = 0;
  p.dst = 2;
  engine.inject(p, 0, rng);  // 0 -> 1 is live; the forward out of 1 detours
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.metrics().detours, 1U);
  EXPECT_EQ(engine.metrics().dropped, 0U);
  EXPECT_EQ(engine.metrics().consumed, 1U);
}

TEST(EngineFaults, ProcessorNodeDeathWithPacketsInFlightStaysConsistent) {
  // A processor endpoint dies while a packet sits queued on its outgoing
  // link. The handler offers detours, but every edge incident to the dead
  // node is gone, so try_detour can never negotiate an escape: the packet
  // is dropped (and counted), its slot released, and the engine runs to
  // quiescence instead of wedging on a dead queue.
  const topology::Graph g = clique3();
  topology::Liveness live(g);
  DetourHandler handler;
  handler.offer_detour = true;
  sim::SyncEngine engine(g, handler, {}, &live);
  support::Rng rng(1);

  sim::Packet p;
  p.src = 0;
  p.dst = 2;
  engine.inject(p, 0, rng);
  ASSERT_EQ(engine.step(rng), 1U);  // crossed 0->1; now queued on 1->2
  live.kill_node(1);                   // the node hosting the queue dies
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.metrics().dropped, 1U);
  EXPECT_EQ(engine.metrics().consumed, 0U);
  EXPECT_EQ(engine.in_flight(), 0U);
}

// ----------------------------------------------- degraded-mode emulation

/// Spec for a degraded machine: the fault fractions ride the spec, the
/// seed derives plan and emulator stream together, and the rehash escape
/// hatch is live (budget=64 — transient detour storms can blow a step
/// budget, and a fresh hash plus a doubled budget is the paper's way out).
machine::MachineSpec degraded_spec(const std::string& topology, double links,
                                   double nodes, double modules,
                                   bool combining, std::uint64_t seed,
                                   double procs = 0.0) {
  machine::MachineSpec spec =
      machine::parse_spec(topology + "/two-phase/budget=64");
  if (combining) spec.mode = machine::Mode::kCrcwCombining;
  spec.faults.links = links;
  spec.faults.nodes = nodes;
  spec.faults.modules = modules;
  spec.faults.procs = procs;
  spec.seed = seed;
  return spec;
}

machine::MachineSpec ten_percent_links_and_modules(const std::string& topology,
                                                   bool combining,
                                                   std::uint64_t seed) {
  return degraded_spec(topology, 0.10, 0.0, 0.10, combining, seed);
}

machine::MachineSpec ten_percent_procs(const std::string& topology,
                                       bool combining, std::uint64_t seed) {
  return degraded_spec(topology, 0.0, 0.0, 0.0, combining, seed, 0.10);
}

/// Reference run, then a degraded emulation of the same program on the
/// spec-built machine; final memory must match bit for bit and the run
/// must complete.
void expect_degraded_matches(pram::PramProgram& program,
                             const machine::MachineSpec& spec) {
  SharedMemory reference_memory;
  pram::ReferencePram::for_program(program).run(program, reference_memory);
  program.reset();

  machine::Machine m = machine::Machine::build(spec);
  SharedMemory memory;
  const emulation::EmulationReport report = m.run(program, memory);

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.dropped_packets, 0U);  // connectivity-preserving plan
  EXPECT_TRUE(reference_memory == memory) << "degraded memory mismatch";
  EXPECT_TRUE(program.validate(memory));
}

TEST(DegradedEmulation, PrefixSumOnStarUnderLinkAndModuleFaults) {
  pram::PrefixSumErew program(random_words(24, 41));
  expect_degraded_matches(program,
                          ten_percent_links_and_modules("star:5", false, 0xFA01));
}

TEST(DegradedEmulation, OddEvenSortOnStarUnderLinkAndModuleFaults) {
  pram::OddEvenSortErew program(random_words(16, 99));
  expect_degraded_matches(program,
                          ten_percent_links_and_modules("star:5", false, 0xFA02));
}

TEST(DegradedEmulation, HistogramCrcwOnStarUnderLinkAndModuleFaults) {
  pram::HistogramCrcwSum program(random_words(20, 42, 4), 4);
  expect_degraded_matches(program,
                          ten_percent_links_and_modules("star:5", true, 0xFA03));
}

TEST(DegradedEmulation, PrefixSumOnShuffleUnderLinkAndModuleFaults) {
  pram::PrefixSumErew program(random_words(24, 41));
  expect_degraded_matches(
      program, ten_percent_links_and_modules("nshuffle:3", false, 0xFA04));
}

TEST(DegradedEmulation, OddEvenSortOnShuffleUnderLinkAndModuleFaults) {
  pram::OddEvenSortErew program(random_words(16, 98));
  expect_degraded_matches(
      program, ten_percent_links_and_modules("nshuffle:3", false, 0xFA05));
}

TEST(DegradedEmulation, HistogramCrcwOnShuffleUnderLinkAndModuleFaults) {
  pram::HistogramCrcwSum program(random_words(20, 43, 4), 4);
  expect_degraded_matches(
      program, ten_percent_links_and_modules("nshuffle:3", true, 0xFA06));
}

TEST(DegradedEmulation, ButterflySurvivesInteriorNodeFaults) {
  // Interior switches only (endpoints protected).
  const machine::MachineSpec spec =
      degraded_spec("butterfly:4", 0.05, 0.10, 0.0, false, 0xFA07);
  const machine::Machine m = machine::Machine::build(spec);
  EXPECT_GT(count_kind(plan_of(m), FaultKind::kNode), 0U);
  pram::PrefixSumErew program(random_words(16, 40));
  expect_degraded_matches(program, spec);
}

TEST(DegradedEmulation, PrefixSumOnStarUnderProcFaults) {
  pram::PrefixSumErew program(random_words(24, 45));
  expect_degraded_matches(program, ten_percent_procs("star:5", false, 0xFA10));
}

TEST(DegradedEmulation, OddEvenSortOnShuffleUnderProcFaults) {
  pram::OddEvenSortErew program(random_words(16, 97));
  expect_degraded_matches(program,
                          ten_percent_procs("nshuffle:3", false, 0xFA11));
}

TEST(DegradedEmulation, HistogramCrcwOnButterflyUnderProcFaults) {
  // 16 values: butterfly:4 has 16 processor rows.
  pram::HistogramCrcwSum program(random_words(16, 44, 4), 4);
  expect_degraded_matches(program,
                          ten_percent_procs("butterfly:4", true, 0xFA12));
}

TEST(DegradedEmulation, ProcLinkAndModuleFaultsComposeOnStar) {
  const machine::MachineSpec spec =
      degraded_spec("star:5", 0.05, 0.0, 0.10, false, 0xFA13, 0.10);
  const machine::Machine m = machine::Machine::build(spec);
  const FaultPlan plan = plan_of(m);
  EXPECT_GT(count_kind(plan, FaultKind::kProc), 0U);
  EXPECT_GT(count_kind(plan, FaultKind::kLink), 0U);
  EXPECT_GT(count_kind(plan, FaultKind::kModule), 0U);
  pram::PrefixSumErew program(random_words(24, 46));
  expect_degraded_matches(program, spec);
}

TEST(DegradedEmulation, SurvivorsAdoptDeadSlotsAndReportTheOverhead) {
  const machine::MachineSpec spec = ten_percent_procs("star:4", false, 0xFA14);
  pram::PrefixSumErew program(random_words(24, 47));
  expect_degraded_matches(program, spec);

  machine::Machine m = machine::Machine::build(spec);
  pram::PrefixSumErew replay(random_words(24, 47));
  const emulation::EmulationReport report = m.run(replay);
  EXPECT_GT(report.dead_procs, 0U);
  // Static faults are live from the first PRAM step, so the adopted-slot
  // integral is exactly dead slots x steps.
  EXPECT_EQ(report.adopted_slot_steps,
            std::uint64_t{report.dead_procs} * report.pram_steps);
}

TEST(DegradedEmulation, TimeTriggeredFaultsLandAcrossEpochs) {
  machine::MachineSpec spec =
      ten_percent_links_and_modules("star:5", false, 0xFA08);
  spec.faults.onset_epochs = 4;  // faults fall during the program
  pram::PrefixSumErew program(random_words(24, 44));
  expect_degraded_matches(program, spec);

  const machine::Machine m = machine::Machine::build(spec);
  pram::PrefixSumErew replay(random_words(24, 44));
  const emulation::EmulationReport report = m.run(replay);
  EXPECT_EQ(report.dead_links + report.dead_modules + report.dead_nodes,
            plan_of(m).events().size());
}

TEST(DegradedEmulation, OnsetProcDeathsLandMidProgram) {
  machine::MachineSpec spec = ten_percent_procs("star:5", false, 0xFA15);
  spec.faults.onset_epochs = 4;  // processors die while the program runs
  pram::PrefixSumErew program(random_words(24, 48));
  expect_degraded_matches(program, spec);

  const machine::Machine m = machine::Machine::build(spec);
  const FaultPlan plan = plan_of(m);
  bool staggered = false;
  for (const FaultEvent& e : plan.events()) {
    staggered = staggered || (e.kind == FaultKind::kProc && e.epoch > 0);
  }
  ASSERT_TRUE(staggered) << "every proc death drew epoch 0";
  pram::PrefixSumErew replay(random_words(24, 48));
  const emulation::EmulationReport report = m.run(replay);
  EXPECT_GT(report.dead_procs, 0U);
  EXPECT_GT(report.adopted_slot_steps, 0U);
  // At least one death landed after the first epoch, so the adoption
  // integral is strictly below every-slot-dead-from-step-one.
  EXPECT_LT(report.adopted_slot_steps,
            std::uint64_t{report.dead_procs} * report.pram_steps);
}

// Fault state is per-run and indexed by edge/node id over an immutable
// shape, so an injector built over any graph of the fabric's shape is the
// same input as one built over the fabric's own graph: there is no
// binding for the emulator to get wrong.
TEST(DegradedEmulation, InjectorOverAnEqualShapedGraphIsTheSameInput) {
  const topology::StarGraph fabric_star(4);
  const topology::StarGraph other_star(4);  // same shape, other instance
  const routing::StarTwoPhaseRouter router(fabric_star);
  const emulation::EmulationFabric fab(fabric_star.graph(), router,
                                       fabric_star.diameter(),
                                       fabric_star.name());
  FaultSpec spec;
  spec.link_fraction = 0.10;
  const std::uint32_t n = fabric_star.node_count();
  const FaultPlan plan = FaultPlan::sample(fabric_star.graph(), n, n, spec, 5);
  ASSERT_FALSE(plan.empty());
  const auto run = [&](const topology::Graph& graph) {
    FaultInjector injector(graph, n, plan);
    emulation::EmulatorConfig config;
    config.step_budget_factor = 64;
    config.faults = &injector;
    emulation::NetworkEmulator emulator(fab, config);
    pram::PermutationTraffic program(n, 2, 0xB0B);
    SharedMemory memory;
    return emulator.run(program, memory);
  };
  const emulation::EmulationReport own = run(fabric_star.graph());
  const emulation::EmulationReport other = run(other_star.graph());
  EXPECT_EQ(own.step_costs, other.step_costs);
  EXPECT_EQ(own.detour_hops, other.detour_hops);
  EXPECT_EQ(own.dead_links, other.dead_links);
  EXPECT_GT(own.dead_links, 0U);
}

TEST(DegradedEmulation, EmptyPlanIsBitIdenticalToNoInjector) {
  // The golden suite pins fault-free behaviour against recorded fixtures;
  // this pins the stronger claim that *attaching* an empty plan changes
  // nothing either.
  const auto run = [](bool attach_injector) {
    topology::StarGraph star(5);
    routing::StarTwoPhaseRouter router(star);
    emulation::EmulationFabric fab(star.graph(), router, star.diameter(),
                                   star.name());
    FaultPlan plan;  // empty
    FaultInjector injector(star.graph(), star.node_count(), plan);
    pram::PermutationTraffic program(star.node_count(), 3, 0xA11CE);
    emulation::EmulatorConfig config;
    config.seed = 0x901de2;
    config.combining = true;
    if (attach_injector) config.faults = &injector;
    emulation::NetworkEmulator emulator(fab, config);
    SharedMemory memory;
    const emulation::EmulationReport report = emulator.run(program, memory);
    return std::make_pair(report, memory);
  };
  const auto [with, mem_with] = run(true);
  const auto [without, mem_without] = run(false);
  EXPECT_EQ(with.network_steps, without.network_steps);
  EXPECT_EQ(with.step_costs, without.step_costs);
  EXPECT_EQ(with.request_packets, without.request_packets);
  EXPECT_EQ(with.reply_packets, without.reply_packets);
  EXPECT_EQ(with.combined_requests, without.combined_requests);
  EXPECT_EQ(with.rehashes, without.rehashes);
  EXPECT_EQ(with.detour_hops, 0U);
  EXPECT_EQ(with.dropped_packets, 0U);
  EXPECT_EQ(with.fault_rehashes, 0U);
  EXPECT_TRUE(with.complete && without.complete);
  EXPECT_TRUE(mem_with == mem_without);
}

TEST(DegradedEmulation, QuotaFailureDependsOnTheRunSeed) {
  // procs=0.6 on star:4 is satisfiable for some seeds and not others, so
  // the failure belongs to the run, not to the spec: one shared machine
  // answers seed 1 with the sampler's error and seed 2 with a report.
  const machine::Machine m =
      machine::Machine::build("star:4/two-phase/erew/fifo/faults:procs=0.6");
  const auto run = [&](std::uint64_t seed, std::string& error) {
    const auto program =
        machine::program_factory("permutation")(m.processors(), seed);
    SharedMemory memory;
    emulation::EmulationReport report;
    return m.run_seeded(seed, *program, memory, report, error);
  };
  std::string error;
  EXPECT_FALSE(run(1, error));
  EXPECT_NE(error.find("procs= fraction unsatisfiable"), std::string::npos)
      << error;
  std::string none;
  EXPECT_TRUE(run(2, none)) << none;
}

/// Every report field, as the front ends print it.
std::string report_text(const emulation::EmulationReport& report) {
  std::ostringstream os;
  machine::write_report_fields(os, report);
  return os.str();
}

TEST(DegradedEmulation, SharedRunSeededEqualsAPerSeedBuild) {
  // The one run path: run_seeded(s) on a machine built once equals a
  // machine built with seed=s in its spec and run with run() — plan and
  // stream both derive from the run seed, over every fault axis.
  for (const char* text :
       {"star:5/two-phase/faults:links=0.05/budget=64",
        "butterfly:4/two-phase/faults:nodes=0.1,links=0.05/budget=64",
        "star:5/two-phase/faults:procs=0.1,modules=0.05/budget=64",
        "shuffle:6/two-phase/faults:links=0.05,onsets=4/budget=64"}) {
    const machine::Machine shared = machine::Machine::build(text);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      machine::MachineSpec spec = machine::parse_spec(text);
      spec.seed = seed;
      const auto program =
          machine::program_factory("permutation")(shared.processors(), seed);
      SharedMemory shared_memory;
      const emulation::EmulationReport want =
          shared.run_seeded(seed, *program, shared_memory);
      program->reset();
      SharedMemory own_memory;
      const emulation::EmulationReport got =
          machine::Machine::build(spec).run(*program, own_memory);
      EXPECT_EQ(report_text(want), report_text(got))
          << text << " seed " << seed;
      EXPECT_EQ(shared_memory.sorted_cells(), own_memory.sorted_cells())
          << text << " seed " << seed;
    }
  }
}

// ------------------------------------------------ thread-count identity

bool summaries_identical(const support::Summary& a,
                         const support::Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.median == b.median && a.p95 == b.p95 &&
         a.max == b.max;
}

bool stats_identical(const analysis::TrialStats& a,
                     const analysis::TrialStats& b) {
  return summaries_identical(a.steps, b.steps) &&
         summaries_identical(a.worst_step, b.worst_step) &&
         summaries_identical(a.max_link_queue, b.max_link_queue) &&
         summaries_identical(a.max_node_queue, b.max_node_queue) &&
         a.combined_mean == b.combined_mean &&
         a.rehashes_mean == b.rehashes_mean &&
         a.detours_mean == b.detours_mean &&
         a.dropped_mean == b.dropped_mean &&
         a.fault_rehashes_mean == b.fault_rehashes_mean &&
         a.adopted_slot_steps_mean == b.adopted_slot_steps_mean &&
         a.all_complete == b.all_complete &&
         a.complete_runs == b.complete_runs && a.runs == b.runs;
}

analysis::TrialStats trials(const machine::MachineSpec& spec,
                            unsigned threads) {
  analysis::TrialStats stats;
  std::string error;
  EXPECT_TRUE(machine::run_trials(machine::Machine::build(spec),
                                  machine::program_factory("permutation", 2),
                                  /*seeds=*/8, threads, stats, error))
      << error;
  return stats;
}

analysis::TrialStats fault_trials(unsigned threads) {
  // One shared machine: each trial samples its plan from its trial seed
  // and owns the resulting injector and mask, so nothing mutable is
  // shared across workers.
  return trials(ten_percent_links_and_modules("star:5", false, /*seed=*/0),
                threads);
}

TEST(DegradedEmulation, FaultTrialsAreBitIdenticalAcrossThreadCounts) {
  const analysis::TrialStats one = fault_trials(1);
  const analysis::TrialStats eight = fault_trials(8);
  EXPECT_TRUE(stats_identical(one, eight));
  EXPECT_TRUE(one.all_complete);
  EXPECT_GT(one.detours_mean, 0.0) << "10% link faults caused no detours?";
}

analysis::TrialStats proc_fault_trials(unsigned threads) {
  machine::MachineSpec spec = ten_percent_procs("star:5", false, /*seed=*/0);
  spec.faults.links = 0.05;  // adoption composed with link detours
  return trials(spec, threads);
}

TEST(DegradedEmulation, ProcFaultTrialsAreBitIdenticalAcrossThreadCounts) {
  const analysis::TrialStats one = proc_fault_trials(1);
  const analysis::TrialStats eight = proc_fault_trials(8);
  EXPECT_TRUE(stats_identical(one, eight));
  EXPECT_TRUE(one.all_complete);
  EXPECT_GT(one.adopted_slot_steps_mean, 0.0)
      << "10% proc faults adopted no slots?";
}

}  // namespace
}  // namespace levnet::faults
