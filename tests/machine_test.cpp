// Machine API tests (src/machine/).
//
// Four contracts are pinned here:
//   * spec round-tripping — parse(print(spec)) == spec for every registered
//     topology family, router, mode, discipline and fault/emulator knob,
//     and parse errors name the bad token and list the valid alternatives;
//   * registry integrity — all 9 families build at their smoke sizes, every
//     listed router constructs, every program family instantiates and runs;
//   * bit-equality — a spec-built Machine produces the same EmulationReport
//     and final memory as the equivalent hand-assembled stack (topology +
//     router + fabric + plan + injector + emulator), across 3 topologies x
//     {EREW, CRCW-combining} x {fault-free, faulted}. The low-level
//     constructors the golden suite records against are untouched, so this
//     pins the new path onto the recorded truth;
//   * run_trials — SplitMix64 seed fan-out matching analysis::TrialRunner,
//     bit-identical for 1 vs 8 threads, fault-free and faulted.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "emulation/emulator.hpp"
#include "emulation/fabric.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/spec.hpp"
#include "pram/algorithms/access_patterns.hpp"
#include "routing/shuffle_router.hpp"
#include "routing/star_router.hpp"
#include "routing/two_phase.hpp"
#include "topology/butterfly.hpp"
#include "topology/shuffle.hpp"
#include "topology/star.hpp"

namespace levnet::machine {
namespace {

using pram::SharedMemory;

// ----------------------------------------------------------- spec parsing

TEST(MachineSpec, ParsesTheReadmeExample) {
  MachineSpec spec;
  std::string error;
  ASSERT_TRUE(parse_spec(
      "star:5/two-phase/crcw-combining/fifo/faults:links=0.05", spec, error))
      << error;
  EXPECT_EQ(spec.topology, "star");
  EXPECT_EQ(spec.param0, 5U);
  EXPECT_EQ(spec.param1, 0U);
  EXPECT_EQ(spec.router, "two-phase");
  EXPECT_EQ(spec.mode, Mode::kCrcwCombining);
  EXPECT_EQ(spec.discipline, sim::QueueDiscipline::kFifo);
  EXPECT_DOUBLE_EQ(spec.faults.links, 0.05);
  EXPECT_TRUE(spec.faults.preserve_connectivity);
}

TEST(MachineSpec, SegmentsAfterTheRouterAreOrderFree) {
  MachineSpec a = parse_spec("mesh:8x16/xy/fifo/crcw/seed=7");
  MachineSpec b = parse_spec("mesh:8x16/xy/seed=7/crcw/fifo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.param1, 16U);
}

TEST(MachineSpec, RoundTripsEveryTopologyAndRouter) {
  for (const TopologyInfo& info : topology_families()) {
    for (const RouterInfo& router : info.routers) {
      MachineSpec spec;
      spec.topology = std::string(info.key);
      spec.param0 = info.smoke_param0;
      spec.param1 = info.smoke_param1;
      spec.router = std::string(router.key);
      if (router.takes_param) spec.router_param = 3;
      const std::string text = spec.to_string();
      MachineSpec reparsed;
      std::string error;
      ASSERT_TRUE(parse_spec(text, reparsed, error))
          << text << ": " << error;
      EXPECT_EQ(spec, reparsed) << text;
    }
  }
}

TEST(MachineSpec, RoundTripsEveryModeDisciplineAndKnob) {
  const Mode modes[] = {Mode::kErew, Mode::kCrew, Mode::kCrcw,
                        Mode::kCrcwCombining};
  const sim::QueueDiscipline disciplines[] = {
      sim::QueueDiscipline::kFifo, sim::QueueDiscipline::kFurthestFirst,
      sim::QueueDiscipline::kNearestFirst};
  for (const Mode mode : modes) {
    for (const sim::QueueDiscipline discipline : disciplines) {
      MachineSpec spec = parse_spec("star:5/two-phase");
      spec.mode = mode;
      spec.discipline = discipline;
      spec.faults.links = 0.05;
      spec.faults.nodes = 0.01;
      spec.faults.procs = 0.10;
      spec.faults.modules = 0.125;
      spec.faults.onset_epochs = 4;
      spec.faults.preserve_connectivity = false;
      spec.seed = 0xDEADBEEFULL;
      spec.step_budget_factor = 64;
      spec.max_rehash_attempts = 10;
      spec.hash_degree = 3;
      spec.node_buffer_bound = 8;
      const std::string text = spec.to_string();
      MachineSpec reparsed;
      std::string error;
      ASSERT_TRUE(parse_spec(text, reparsed, error)) << text << ": " << error;
      EXPECT_EQ(spec, reparsed) << text;
    }
  }
}

TEST(MachineSpec, ProcsFaultKnobRoundTripsAndCanonicalizes) {
  const MachineSpec spec =
      parse_spec("star:5/two-phase/faults:procs=0.1,links=0.05");
  EXPECT_DOUBLE_EQ(spec.faults.procs, 0.1);
  EXPECT_TRUE(spec.faults.any());
  // Canonical knob order puts links before procs regardless of input order.
  EXPECT_EQ(spec.to_string(),
            "star:5/two-phase/erew/fifo/faults:links=0.05,procs=0.1");
  EXPECT_EQ(parse_spec(spec.to_string()), spec);
  // procs alone arms the fault machinery too.
  EXPECT_TRUE(parse_spec("star:5/two-phase/faults:procs=0.1").faults.any());
}

TEST(MachineSpec, DefaultKnobsAreOmittedFromTheCanonicalForm) {
  const MachineSpec spec = parse_spec("star:5/two-phase");
  EXPECT_EQ(spec.to_string(), "star:5/two-phase/erew/fifo");
}

TEST(MachineSpec, ThreadsTokenRoundTripsAndCanonicalizes) {
  // threads:1 is the default and canonically omitted; any other value
  // (including 0 = hardware concurrency) prints right after the discipline.
  const MachineSpec sharded = parse_spec("star:5/two-phase/threads:8");
  EXPECT_EQ(sharded.step_threads, 8U);
  EXPECT_EQ(sharded.to_string(), "star:5/two-phase/erew/fifo/threads:8");
  EXPECT_EQ(parse_spec(sharded.to_string()), sharded);

  const MachineSpec hardware = parse_spec("star:5/two-phase/threads:0");
  EXPECT_EQ(hardware.step_threads, 0U);
  EXPECT_EQ(hardware.to_string(), "star:5/two-phase/erew/fifo/threads:0");

  EXPECT_EQ(parse_spec("star:5/two-phase/threads:1").to_string(),
            "star:5/two-phase/erew/fifo");

  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("star:5/two-phase/threads:many", spec, error));
  EXPECT_NE(error.find("'many'"), std::string::npos) << error;
}

TEST(MachineSpec, UnknownTopologyNamesTheTokenAndListsValidOnes) {
  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("stra:5/two-phase", spec, error));
  EXPECT_NE(error.find("'stra'"), std::string::npos) << error;
  for (const TopologyInfo& info : topology_families()) {
    EXPECT_NE(error.find(info.key), std::string::npos)
        << "'" << info.key << "' missing from: " << error;
  }
}

TEST(MachineSpec, UnknownRouterNamesTheTokenAndListsTheFamilys) {
  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("star:5/three-stage", spec, error));
  EXPECT_NE(error.find("'three-stage'"), std::string::npos) << error;
  EXPECT_NE(error.find("two-phase"), std::string::npos) << error;
  EXPECT_NE(error.find("greedy"), std::string::npos) << error;
}

TEST(MachineSpec, UnknownSegmentAndKnobErrorsNameTheToken) {
  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("star:5/two-phase/fastest-first", spec, error));
  EXPECT_NE(error.find("'fastest-first'"), std::string::npos) << error;
  EXPECT_NE(error.find("furthest-first"), std::string::npos) << error;

  EXPECT_FALSE(parse_spec("star:5/two-phase/faults:wires=0.1", spec, error));
  EXPECT_NE(error.find("'wires'"), std::string::npos) << error;
  EXPECT_NE(error.find("links"), std::string::npos) << error;

  EXPECT_FALSE(parse_spec("star:5/two-phase/bugdet=64", spec, error));
  EXPECT_NE(error.find("'bugdet'"), std::string::npos) << error;
  EXPECT_NE(error.find("budget"), std::string::npos) << error;
}

TEST(MachineSpec, RejectsOutOfRangeValues) {
  MachineSpec spec;
  std::string error;
  EXPECT_FALSE(parse_spec("star:5/two-phase/faults:links=1.5", spec, error));
  EXPECT_FALSE(parse_spec("star:5/two-phase/seed=banana", spec, error));
  EXPECT_FALSE(parse_spec("star:x/two-phase", spec, error));
  EXPECT_FALSE(parse_spec("", spec, error));
  EXPECT_FALSE(parse_spec("star:5", spec, error));  // router missing
  EXPECT_NE(error.find("router"), std::string::npos) << error;
}

TEST(MachineValidate, RangesAreEnforced) {
  std::string error;
  EXPECT_TRUE(Machine::validate(parse_spec("ccc:3/sweep"), error)) << error;

  // Each family's last size under the node cap is accepted and its first
  // size over it is rejected by the shape rule alone: validate() is
  // arithmetic, so neither is built (star:10 would be 3.6M nodes,
  // linear:4194305 a 4M-node array). The message is the builder's.
  struct CapEdge {
    const char* last_accepted;
    const char* first_rejected;
  };
  const CapEdge edges[] = {
      {"star:9/two-phase", "star:10/two-phase"},
      {"hypercube:22/ecube", "hypercube:23/ecube"},
      {"ccc:18/sweep", "ccc:19/sweep"},
      {"linear:4194304/greedy", "linear:4194305/greedy"},
      {"shuffle:22/two-phase", "shuffle:23/two-phase"},
      {"shuffle:4x11/two-phase", "shuffle:4x12/two-phase"},
      {"nshuffle:7/two-phase", "nshuffle:8/two-phase"},
      {"butterfly:17/two-phase", "butterfly:18/two-phase"},
      {"butterfly:4x9/two-phase", "butterfly:4x10/two-phase"},
      {"mesh:2048/xy", "mesh:2049/xy"},
      {"torus:2048/greedy", "torus:2049/greedy"},
  };
  for (const CapEdge& edge : edges) {
    EXPECT_TRUE(Machine::validate(parse_spec(edge.last_accepted), error))
        << edge.last_accepted << ": " << error;
    const MachineSpec spec = parse_spec(edge.first_rejected);
    EXPECT_FALSE(Machine::validate(spec, error)) << edge.first_rejected;
    const std::string text = edge.first_rejected;
    const std::size_t from = text.find(':') + 1;
    const std::string params = text.substr(from, text.find('/') - from);
    const std::string help(find_topology(spec.topology)->params_help);
    EXPECT_EQ(error, "bad parameters for topology '" + spec.topology + "': " +
                         params + " (expected " + help + ")");
  }
}

/// `text` as a POSIX extended regex that matches it literally.
std::string regex_literal(const std::string& text) {
  std::string regex;
  for (const char c : text) {
    if (std::string_view("\\^$.|?*+()[]{}").find(c) !=
        std::string_view::npos) {
      regex += '\\';
    }
    regex += c;
  }
  return regex;
}

TEST(MachineValidate, ShapeRulesAgreeWithTheConstructors) {
  // validate() decides legality from the catalogue alone; build() must
  // construct every spec it accepts (no constructor CHECK may fire) and
  // refuse every spec it rejects. The grid crosses each family's lower
  // bounds in both parameters and gives every router a parameter once.
  for (const TopologyInfo& info : topology_families()) {
    std::size_t accepted = 0;
    MachineSpec first_rejected;
    std::string first_error;
    for (const RouterInfo& router : info.routers) {
      for (std::uint32_t p0 = 0; p0 <= 4; ++p0) {
        for (std::uint32_t p1 = 0; p1 <= 3; ++p1) {
          for (const std::uint32_t router_param : {0U, 2U}) {
            MachineSpec spec;
            spec.topology = std::string(info.key);
            spec.router = std::string(router.key);
            spec.param0 = p0;
            spec.param1 = p1;
            spec.router_param = router_param;
            std::string error;
            if (Machine::validate(spec, error)) {
              ++accepted;
              const Machine m = Machine::build(spec);
              EXPECT_GT(m.processors(), 0U) << spec.to_string();
              EXPECT_GT(m.route_scale(), 0U) << spec.to_string();
              continue;
            }
            // The error-returning builders agree: a shape rejection is
            // build_topology's, anything else is a router parameter the
            // router does not take.
            std::string build_error;
            if (build_topology(spec, build_error) == nullptr) {
              EXPECT_EQ(build_error, error) << spec.to_string();
            } else {
              EXPECT_TRUE(router_param != 0 && !router.takes_param)
                  << spec.to_string();
              EXPECT_EQ(error, "router '" + spec.router + "' of topology '" +
                                   spec.topology +
                                   "' takes no parameter (got ':2')");
            }
            if (first_error.empty()) {
              first_rejected = spec;
              first_error = error;
            }
          }
        }
      }
    }
    EXPECT_GT(accepted, 0U) << info.key;
    ASSERT_FALSE(first_error.empty()) << info.key;
    EXPECT_DEATH((void)Machine::build(first_rejected),
                 regex_literal(first_error));
  }
  // The torus needs three rows and columns; two would abort its constructor.
  std::string error;
  EXPECT_FALSE(Machine::validate(parse_spec("torus:2/greedy"), error));
  EXPECT_FALSE(Machine::validate(parse_spec("torus:3x2/greedy"), error));
  EXPECT_TRUE(Machine::validate(parse_spec("torus:3/greedy"), error)) << error;
  // The mesh's three-stage router is the one that takes a parameter.
  EXPECT_TRUE(Machine::validate(parse_spec("mesh:4/three-stage:2"), error))
      << error;
  EXPECT_FALSE(Machine::validate(parse_spec("star:4/two-phase:7"), error));
  EXPECT_EQ(error,
            "router 'two-phase' of topology 'star' takes no parameter "
            "(got ':7')");
}

// -------------------------------------------------------------- registry

TEST(Registry, AllNineFamiliesBuildAtSmokeSize) {
  EXPECT_EQ(topology_families().size(), 9U);
  for (const TopologyInfo& info : topology_families()) {
    MachineSpec spec;
    spec.topology = std::string(info.key);
    spec.param0 = info.smoke_param0;
    spec.param1 = info.smoke_param1;
    for (const RouterInfo& router : info.routers) {
      spec.router = std::string(router.key);
      Machine m = Machine::build(spec);
      EXPECT_GT(m.processors(), 0U) << spec.to_string();
      EXPECT_GT(m.route_scale(), 0U) << spec.to_string();
      EXPECT_FALSE(m.name().empty());
      // One tiny emulation proves the whole stack is wired.
      pram::PermutationTraffic program(
          std::min(m.processors(), 16U), 1, 7);
      SharedMemory memory;
      const emulation::EmulationReport report =
          m.run_seeded(7, program, memory);
      EXPECT_TRUE(report.complete) << spec.to_string();
      EXPECT_EQ(report.pram_steps, 1U) << spec.to_string();
    }
  }
}

TEST(Registry, EveryProgramFamilyRunsOnAStarMachine) {
  EXPECT_GE(program_families().size(), 12U);
  const Machine m = Machine::build("star:4/two-phase/crcw-combining/fifo");
  for (const ProgramInfo& info : program_families()) {
    std::string error;
    const auto program =
        make_program(info.key, m.processors(), /*seed=*/5, /*steps=*/2, error);
    ASSERT_NE(program, nullptr) << error;
    SharedMemory memory;
    const emulation::EmulationReport report =
        m.run_seeded(5, *program, memory);
    EXPECT_TRUE(report.complete) << info.key;
    EXPECT_TRUE(program->validate(memory)) << info.key;
  }
}

TEST(Registry, ModeAllowsOrdersTheAccessModes) {
  EXPECT_TRUE(mode_allows(Mode::kErew, pram::Mode::kErew));
  EXPECT_FALSE(mode_allows(Mode::kErew, pram::Mode::kCrew));
  EXPECT_FALSE(mode_allows(Mode::kErew, pram::Mode::kCrcw));
  EXPECT_TRUE(mode_allows(Mode::kCrew, pram::Mode::kErew));
  EXPECT_FALSE(mode_allows(Mode::kCrew, pram::Mode::kCrcw));
  EXPECT_TRUE(mode_allows(Mode::kCrcw, pram::Mode::kCrcw));
  EXPECT_TRUE(mode_allows(Mode::kCrcwCombining, pram::Mode::kCrcw));
  EXPECT_TRUE(mode_allows(Mode::kCrcwCombining, pram::Mode::kErew));
}

TEST(MachineSpec, FractionsRoundTripExactly) {
  MachineSpec spec = parse_spec("star:5/two-phase");
  spec.faults.links = 1.0 / 3.0;  // not representable in few decimal digits
  spec.faults.modules = 0.05;
  MachineSpec reparsed;
  std::string error;
  ASSERT_TRUE(parse_spec(spec.to_string(), reparsed, error))
      << spec.to_string() << ": " << error;
  EXPECT_EQ(spec, reparsed) << spec.to_string();
}

TEST(Registry, UnknownProgramKeyListsTheCatalogue) {
  std::string error;
  EXPECT_EQ(make_program("histogrm", 16, 1, 2, error), nullptr);
  EXPECT_NE(error.find("'histogrm'"), std::string::npos) << error;
  EXPECT_NE(error.find("histogram"), std::string::npos) << error;
}

// ------------------------------------------------- spec == hand assembly

bool reports_identical(const emulation::EmulationReport& a,
                       const emulation::EmulationReport& b) {
  return a.pram_steps == b.pram_steps && a.network_steps == b.network_steps &&
         a.max_step_network == b.max_step_network &&
         a.mean_step_network == b.mean_step_network &&
         a.max_link_queue == b.max_link_queue &&
         a.max_node_queue == b.max_node_queue &&
         a.request_packets == b.request_packets &&
         a.reply_packets == b.reply_packets &&
         a.combined_requests == b.combined_requests &&
         a.local_ops == b.local_ops && a.rehashes == b.rehashes &&
         a.step_costs == b.step_costs && a.detour_hops == b.detour_hops &&
         a.dropped_packets == b.dropped_packets &&
         a.fault_rehashes == b.fault_rehashes &&
         a.dead_links == b.dead_links && a.dead_nodes == b.dead_nodes &&
         a.dead_modules == b.dead_modules && a.complete == b.complete;
}

constexpr std::uint64_t kPinSeed = 0xB17'E0AALL;

/// The hand-built twin of a spec: construct topology/router/fabric (and
/// plan/injector when `faulted`) with the public low-level constructors,
/// then run the same program.
template <typename Topology>
std::pair<emulation::EmulationReport, SharedMemory> hand_built_run(
    Topology& topo, const emulation::EmulationFabric& fabric,
    std::uint32_t endpoints, bool combining, bool faulted) {
  faults::FaultSpec fault_spec;
  fault_spec.link_fraction = 0.05;
  fault_spec.module_fraction = 0.10;
  faults::FaultPlan plan;
  std::unique_ptr<faults::FaultInjector> injector;
  if (faulted) {
    plan = faults::FaultPlan::sample(topo.graph(), endpoints, endpoints,
                                     fault_spec, kPinSeed);
    injector = std::make_unique<faults::FaultInjector>(topo.graph(),
                                                       endpoints, plan);
  }
  emulation::EmulatorConfig config;
  config.combining = combining;
  config.seed = kPinSeed;
  config.step_budget_factor = 64;
  config.faults = injector.get();
  emulation::NetworkEmulator emulator(fabric, config);
  pram::PermutationTraffic program(endpoints, 3, kPinSeed);
  SharedMemory memory;
  emulation::EmulationReport report = emulator.run(program, memory);
  return {std::move(report), std::move(memory)};
}

std::pair<emulation::EmulationReport, SharedMemory> spec_built_run(
    const std::string& topology, bool combining, bool faulted) {
  MachineSpec spec = parse_spec(topology + "/two-phase/budget=64");
  if (combining) spec.mode = Mode::kCrcwCombining;
  spec.seed = kPinSeed;
  if (faulted) {
    spec.faults.links = 0.05;
    spec.faults.modules = 0.10;
  }
  Machine m = Machine::build(spec);
  pram::PermutationTraffic program(m.processors(), 3, kPinSeed);
  SharedMemory memory;
  emulation::EmulationReport report = m.run(program, memory);
  return {std::move(report), std::move(memory)};
}

void expect_bit_equal_on_star(bool combining, bool faulted) {
  topology::StarGraph star(5);
  const routing::StarTwoPhaseRouter router(star);
  const emulation::EmulationFabric fabric(star.graph(), router,
                                          star.diameter(), star.name());
  const auto [hand_report, hand_memory] = hand_built_run(
      star, fabric, star.node_count(), combining, faulted);
  const auto [spec_report, spec_memory] =
      spec_built_run("star:5", combining, faulted);
  EXPECT_TRUE(reports_identical(hand_report, spec_report))
      << "star combining=" << combining << " faulted=" << faulted;
  EXPECT_TRUE(hand_memory == spec_memory);
}

void expect_bit_equal_on_shuffle(bool combining, bool faulted) {
  topology::DWayShuffle net = topology::DWayShuffle::n_way(3);
  const routing::ShuffleTwoPhaseRouter router(net);
  const emulation::EmulationFabric fabric(net.graph(), router,
                                          net.route_length(), net.name());
  const auto [hand_report, hand_memory] = hand_built_run(
      net, fabric, net.node_count(), combining, faulted);
  const auto [spec_report, spec_memory] =
      spec_built_run("nshuffle:3", combining, faulted);
  EXPECT_TRUE(reports_identical(hand_report, spec_report))
      << "shuffle combining=" << combining << " faulted=" << faulted;
  EXPECT_TRUE(hand_memory == spec_memory);
}

void expect_bit_equal_on_butterfly(bool combining, bool faulted) {
  topology::WrappedButterfly bf(2, 5);
  const routing::TwoPhaseButterflyRouter router(bf);
  const emulation::EmulationFabric fabric(bf, router);
  const auto [hand_report, hand_memory] =
      hand_built_run(bf, fabric, bf.row_count(), combining, faulted);
  const auto [spec_report, spec_memory] =
      spec_built_run("butterfly:2x5", combining, faulted);
  EXPECT_TRUE(reports_identical(hand_report, spec_report))
      << "butterfly combining=" << combining << " faulted=" << faulted;
  EXPECT_TRUE(hand_memory == spec_memory);
}

TEST(SpecVsHandBuilt, StarIsBitEqual) {
  for (const bool combining : {false, true}) {
    for (const bool faulted : {false, true}) {
      expect_bit_equal_on_star(combining, faulted);
    }
  }
}

TEST(SpecVsHandBuilt, ShuffleIsBitEqual) {
  for (const bool combining : {false, true}) {
    for (const bool faulted : {false, true}) {
      expect_bit_equal_on_shuffle(combining, faulted);
    }
  }
}

TEST(SpecVsHandBuilt, ButterflyIsBitEqual) {
  for (const bool combining : {false, true}) {
    for (const bool faulted : {false, true}) {
      expect_bit_equal_on_butterfly(combining, faulted);
    }
  }
}

// ------------------------------------------------------------ run_trials

TEST(RunTrials, SeedDerivationMatchesTheBenchHarness) {
  // machine::run_trials must fan seeds exactly like ScenarioContext::trials
  // (SplitMix64 of first_seed + index, first_seed = 1), or migrated bench
  // rows would drift from their recorded baselines.
  std::vector<emulation::EmulationReport> reports;
  analysis::TrialStats stats;
  std::string error;
  ASSERT_TRUE(run_trials(Machine::build("star:4/two-phase"),
                         program_factory("permutation", 2), /*seeds=*/3,
                         /*threads=*/1, stats, error, &reports))
      << error;
  ASSERT_EQ(reports.size(), 3U);
  EXPECT_EQ(stats.runs, 3U);

  const Machine m = Machine::build("star:4/two-phase");
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::uint64_t seed = analysis::TrialRunner::trial_seed(1, i);
    pram::PermutationTraffic program(m.processors(), 2, seed);
    SharedMemory memory;
    const emulation::EmulationReport direct =
        m.run_seeded(seed, program, memory);
    EXPECT_TRUE(reports_identical(direct, reports[i])) << "trial " << i;
  }
}

TEST(RunTrials, FaultFreeIsThreadCountInvariant) {
  const Machine m = Machine::build("nshuffle:3/two-phase/crcw-combining");
  std::vector<emulation::EmulationReport> one;
  std::vector<emulation::EmulationReport> eight;
  analysis::TrialStats a;
  analysis::TrialStats b;
  std::string error;
  ASSERT_TRUE(run_trials(m, program_factory("permutation", 2), 6,
                         /*threads=*/1, a, error, &one))
      << error;
  ASSERT_TRUE(run_trials(m, program_factory("permutation", 2), 6,
                         /*threads=*/8, b, error, &eight))
      << error;
  EXPECT_EQ(a.steps.mean, b.steps.mean);
  EXPECT_EQ(a.worst_step.max, b.worst_step.max);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(reports_identical(one[i], eight[i])) << "trial " << i;
  }
}

}  // namespace
}  // namespace levnet::machine
