// The multithreaded surface under contention — the tests the TSan CI job
// and the Debug owner-thread assertions exist to watch.
//
//   * ThreadPool: fan-outs racing from several pools at once, the
//     exception-during-drain path under contention, and pool reuse after a
//     failed fan-out.
//   * Machine: the const run_seeded() sharing contract — 8 threads
//     hammering one Machine, fault-free or faulted, must produce reports
//     and final memories bit-identical to the same seeds run sequentially.
//   * ShardedStep: the intra-trial parallel engine (step_threads > 1) must
//     be bit-identical to the serial engine — including machines smaller
//     than the shard count, active lists that collapse to one link
//     mid-run, handlers that defer every concurrent decision, and
//     proc-faulted machines whose survivor adoption must not vary with
//     the thread count.
//   * DebugThreadOwner: the single-thread containers' debug guard rebinds
//     across clear()/reset(), so pooled state may migrate between trial
//     threads at quiescent points without tripping the assertion.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "emulation/emulator.hpp"
#include "machine/machine.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "sim/engine.hpp"
#include "sim/packet.hpp"
#include "sim/traffic.hpp"
#include "support/arena.hpp"
#include "support/flat_hash.hpp"
#include "support/object_pool.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/linear_array.hpp"

namespace levnet {
namespace {

using emulation::EmulationReport;
using pram::SharedMemory;
using support::ThreadPool;

// ------------------------------------------------------------ ThreadPool

TEST(ConcurrencyThreadPool, ConcurrentFanOutsFromSeparatePools) {
  // One pool per driver thread (parallel_for is not reentrant per pool);
  // the pools' workers all contend for the same cores at once.
  constexpr int kPools = 4;
  constexpr std::size_t kItems = 256;
  std::vector<std::vector<int>> results(kPools,
                                        std::vector<int>(kItems, 0));
  std::vector<std::thread> drivers;
  drivers.reserve(kPools);
  for (int p = 0; p < kPools; ++p) {
    drivers.emplace_back([p, &results] {
      ThreadPool pool(4);
      for (int round = 0; round < 8; ++round) {
        pool.parallel_for(kItems, [&](std::size_t i) {
          results[static_cast<std::size_t>(p)][i] += 1;
        });
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const auto& per_pool : results) {
    for (const int count : per_pool) EXPECT_EQ(count, 8);
  }
}

TEST(ConcurrencyThreadPool, ExceptionDuringDrainUnderContention) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  const auto boom = [&](std::size_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (i == 63) throw std::runtime_error("boom at 63");
  };
  EXPECT_THROW(pool.parallel_for(256, boom), std::runtime_error);
  // The throwing index ran; the counter was parked, so not every index did.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 256);

  // The pool survives a failed fan-out: the next job runs every index.
  std::atomic<int> clean{0};
  pool.parallel_for(128, [&](std::size_t) {
    clean.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(clean.load(), 128);
}

TEST(ConcurrencyThreadPool, FirstExceptionWinsAcrossRepeatedFailures) {
  ThreadPool pool(4);
  for (int round = 0; round < 16; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i % 2 == 0) {
          throw std::runtime_error("even index " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("even index"),
                std::string::npos);
    }
  }
}

// ------------------------------------------------- Machine::run_seeded

/// Full observable equality: every report counter (including the per-step
/// cost vector) plus the address-ordered final memory.
void expect_identical(const EmulationReport& a, const EmulationReport& b,
                      const SharedMemory& ma, const SharedMemory& mb,
                      const std::string& label) {
  EXPECT_EQ(a.pram_steps, b.pram_steps) << label;
  EXPECT_EQ(a.network_steps, b.network_steps) << label;
  EXPECT_EQ(a.max_step_network, b.max_step_network) << label;
  EXPECT_EQ(a.mean_step_network, b.mean_step_network) << label;
  EXPECT_EQ(a.max_link_queue, b.max_link_queue) << label;
  EXPECT_EQ(a.max_node_queue, b.max_node_queue) << label;
  EXPECT_EQ(a.request_packets, b.request_packets) << label;
  EXPECT_EQ(a.reply_packets, b.reply_packets) << label;
  EXPECT_EQ(a.combined_requests, b.combined_requests) << label;
  EXPECT_EQ(a.local_ops, b.local_ops) << label;
  EXPECT_EQ(a.rehashes, b.rehashes) << label;
  EXPECT_EQ(a.step_costs, b.step_costs) << label;
  EXPECT_EQ(a.detour_hops, b.detour_hops) << label;
  EXPECT_EQ(a.dropped_packets, b.dropped_packets) << label;
  EXPECT_EQ(a.fault_rehashes, b.fault_rehashes) << label;
  EXPECT_EQ(a.dead_procs, b.dead_procs) << label;
  EXPECT_EQ(a.adopted_slot_steps, b.adopted_slot_steps) << label;
  EXPECT_EQ(a.complete, b.complete) << label;
  EXPECT_EQ(ma.sorted_cells(), mb.sorted_cells()) << label;
}

/// 8 threads run one const Machine through run_seeded with distinct
/// seeds; every report and final memory must equal the sequential run of
/// the same seed. Returns the sequential reports.
std::vector<EmulationReport> expect_shared_runs_match_sequential(
    const std::string& spec) {
  const machine::Machine shared = machine::Machine::build(spec);
  const machine::ProgramFactory factory =
      machine::program_factory("histogram");

  // Sequential truth: one report + final memory per seed.
  constexpr std::uint64_t kSeeds = 16;
  std::vector<EmulationReport> want_reports(kSeeds);
  std::vector<SharedMemory> want_memories(kSeeds);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const auto program = factory(shared.processors(), seed);
    want_reports[seed] =
        shared.run_seeded(seed, *program, want_memories[seed]);
  }

  // 8 threads share the const Machine, each claiming seeds round-robin so
  // several threads emulate concurrently with interleaved start times.
  constexpr unsigned kThreads = 8;
  std::vector<EmulationReport> got_reports(kSeeds);
  std::vector<SharedMemory> got_memories(kSeeds);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared, &factory, &got_reports,
                          &got_memories] {
      for (std::uint64_t seed = t; seed < kSeeds; seed += kThreads) {
        const auto program = factory(shared.processors(), seed);
        got_reports[seed] =
            shared.run_seeded(seed, *program, got_memories[seed]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    expect_identical(want_reports[seed], got_reports[seed],
                     want_memories[seed], got_memories[seed],
                     "seed " + std::to_string(seed));
  }
  return want_reports;
}

TEST(ConcurrencySharedMachine, RunSeededEightThreadsBitIdentical) {
  (void)expect_shared_runs_match_sequential(
      "star:5/two-phase/crcw-combining/fifo");
}

TEST(ConcurrencySharedMachine, FaultedMachineEightThreadsBitIdentical) {
  // Faults are per-run input: each call samples its plan from its seed
  // into its own injector and mask, so a faulted machine shares like a
  // fault-free one. Link, proc and module faults with staggered onsets
  // exercise detours, slot adoption and survivor remaps concurrently.
  const std::vector<EmulationReport> reports =
      expect_shared_runs_match_sequential(
          "star:5/two-phase/crcw-combining/fifo/"
          "faults:links=0.05,procs=0.1,modules=0.05,onsets=3/budget=64");
  std::uint64_t detours = 0;
  std::uint64_t dead_procs = 0;
  for (const EmulationReport& report : reports) {
    detours += report.detour_hops;
    dead_procs += report.dead_procs;
  }
  EXPECT_GT(detours, 0U) << "link faults never forced a detour";
  EXPECT_GT(dead_procs, 0U) << "proc faults never landed";
}

TEST(ConcurrencySharedMachine, RunTrialsMatchesAcrossThreadCounts) {
  const machine::Machine m = machine::Machine::build(
      "shuffle:5/two-phase/crcw-combining/furthest-first");
  const machine::ProgramFactory factory =
      machine::program_factory("permutation");
  analysis::TrialStats one;
  analysis::TrialStats eight;
  std::string error;
  ASSERT_TRUE(machine::run_trials(m, factory, 12, 1, one, error)) << error;
  ASSERT_TRUE(machine::run_trials(m, factory, 12, 8, eight, error)) << error;
  EXPECT_EQ(one.steps.mean, eight.steps.mean);
  EXPECT_EQ(one.steps.max, eight.steps.max);
  EXPECT_EQ(one.worst_step.mean, eight.worst_step.mean);
}

// ------------------------------------------------- Sharded stepping

/// Engine-level handler with a concurrent fast path: packets walk rightward
/// along a linear array, each hop drawing one value into route_state;
/// deliveries fold the packet and one terminal draw into a digest (shared
/// state, so the terminal branch must defer). route_concurrent mirrors the
/// hop branch of on_packet draw-for-draw, which is exactly the contract the
/// engine's phase B/C split relies on — any divergence shows up as a digest
/// or metrics mismatch between step_threads=1 and step_threads=8.
class RightwardConcurrent final : public sim::TrafficHandler {
 public:
  explicit RightwardConcurrent(bool capable) : capable_(capable) {}

  void on_packet(sim::Packet& p, sim::NodeId at, std::uint32_t step,
                 support::Rng& rng, std::vector<sim::Forward>& out) override {
    if (at == p.dst) {
      digest = digest * 1099511628211ULL ^ p.id ^ p.route_state ^
               (std::uint64_t{step} << 32) ^ rng();
      return;
    }
    out.push_back(
        sim::Forward{at + 1, static_cast<std::uint32_t>(rng() >> 32)});
  }

  [[nodiscard]] std::uint32_t priority(const sim::Packet& p,
                                       sim::NodeId at) const override {
    return p.dst > at ? p.dst - at : 0;
  }

  [[nodiscard]] bool route_concurrent(sim::Packet& p, sim::NodeId at,
                                      std::uint32_t step, support::Rng& rng,
                                      sim::Forward& out) const override {
    (void)step;
    if (at == p.dst) return false;  // terminal: the digest is shared state
    out = sim::Forward{at + 1, static_cast<std::uint32_t>(rng() >> 32)};
    return true;
  }

  [[nodiscard]] bool route_concurrent_capable() const override {
    return capable_;
  }

  std::uint64_t digest = 0;

 private:
  const bool capable_;
};

struct RightwardResult {
  std::uint64_t digest;
  sim::RunMetrics metrics;
};

/// One full rightward run: `packets` packets injected at node 0 with
/// destinations spread over the array, run to drain.
RightwardResult run_rightward(std::uint32_t nodes, std::uint32_t packets,
                              std::uint32_t step_threads, bool capable,
                              sim::QueueDiscipline discipline =
                                  sim::QueueDiscipline::kFifo) {
  const topology::LinearArray line(nodes);
  RightwardConcurrent traffic(capable);
  sim::EngineConfig config;
  config.discipline = discipline;
  config.step_threads = step_threads;
  sim::SyncEngine engine(line.graph(), traffic, config);
  support::Rng rng(0x5eedULL + nodes);
  for (std::uint32_t i = 0; i < packets; ++i) {
    sim::Packet p;
    p.id = i;
    p.src = 0;
    p.dst = 1 + i % (nodes - 1);
    engine.inject(p, 0, rng);
  }
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.in_flight(), 0U);
  return RightwardResult{traffic.digest, engine.metrics()};
}

void expect_same_run(const RightwardResult& a, const RightwardResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.metrics.steps, b.metrics.steps) << label;
  EXPECT_EQ(a.metrics.injected, b.metrics.injected) << label;
  EXPECT_EQ(a.metrics.consumed, b.metrics.consumed) << label;
  EXPECT_EQ(a.metrics.total_hops, b.metrics.total_hops) << label;
  EXPECT_EQ(a.metrics.total_delay, b.metrics.total_delay) << label;
  EXPECT_EQ(a.metrics.max_link_queue, b.metrics.max_link_queue) << label;
  EXPECT_EQ(a.metrics.max_node_queue, b.metrics.max_node_queue) << label;
}

TEST(ConcurrencyShardedStep, MachineSmallerThanShardCount) {
  // A 3-node array has at most two simultaneously active rightward links,
  // so with 8 shards most shard ranges are empty every step.
  const RightwardResult serial = run_rightward(3, 2, 1, true);
  const RightwardResult sharded = run_rightward(3, 2, 8, true);
  expect_same_run(serial, sharded, "3-node array, 8 shards");
}

TEST(ConcurrencyShardedStep, ActiveListCollapsesToOneLinkMidRun) {
  // 64 packets fan out over a 48-node array; near-destination packets drain
  // first, so the active list shrinks from dozens of links to the single
  // link carrying the longest-haul packet while 8 shards keep fanning out.
  const RightwardResult serial = run_rightward(48, 64, 1, true);
  const RightwardResult sharded = run_rightward(48, 64, 8, true);
  expect_same_run(serial, sharded, "collapsing active list");
  // Under a priority discipline, phase B also caches Packet::priority;
  // cover the keyed commit path with the same traffic.
  const RightwardResult serial_keyed =
      run_rightward(48, 64, 1, true, sim::QueueDiscipline::kFurthestFirst);
  const RightwardResult sharded_keyed =
      run_rightward(48, 64, 8, true, sim::QueueDiscipline::kFurthestFirst);
  expect_same_run(serial_keyed, sharded_keyed, "collapsing, keyed");
}

TEST(ConcurrencyShardedStep, DeferEverythingHandlerMatchesSerial) {
  // capable=false routes every landing through the serial staged loop even
  // at step_threads=8 (only the transmit phase shards) — the slow path a
  // handler written purely against on_packet gets.
  const RightwardResult serial = run_rightward(32, 40, 1, false);
  const RightwardResult sharded = run_rightward(32, 40, 8, false);
  expect_same_run(serial, sharded, "defer-everything handler");
}

TEST(ConcurrencyShardedStep, ResetDrainsPerShardStateMidRun) {
  // Abort a sharded run mid-flight (step budget), reset, and re-run: the
  // per-shard continuation lists and decision slots must not leak packets
  // or draws into the second run.
  const topology::LinearArray line(32);
  RightwardConcurrent traffic(true);
  sim::EngineConfig config;
  config.step_threads = 8;
  sim::SyncEngine engine(line.graph(), traffic, config);
  const auto fill = [&](support::Rng& rng) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      sim::Packet p;
      p.id = i;
      p.src = 0;
      p.dst = 1 + i % 31;
      engine.inject(p, 0, rng);
    }
  };
  support::Rng warm(0x5eedULL + 32);
  engine.set_max_steps(3);
  fill(warm);
  EXPECT_FALSE(engine.run(warm));  // budget abort with packets in flight
  EXPECT_TRUE(engine.metrics().aborted);
  EXPECT_GT(engine.in_flight(), 0U);

  engine.reset();
  EXPECT_EQ(engine.in_flight(), 0U);
  engine.set_max_steps(0);
  traffic.digest = 0;

  // The reused engine must reproduce an untouched engine's run exactly.
  support::Rng rng(0x5eedULL + 32);
  fill(rng);
  EXPECT_TRUE(engine.run(rng));
  EXPECT_EQ(engine.in_flight(), 0U);
  const RightwardResult fresh = run_rightward(32, 40, 8, true);
  EXPECT_EQ(traffic.digest, fresh.digest);
  EXPECT_EQ(engine.metrics().steps, fresh.metrics.steps);
  EXPECT_EQ(engine.metrics().consumed, fresh.metrics.consumed);
}

TEST(ConcurrencyShardedStep, MachineThreadsTokenBitIdentical) {
  // Whole-machine equivalence under the spec token: crcw (non-combining,
  // so the emulator's route_concurrent engages) with a keyed discipline.
  const machine::Machine serial =
      machine::Machine::build("star:5/two-phase/crcw/furthest-first");
  const machine::Machine sharded =
      machine::Machine::build("star:5/two-phase/crcw/furthest-first/threads:8");
  const machine::ProgramFactory factory =
      machine::program_factory("histogram");
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto program_a = factory(serial.processors(), seed);
    const auto program_b = factory(sharded.processors(), seed);
    SharedMemory memory_a;
    SharedMemory memory_b;
    const EmulationReport a = serial.run_seeded(seed, *program_a, memory_a);
    const EmulationReport b = sharded.run_seeded(seed, *program_b, memory_b);
    expect_identical(a, b, memory_a, memory_b,
                     "threads:8 seed " + std::to_string(seed));
  }
}

TEST(ConcurrencyShardedStep, ProcFaultedThreadsTokenBitIdentical) {
  // Fault plan, survivor adoption and the emulator stream all derive from
  // the run seed. threads:8 must reproduce the serial run bit for bit:
  // under faults the transmit phase takes the serial path by design, and
  // the sharded landing phases must not disturb the adoption order or the
  // per-step recovery accounting.
  const machine::ProgramFactory factory =
      machine::program_factory("permutation", 2);
  const std::string spec =
      "star:5/two-phase/budget=64/faults:procs=0.1,links=0.05";
  const machine::Machine serial = machine::Machine::build(spec);
  const machine::Machine sharded = machine::Machine::build(spec + "/threads:8");
  const auto run = [&factory](const machine::Machine& m, std::uint64_t seed,
                              SharedMemory& memory) {
    const auto program = factory(m.processors(), seed);
    return m.run_seeded(seed, *program, memory);
  };
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SharedMemory memory_serial;
    SharedMemory memory_sharded;
    const EmulationReport a = run(serial, seed, memory_serial);
    const EmulationReport b = run(sharded, seed, memory_sharded);
    expect_identical(a, b, memory_serial, memory_sharded,
                     "procs threads:8 seed " + std::to_string(seed));
    EXPECT_GT(a.dead_procs, 0U);
    EXPECT_GT(a.adopted_slot_steps, 0U);
  }
}

// ------------------------------------------------- DebugThreadOwner

TEST(ConcurrencyOwnerGuard, ContainersMigrateAcrossThreadsWhenQuiescent) {
  // Mutate on this thread, clear()/reset(), then hand each container to
  // another thread: the debug guard must rebind instead of aborting. (The
  // cross-thread *violation* path aborts by design, so it is exercised as
  // a death test below rather than inline.)
  support::ObjectPool<int> pool;
  support::Arena<int> arena;
  struct IdentityHash {
    std::size_t operator()(int key) const noexcept {
      return static_cast<std::size_t>(key);
    }
  };
  support::FlatMap<int, int, IdentityHash> map;

  (void)pool.allocate();
  (void)arena.push(7);
  (void)map.find_or_insert(1);
  pool.clear();
  arena.reset();
  map.clear();

  std::thread other([&] {
    const auto ref = pool.allocate();
    pool.get(ref) = 5;
    EXPECT_EQ(arena[arena.push(9)], 9);
    EXPECT_TRUE(map.find_or_insert(2).second);
  });
  other.join();
}

#ifndef NDEBUG
using ConcurrencyOwnerGuardDeathTest = ::testing::Test;

TEST(ConcurrencyOwnerGuardDeathTest, CrossThreadMutationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        support::Arena<int> arena;
        (void)arena.push(1);  // this thread owns the arena...
        std::thread trespasser([&] { (void)arena.push(2); });
        trespasser.join();
      },
      "single-thread container mutated from a second thread");
}
#endif  // NDEBUG

}  // namespace
}  // namespace levnet
