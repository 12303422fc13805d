#pragma once
// NetworkEmulator — the paper's contribution, end to end.
//
// One PRAM step is emulated as (Section 2.4, Section 3.3):
//   1. every processor with a memory operation sends a request packet to
//      the memory module h(addr), where h is drawn from the Karlin-Upfal
//      polynomial family (Section 2.1);
//   2. requests are routed by the network's randomized oblivious router
//      (Algorithm 2.1 / 2.2 / 2.3, or the 3-stage mesh algorithm);
//   3. writes deposit a claim at the module, reads trigger a reply routed
//      back to the issuing processor;
//   4. if the step exceeds its time budget, a new hash function is chosen
//      and the step is re-run (the paper's rehashing escape hatch);
//   5. claims are applied under the machine's write policy, read values are
//      delivered, and the next PRAM step begins.
//
// CRCW mode (Theorem 2.6) adds en-route combining: a request landing on a
// node that still queues another request for the same address merges into
// it (writes combine their claims associatively; reads are absorbed), and
// every read landing leaves a route-back trail entry — the paper's "log d
// direction bits" — so one reply fans out along the combining tree to all
// requesters.
//
// The emulator produces exactly the same final memory as ReferencePram for
// any legal program — the library's core correctness oracle — while the
// returned report carries the cost measurements the theorems bound.
//
// Degraded mode (EmulatorConfig::faults): a FaultInjector advances a
// FaultPlan one epoch per PRAM step. Dead links/nodes are routed around by
// detouring through surviving neighbors (Router::reroute keeps any
// oblivious router progressing after a detour); dead memory modules are
// remapped through a survivor remap composed with the hash, and module
// deaths additionally trigger the rehash path. Dead *processors*
// (Chlebus-Gasieniec-Pelc's static processor faults) are handled by work
// reassignment: every program slot keeps issuing and receiving, but a dead
// slot executes at its seed-derived adopting survivor (host_node), so the
// full registry's memory image stays bit-equal to ReferencePram on the
// survivor-visible state. The same final memory is still produced whenever
// the plan keeps the survivor endpoints connected — the theorems' w.h.p.
// machinery degrades gracefully instead of failing — and the report gains
// detour/drop/fault-rehash/adoption observables plus a `complete` flag for
// runs the plan defeated.

#include <cstdint>
#include <memory>
#include <vector>

#include "emulation/fabric.hpp"
#include "faults/injector.hpp"
#include "hashing/poly_hash.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "pram/types.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"
#include "support/arena.hpp"
#include "support/flat_hash.hpp"
#include "support/rng.hpp"

namespace levnet::emulation {

struct EmulatorConfig {
  /// En-route combining + tree replies (CRCW emulation, Theorem 2.6).
  /// Without it, concurrent accesses still execute correctly but serialize
  /// at the module links (the behaviour EREW analysis assumes away).
  bool combining = false;
  /// Hash polynomial degree S; 0 selects S = route_scale (c = 1 in S = cL).
  std::uint32_t hash_degree = 0;
  /// Per-PRAM-step budget = factor * route_scale network steps; exceeding
  /// it triggers a rehash and a retry of the step. 0 disables rehashing.
  std::uint32_t step_budget_factor = 0;
  std::uint32_t max_rehash_attempts = 16;
  sim::QueueDiscipline discipline = sim::QueueDiscipline::kFifo;
  /// Bounded-buffer mode forwarded to the engine (0 = unbounded).
  std::uint32_t node_buffer_bound = 0;
  /// Engine step parallelism (EngineConfig::step_threads): 1 = serial,
  /// 0 = hardware concurrency. Reports and final memories are bit-identical
  /// across values (golden-equivalence suite).
  std::uint32_t step_threads = 1;
  std::uint64_t seed = 0x1991'06ULL;
  /// Degraded-mode emulation: the run's injector over the fabric's graph
  /// (faults/injector.hpp). The emulator advances the fault plan one epoch
  /// per PRAM step, routes around dead links/nodes via detours (reading
  /// the injector's mask), remaps dead memory modules through the
  /// survivor remap (composed with the hash, so the existing rehash path
  /// still applies), and executes dead processors' program slots at their
  /// adopting survivors (FaultInjector::adopt_proc). Node faults must not
  /// touch processor-hosting nodes — killing a processor is the explicit
  /// kProc axis. nullptr (or an injector with an empty plan) is guaranteed
  /// inert: behaviour is bit-identical to the fault-free emulator.
  faults::FaultInjector* faults = nullptr;
  /// Optional observability recorder (src/obs/), forwarded to the engine.
  /// The emulator additionally counts rehashes and combining merges into
  /// it, keeps its virtual clock monotone across rehash attempts, and
  /// folds its latency quantiles into the report. Null (the default) is
  /// byte-inert: reports and memories are bit-identical with or without.
  obs::Recorder* recorder = nullptr;
};

struct EmulationReport {
  std::uint32_t pram_steps = 0;
  /// Sum over PRAM steps of the network steps each took — the emulation
  /// cost the theorems bound by O~(l) per step.
  std::uint64_t network_steps = 0;
  std::uint32_t max_step_network = 0;
  double mean_step_network = 0.0;
  std::uint32_t max_link_queue = 0;
  std::uint32_t max_node_queue = 0;
  std::uint64_t request_packets = 0;
  std::uint64_t reply_packets = 0;
  /// Requests absorbed into a queued same-address request (combining).
  std::uint64_t combined_requests = 0;
  /// Operations served without network traffic (processor == module node).
  std::uint64_t local_ops = 0;
  std::uint32_t rehashes = 0;
  /// Per-PRAM-step network cost (for distribution plots).
  std::vector<std::uint32_t> step_costs;
  /// High-water mark of packets alive in the engine at a step boundary,
  /// across every attempt (maintained unconditionally; no recorder needed).
  std::uint32_t peak_in_flight = 0;
  /// Delivery-latency quantiles in network steps (journey = consumption
  /// step - injection step) and queue-delay quantiles (journey - hops),
  /// filled from the attached obs::Recorder; all zero without one. The
  /// quantile is the inclusive upper bound of its histogram bucket, so
  /// the values are bit-stable across platforms and thread counts.
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p95 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t queue_delay_p50 = 0;
  std::uint64_t queue_delay_p95 = 0;
  std::uint64_t queue_delay_p99 = 0;

  // Degraded-mode observables; all zero / true when no faults are
  // configured (the fields exist unconditionally so reports stay uniform).
  /// Hops taken around dead links/nodes via surviving neighbors.
  std::uint64_t detour_hops = 0;
  /// Packets lost to faults with no detour available (0 under a
  /// connectivity-preserving plan).
  std::uint64_t dropped_packets = 0;
  /// Rehashes forced by memory-module deaths (survivor remap rebuilds),
  /// not counted in `rehashes` (which stays budget-triggered only).
  std::uint32_t fault_rehashes = 0;
  /// Rehashes forced by processor deaths are part of fault_rehashes too:
  /// a dead processor kills its co-located module, and that module death
  /// carries the rehash. This counts the recovery overhead on the slot
  /// side: the sum over completed PRAM steps of dead (adopted) program
  /// slots each step — survivor work inflation in slot-steps.
  std::uint64_t adopted_slot_steps = 0;
  /// Final degraded-state snapshot.
  std::uint32_t dead_links = 0;
  std::uint32_t dead_nodes = 0;
  std::uint32_t dead_modules = 0;
  std::uint32_t dead_procs = 0;
  /// False when faults defeated the run: a read went unanswered, packets
  /// dropped, or the rehash budget ran out. Fault-free runs CHECK-fail
  /// instead (a lost request there is a bug, not a scenario).
  bool complete = true;
};

class NetworkEmulator final : public sim::TrafficHandler {
 public:
  NetworkEmulator(const EmulationFabric& fabric, EmulatorConfig config);
  ~NetworkEmulator() override;

  NetworkEmulator(const NetworkEmulator&) = delete;
  NetworkEmulator& operator=(const NetworkEmulator&) = delete;

  /// Runs `program` to completion against `memory` (initializing it), with
  /// the write policy the program declares.
  EmulationReport run(pram::PramProgram& program, pram::SharedMemory& memory);

 private:
  struct TrailKey {
    NodeId node = 0;
    pram::Addr addr = 0;
    bool operator==(const TrailKey&) const = default;
  };
  struct TrailKeyHash {
    std::size_t operator()(const TrailKey& k) const noexcept {
      std::uint64_t state =
          (static_cast<std::uint64_t>(k.node) << 1) ^ (k.addr * 0x9e3779b9ULL);
      return static_cast<std::size_t>(support::splitmix64(state));
    }
  };
  struct AddrHash {
    std::size_t operator()(pram::Addr addr) const noexcept {
      std::uint64_t state = addr;
      return static_cast<std::size_t>(support::splitmix64(state));
    }
  };
  /// Route-back record: when a read reply for this address floods this
  /// node, forward a copy toward `from` (or deliver locally to `proc`).
  struct TrailEntry {
    bool local = false;
    bool serviced = false;
    pram::ProcId proc = 0;
    NodeId from = topology::kInvalidNode;
  };
  /// Trail entries for one (node, addr) key, chained through the step
  /// arena in insertion order (the reply fan-out order is part of the
  /// engine's deterministic service order and must not change).
  struct TrailNode {
    TrailEntry entry;
    std::uint32_t next = support::Arena<TrailNode>::kNullIndex;
  };
  struct TrailChain {
    std::uint32_t head = support::Arena<TrailNode>::kNullIndex;
    std::uint32_t tail = support::Arena<TrailNode>::kNullIndex;
  };

  // sim::TrafficHandler
  void on_packet(sim::Packet& p, NodeId at, std::uint32_t step,
                 support::Rng& rng, std::vector<sim::Forward>& out) override;
  [[nodiscard]] std::uint32_t priority(const sim::Packet& p,
                                       NodeId at) const override;
  /// Sharded landing phase: a mid-route hop (request or plain reply away
  /// from its destination) is a pure next_hop call against the immutable
  /// router, decided concurrently; terminal landings (serve/deliver touch
  /// memory, claims and per-proc arrays) and all combining traffic defer
  /// to on_packet on the driving thread.
  [[nodiscard]] bool route_concurrent(sim::Packet& p, NodeId at,
                                      std::uint32_t step, support::Rng& rng,
                                      sim::Forward& out) const override;
  [[nodiscard]] bool route_concurrent_capable() const override;
  /// Degraded-mode detour: picks a uniformly random surviving out-link of
  /// `at` and re-prepares the packet's route to resume from there
  /// (Router::reroute), so any oblivious router keeps making progress.
  [[nodiscard]] NodeId on_fault(sim::Packet& p, NodeId at, NodeId blocked,
                                support::Rng& rng) override;

  /// h(addr) composed with the survivor remap when faults are active.
  [[nodiscard]] std::uint32_t module_of(pram::Addr addr) const;
  /// The remap half of module_of, for addresses already hashed by the
  /// batched evaluation pass.
  [[nodiscard]] std::uint32_t remap_of(std::uint32_t hashed) const {
    return config_.faults == nullptr ? hashed
                                     : config_.faults->remap_module(hashed);
  }
  /// Network node that executes processor p's program slot: p's own
  /// endpoint while p is alive, its seed-derived adopting survivor once p
  /// is dead (work reassignment). Identity without faults — the injector
  /// pointer is the only branch, so fault-free runs are bit-inert.
  [[nodiscard]] NodeId host_node(pram::ProcId p) const {
    const std::uint32_t executor =
        config_.faults == nullptr
            ? p
            : config_.faults->adopt_proc(static_cast<std::uint32_t>(p));
    // levnet-lint: endpoint-liveness(adopt_proc output is live by construction)
    return fabric_.proc_node(executor);
  }

  void handle_request(sim::Packet& p, NodeId at, support::Rng& rng,
                      std::vector<sim::Forward>& out);
  void handle_reply_plain(sim::Packet& p, NodeId at, support::Rng& rng,
                          std::vector<sim::Forward>& out);
  void handle_reply_combining(sim::Packet& p, NodeId at,
                              std::vector<sim::Forward>& out);

  /// Serves an op arriving at its module: writes merge a claim, reads
  /// return the pre-step value.
  void serve_at_module(sim::Packet& p, NodeId at, support::Rng& rng,
                       std::vector<sim::Forward>& out);

  /// Tries to merge a landing request into a same-address request still
  /// queued at `at`; true if absorbed.
  bool try_merge_in_queue(sim::Packet& p, NodeId at);

  void record_trail(const sim::Packet& p, NodeId at);
  void merge_claim(pram::Addr addr, pram::WriteClaim claim);
  void deliver_read(pram::ProcId proc, pram::Word value);

  const EmulationFabric& fabric_;
  EmulatorConfig config_;
  /// The injector's mask (null without one), handed to the engine and to
  /// every router call.
  const topology::Liveness* live_;
  pram::WritePolicy policy_ = pram::WritePolicy::kCommon;
  support::Rng rng_;
  std::unique_ptr<hashing::PolynomialHash> hash_;
  std::unique_ptr<sim::SyncEngine> engine_;
  const pram::SharedMemory* memory_ = nullptr;  // pre-step state (reads)

  // Per-PRAM-step state, all O(1)-cleared (not freed) between steps and on
  // rehash retries: open-addressed flat tables plus a step-scoped arena
  // instead of node-allocating std::unordered_maps rebuilt every step.
  support::FlatMap<pram::Addr, pram::WriteClaim, AddrHash> claims_;
  support::FlatMap<TrailKey, TrailChain, TrailKeyHash> trails_;
  support::Arena<TrailNode> trail_nodes_;
  std::vector<pram::Word> pending_value_;
  std::vector<std::uint8_t> pending_read_;
  std::vector<std::uint8_t> read_served_;
  /// Scratch for the batched h(addr) pass at injection time (one
  /// coefficient-major sweep per attempt instead of per-op Horner calls);
  /// capacity persists across steps.
  std::vector<std::uint64_t> batch_addrs_;
  std::vector<std::uint64_t> batch_modules_;
  std::uint64_t combined_this_step_ = 0;
  std::uint64_t* replies_counter_ = nullptr;
};

}  // namespace levnet::emulation
