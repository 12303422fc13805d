#pragma once
// Synchronous network simulator.
//
// Model (Section 2.2): time advances in unit steps; in each step every
// directed link transmits at most one packet, selected from the link's
// queue by the configured discipline (FIFO by default, matching the paper's
// algorithms; furthest-destination-first for the mesh algorithm of
// Section 3.4). Packets that land on a node are handed to the
// TrafficHandler, which decides consumption or next hop(s); newly enqueued
// packets become eligible for transmission from the following step, so a
// packet traverses at most one link per step.
//
// An optional per-node buffer bound models constant-queue hardware: a link
// refuses to transmit while the receiving node's aggregate occupancy is at
// the bound (used by the O(1)-queue variants of Section 3.4).
//
// Data plane: every in-flight Packet lives in an ObjectPool and all queues
// (per-link rings, the landing staging buffer) carry 32-bit PacketRef
// handles, so a transmission moves 4 bytes instead of a 56-byte struct and
// the CRCW combining layer edits queued packets in place through the pool.
// After a warm-up pass the pool, the queues and the per-step scratch
// vectors all sit at their high-water capacities and step() performs no
// heap allocation (asserted by tests/perf_alloc_test.cpp).
//
// Parallel stepping (EngineConfig::step_threads > 1): with unbounded node
// buffers a step is phase-structured so the two heavy loops shard across a
// ThreadPool while every commit stays serial and ordered. Phase A partitions
// active_ into contiguous shards (fault-free + unbounded means every active
// link transmits exactly one packet, so landing slot i belongs to active_[i]
// and shards write disjoint preallocated slices); phase B runs the handler's
// pure route_concurrent decision per landing against a landing-private Rng
// substream; phase C commits decisions — and replays deferred landings
// through on_packet with an identical substream — in landing order on the
// driving thread. Reports and final memories are bit-identical to
// step_threads=1 by construction (same draws, same push order, same metric
// updates), pinned by the golden-equivalence suite and the sharded-step
// tests in tests/concurrency_test.cpp.
//
// Degraded mode (src/faults/): when the run's liveness mask has anything
// dead (topology::Liveness::has_faults()), every forward is validated
// against it; blocked forwards go through TrafficHandler::on_fault, which
// either supplies a detour via a surviving neighbor (counted in
// RunMetrics::detours) or gives up (the packet drops, counted in
// RunMetrics::dropped). Links that die mid-run with packets queued are
// evacuated through the same hook. Without a mask every one of these
// branches is short-circuited by a single pointer test, and behaviour is
// bit-identical to the fault-free engine (pinned by the golden suite).

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/traffic.hpp"
#include "support/object_pool.hpp"
#include "support/ring_queue.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/graph.hpp"
#include "topology/liveness.hpp"

namespace levnet::obs {
class Recorder;
}

namespace levnet::sim {

enum class QueueDiscipline : std::uint8_t {
  kFifo = 0,
  kFurthestFirst = 1,  // larger TrafficHandler::priority served first
  kNearestFirst = 2,   // smaller priority served first
};

struct EngineConfig {
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// Abort the run (metrics().aborted) once this many steps elapse; 0 means
  /// no budget. The PRAM emulator uses this to trigger rehashing.
  std::uint32_t max_steps = 0;
  /// If nonzero, a node's outgoing queues may hold at most this many packets
  /// for a link to transmit into it (bounded-buffer mode).
  std::uint32_t node_buffer_bound = 0;
  /// Total parallelism (including the caller) for the sharded step phases;
  /// 1 = fully serial engine (default), 0 = hardware concurrency. Results
  /// are bit-identical across values — sharding only engages fault-free
  /// with unbounded buffers, and every commit is shard-ordered.
  std::uint32_t step_threads = 1;
  /// Optional observability recorder (src/obs/). Null (the default) keeps
  /// every instrumented path a single pointer test: no allocation, no
  /// behaviour change, byte-identical reports. The recorder never feeds
  /// back into routing, so attaching one is equally byte-inert.
  obs::Recorder* recorder = nullptr;
};

class SyncEngine {
 public:
  /// `live` is the run's fault mask over `graph` (null = pristine); its
  /// owner may kill more of it between steps, and it must outlive the
  /// engine.
  SyncEngine(const topology::Graph& graph, TrafficHandler& handler,
             EngineConfig config,
             const topology::Liveness* live = nullptr);

  /// Places a packet on node `at` at the current time; the handler routes it
  /// immediately (it starts crossing its first link next step).
  void inject(Packet packet, NodeId at, support::Rng& rng);

  /// Advances one step: transmissions, then landings. Returns the number of
  /// packets that moved.
  std::size_t step(support::Rng& rng);

  /// Runs until all queues drain, the step budget is exhausted, or
  /// bounded-buffer mode deadlocks. Returns true iff drained normally.
  bool run(support::Rng& rng);

  [[nodiscard]] const RunMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::uint32_t now() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept { return active_.empty(); }

  /// Packets currently alive inside the engine (queued or mid-landing);
  /// zero whenever the engine is drained or freshly reset.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return pool_.live();
  }

  /// Direct access to a directed link's queue of packet handles. The CRCW
  /// combining layer (Theorem 2.6) scans a node's queues and edits pooled
  /// packets in place (via packet()) to merge same-address requests before
  /// they depart.
  [[nodiscard]] support::RingQueue<PacketRef>& edge_queue(EdgeId e) noexcept {
    return queues_[e];
  }

  /// Pooled packet behind a handle obtained from edge_queue().
  [[nodiscard]] Packet& packet(PacketRef ref) noexcept {
    return pool_.get(ref);
  }
  [[nodiscard]] const Packet& packet(PacketRef ref) const noexcept {
    return pool_.get(ref);
  }

  /// Clears queues, the pool and metrics for a fresh run on the same graph.
  /// Covers *every* queue populated since the last reset — including edges
  /// that were blocked out of the active list when a bounded-buffer run
  /// deadlocked or a budgeted run aborted mid-flight — so no packet can
  /// leak into the next run.
  void reset();

  /// Adjusts the step budget (0 = unlimited). The emulator grows it across
  /// rehash attempts so an initially mis-set budget cannot live-lock.
  void set_max_steps(std::uint32_t max_steps) noexcept {
    config_.max_steps = max_steps;
  }

 private:
  struct Landing {
    PacketRef ref;
    NodeId at;
  };
  /// A packet pulled off a dead link mid-run, re-aimed by on_fault; it is
  /// re-enqueued after the transmission loop so it becomes eligible from
  /// the next step, like any other enqueue.
  struct Redirect {
    PacketRef ref;
    NodeId at;
    NodeId next;
    EdgeId edge;  // at->next, already resolved during the drain
  };

  void route_from(PacketRef ref, NodeId at, support::Rng& rng);
  /// `edge_hint` carries an already-resolved at->next edge id (degraded
  /// mode validates forwards before enqueueing and should not pay the
  /// adjacency scan twice); kInvalidEdge means "look it up here".
  /// `priority_cached` skips the discipline-key recomputation when the
  /// parallel decision phase already wrote Packet::priority.
  void enqueue(PacketRef ref, NodeId at, NodeId next,
               EdgeId edge_hint = topology::kInvalidEdge,
               bool priority_cached = false);
  [[nodiscard]] PacketRef pop_by_discipline(
      support::RingQueue<PacketRef>& queue);

  /// Degraded mode (topology::degraded(live_) != null): rewrites
  /// scratch_forwards_ so every forward targets a live link, asking the
  /// handler's on_fault for detours; forwards with no detour are removed
  /// (counted as dropped).
  /// Returns false when nothing survived.
  [[nodiscard]] bool resolve_faulted_forwards(PacketRef ref, NodeId at,
                                              support::Rng& rng);

  /// Bounded on_fault negotiation for the packet at `at` whose next hop
  /// `blocked` crosses a dead link: asks the handler for replacements (up
  /// to degree+1 tries so a handler that only proposes dead hops cannot
  /// spin) and resolves `next`/`edge` to a live link. False = the handler
  /// gave up; the caller drops the packet.
  [[nodiscard]] bool try_detour(PacketRef ref, NodeId at, NodeId blocked,
                                support::Rng& rng, NodeId& next,
                                EdgeId& edge);

  /// Degraded mode: empties the queue of a dead link by asking on_fault to
  /// re-aim each queued packet from the link's tail (time-triggered faults
  /// can strand packets on a link that was live when they joined it).
  void drain_dead_edge(EdgeId e, support::Rng& rng);

  /// The landing-private substream for landing `index` of the step whose
  /// stream_key is `step_key`. The index is spread by an odd Weyl constant
  /// before the splitmix64 finalizer: raw `key + i * gamma` seeds would
  /// hand Rng::reseed inputs that differ by its own increment, producing
  /// correlated (shifted) xoshiro state words between adjacent landings.
  [[nodiscard]] static support::Rng landing_rng(std::uint64_t step_key,
                                               std::size_t index) noexcept {
    std::uint64_t t = step_key ^ (0xd1342543de82ef95ULL * (index + 1));
    return support::Rng(support::splitmix64(t));
  }

  /// Phase A: shards the transmission loop over the pool. Fault-free +
  /// unbounded only — every active link pops exactly one packet, so
  /// landings_[i] is active_[i]'s slot and shards touch disjoint edges,
  /// queues, pool slots and landing slices. node_load_ decrements (cross-
  /// shard: a node's out-edges can straddle a boundary) and next_active_
  /// concatenation (shard order == sequential order) run serially after
  /// the barrier.
  void shard_transmit();
  /// Phase B: per-landing route_concurrent decisions into dec_* slots,
  /// sharded over the pool; commits happen in phase C only.
  void decide_landings(std::uint64_t step_key);
  /// Phase C: serial, landing-ordered commit — decided landings enqueue
  /// with their cached edge/priority, deferred landings replay through
  /// route_from with an identical substream.
  void commit_landings(std::uint64_t step_key);

  const topology::Graph& graph_;
  const topology::Liveness* live_;
  TrafficHandler& handler_;
  EngineConfig config_;

  support::ObjectPool<Packet> pool_;                   // every in-flight packet
  std::vector<support::RingQueue<PacketRef>> queues_;  // one per directed edge
  std::vector<std::uint8_t> edge_active_;
  std::vector<EdgeId> active_;
  std::vector<EdgeId> next_active_;
  /// Edges whose queue received at least one packet since the last reset;
  /// superset of active_ at all times, and the set reset() must drain.
  std::vector<EdgeId> dirty_edges_;
  std::vector<std::uint8_t> edge_dirty_;
  std::vector<Landing> landings_;
  std::vector<Redirect> redirects_;
  std::vector<Forward> scratch_forwards_;
  /// Edge ids of the surviving scratch_forwards_, filled by
  /// resolve_faulted_forwards so the enqueue below reuses them; empty in
  /// fault-free runs.
  std::vector<EdgeId> scratch_forward_edges_;
  std::vector<std::uint32_t> node_load_;

  // Parallel stepping (config_.step_threads != 1). The pool exists only
  // when it would have >1 thread; all result aggregation is shard-ordered
  // (see shard_transmit / decide_landings / commit_landings).
  // levnet-lint: shard-ordered(per-shard slices merged in shard order at the step barrier)
  std::unique_ptr<support::ThreadPool> step_pool_;
  /// Per-shard continuation lists, concatenated into next_active_ in shard
  /// order at the barrier (== the serial engine's append order).
  std::vector<std::vector<EdgeId>> shard_next_active_;
  /// Phase B decision slots, one per landing: kind 1 = committed decision
  /// (next/edge below are valid), 0 = deferred to phase C's replay.
  std::vector<std::uint8_t> dec_kind_;
  std::vector<NodeId> dec_next_;
  std::vector<EdgeId> dec_edge_;
  /// Cached handler.route_concurrent_capable(): skip phase B wholesale for
  /// handlers that defer every landing.
  bool concurrent_capable_ = false;

  /// Cached config_.recorder: the hot loops test one pointer.
  obs::Recorder* obs_ = nullptr;

  RunMetrics metrics_;
  std::uint32_t now_ = 0;
};

}  // namespace levnet::sim
