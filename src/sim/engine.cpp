#include "sim/engine.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace levnet::sim {

SyncEngine::SyncEngine(const topology::Graph& graph, TrafficHandler& handler,
                       EngineConfig config, const topology::Liveness* live)
    : graph_(graph),
      live_(live),
      handler_(handler),
      config_(config),
      queues_(graph.edge_count()),
      edge_active_(graph.edge_count(), 0),
      edge_dirty_(graph.edge_count(), 0),
      node_load_(graph.node_count(), 0) {
  // Per-step scratch is sized for the worst step up front: at most one
  // landing per directed edge, every edge active, and handler fan-out
  // bounded by a node's degree in the common (non-combining) case. Growth
  // past these marks is still legal — capacity then persists — but typical
  // steady-state steps never touch the heap.
  const std::size_t edges = graph.edge_count();
  landings_.reserve(edges);
  active_.reserve(edges);
  next_active_.reserve(edges);
  dirty_edges_.reserve(edges);
  scratch_forwards_.reserve(graph.max_out_degree() + 1);
  if (config_.step_threads != 1) {
    // levnet-lint: shard-ordered(shard_transmit/decide_landings merge per-shard results in shard order)
    auto pool = std::make_unique<support::ThreadPool>(config_.step_threads);
    if (pool->size() > 1) {
      shard_next_active_.resize(pool->size());
      step_pool_ = std::move(pool);
    }
    // A 1-wide pool (e.g. step_threads=0 on a 1-core host) is dropped: the
    // serial path is the same computation without the phase scaffolding.
  }
  concurrent_capable_ = handler_.route_concurrent_capable();
  obs_ = config_.recorder;
  if (obs_ != nullptr) {
    obs_->ensure_lanes(step_pool_ != nullptr ? step_pool_->size() : 1);
  }
}

void SyncEngine::reset() {
  // dirty_edges_ is every edge that queued a packet since the last reset —
  // a strict superset of active_, so packets stranded on edges that were
  // blocked out of active_ by a bounded-buffer deadlock or a mid-flight
  // abort are cleared too (they used to leak into the next run).
  for (const EdgeId e : dirty_edges_) {
    queues_[e].clear();
    edge_active_[e] = 0;
    edge_dirty_[e] = 0;
  }
  dirty_edges_.clear();
  active_.clear();
  landings_.clear();
  redirects_.clear();
  // Per-shard scratch can hold edges from an aborted mid-flight step (the
  // run stopped between the shard fill and the barrier merge never happens
  // in practice, but a defensive drain is cheap and keeps the invariant
  // "reset() leaves no step residue" unconditional).
  for (std::vector<EdgeId>& shard : shard_next_active_) shard.clear();
  dec_kind_.clear();
  dec_next_.clear();
  dec_edge_.clear();
  pool_.clear();
  std::fill(node_load_.begin(), node_load_.end(), 0);
  metrics_.reset();
  now_ = 0;
}

void SyncEngine::inject(Packet packet, NodeId at, support::Rng& rng) {
  packet.inject_step = now_;
  packet.came_from = topology::kInvalidNode;
  ++metrics_.injected;
  if (obs_ != nullptr) obs_->count_injection();
  const PacketRef ref = pool_.allocate();
  pool_.get(ref) = packet;
  route_from(ref, at, rng);
}

void SyncEngine::route_from(PacketRef ref, NodeId at, support::Rng& rng) {
  scratch_forwards_.clear();
  scratch_forward_edges_.clear();
  handler_.on_packet(pool_.get(ref), at, now_, rng, scratch_forwards_);
  if (topology::degraded(live_) != nullptr && !scratch_forwards_.empty() &&
      !resolve_faulted_forwards(ref, at, rng)) {
    // Every forward was blocked by a fault and the handler had no detour:
    // the packet is lost (counted, never silently).
    pool_.release(ref);
    return;
  }
  if (scratch_forwards_.empty()) {
    const Packet& packet = pool_.get(ref);
    ++metrics_.consumed;
    metrics_.steps = std::max(metrics_.steps, now_);
    metrics_.total_hops += packet.hops;
    const std::uint32_t journey = now_ - packet.inject_step;
    metrics_.total_delay +=
        journey - std::min<std::uint32_t>(journey, packet.hops);
    if (obs_ != nullptr) {
      // Consumption runs in serial contexts only (inject, the serial
      // landing loops, phase C's replay), so the recorder sees deliveries
      // in landing order at every step_threads value.
      obs_->on_consume(static_cast<std::uint8_t>(packet.kind), packet.src,
                       packet.inject_step, packet.hops, now_);
    }
    pool_.release(ref);
    return;
  }
  // Fan-out: the last forward keeps the original's pool slot, earlier ones
  // take copies. (allocate() may move the pool, so re-fetch per copy.)
  const std::size_t fan = scratch_forwards_.size();
  const bool hinted = scratch_forward_edges_.size() == fan;  // degraded mode
  for (std::size_t i = 0; i + 1 < fan; ++i) {
    const PacketRef copy = pool_.allocate();
    pool_.get(copy) = pool_.get(ref);
    pool_.get(copy).route_state = scratch_forwards_[i].route_state;
    enqueue(copy, at, scratch_forwards_[i].to,
            hinted ? scratch_forward_edges_[i] : topology::kInvalidEdge);
  }
  pool_.get(ref).route_state = scratch_forwards_[fan - 1].route_state;
  enqueue(ref, at, scratch_forwards_[fan - 1].to,
          hinted ? scratch_forward_edges_[fan - 1] : topology::kInvalidEdge);
}

bool SyncEngine::try_detour(PacketRef ref, NodeId at, NodeId blocked,
                            support::Rng& rng, NodeId& next, EdgeId& edge) {
  const std::uint32_t max_tries = graph_.out_degree(at) + 1;
  for (std::uint32_t tries = 0; tries < max_tries; ++tries) {
    const NodeId detour = handler_.on_fault(pool_.get(ref), at, blocked, rng);
    if (detour == topology::kInvalidNode) return false;
    const EdgeId e = graph_.edge_between(at, detour);
    if (e != topology::kInvalidEdge && live_->edge_live(e)) {
      ++metrics_.detours;
      if (obs_ != nullptr) obs_->count_detour();
      next = detour;
      edge = e;
      return true;
    }
    blocked = detour;  // that one is dead too; negotiate again
  }
  return false;
}

bool SyncEngine::resolve_faulted_forwards(PacketRef ref, NodeId at,
                                          support::Rng& rng) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < scratch_forwards_.size(); ++i) {
    Forward f = scratch_forwards_[i];
    EdgeId edge = graph_.edge_between(at, f.to);
    LEVNET_CHECK_MSG(edge != topology::kInvalidEdge,
                     "handler forwarded along a non-existent link");
    bool live = live_->edge_live(edge);
    if (!live) {
      NodeId detour = topology::kInvalidNode;
      live = try_detour(ref, at, f.to, rng, detour, edge);
      if (live) {
        f.to = detour;
        f.route_state = pool_.get(ref).route_state;  // on_fault re-prepared
      }
    }
    if (live) {
      scratch_forwards_[kept] = f;
      // Remember the resolved edge so the enqueue in route_from skips the
      // second adjacency scan.
      scratch_forward_edges_.resize(kept + 1);
      scratch_forward_edges_[kept] = edge;
      ++kept;
    } else {
      ++metrics_.dropped;
    }
  }
  scratch_forwards_.resize(kept);
  return kept != 0;
}

void SyncEngine::enqueue(PacketRef ref, NodeId at, NodeId next,
                         EdgeId edge_hint, bool priority_cached) {
  const EdgeId e = edge_hint != topology::kInvalidEdge
                       ? edge_hint
                       : graph_.edge_between(at, next);
  LEVNET_DCHECK(e == graph_.edge_between(at, next));
  LEVNET_CHECK_MSG(e != topology::kInvalidEdge,
                   "handler forwarded along a non-existent link");
  if (config_.discipline != QueueDiscipline::kFifo && !priority_cached) {
    Packet& packet = pool_.get(ref);
    packet.priority = handler_.priority(packet, at);
  }
  queues_[e].push(ref);
  metrics_.max_link_queue = std::max(
      metrics_.max_link_queue, static_cast<std::uint32_t>(queues_[e].size()));
  const std::uint32_t load = ++node_load_[at];
  metrics_.max_node_queue = std::max(metrics_.max_node_queue, load);
  if (!edge_active_[e]) {
    edge_active_[e] = 1;
    active_.push_back(e);
    // active_ is always a subset of dirty_edges_, so the dirty check only
    // needs to run on the inactive -> active transition.
    if (!edge_dirty_[e]) {
      edge_dirty_[e] = 1;
      dirty_edges_.push_back(e);
    }
  }
}

PacketRef SyncEngine::pop_by_discipline(support::RingQueue<PacketRef>& queue) {
  if (config_.discipline == QueueDiscipline::kFifo || queue.size() == 1) {
    return queue.pop();
  }
  // Keys were cached at enqueue time (Packet::priority), so the selection
  // scan is a comparison loop over pooled keys with no handler round-trips.
  std::size_t best = 0;
  std::uint32_t best_key = pool_.get(queue.at(0)).priority;
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const std::uint32_t key = pool_.get(queue.at(i)).priority;
    const bool better = config_.discipline == QueueDiscipline::kFurthestFirst
                            ? key > best_key
                            : key < best_key;
    if (better) {
      best = i;
      best_key = key;
    }
  }
  return queue.extract(best);
}

void SyncEngine::drain_dead_edge(EdgeId e, support::Rng& rng) {
  // The link died while packets sat on it (time-triggered fault mid-run).
  // Each queued packet is re-aimed from the link's tail by the handler's
  // on_fault and re-enqueued after the transmission loop (eligible from
  // the next step, like any fresh enqueue); packets without a detour drop.
  auto& queue = queues_[e];
  const NodeId tail = graph_.edge_tail(e);
  const NodeId head = graph_.edge_head(e);
  while (!queue.empty()) {
    const PacketRef ref = queue.pop();
    --node_load_[tail];
    NodeId next = topology::kInvalidNode;
    EdgeId detour = topology::kInvalidEdge;
    if (try_detour(ref, tail, head, rng, next, detour)) {
      redirects_.push_back(Redirect{ref, tail, next, detour});
    } else {
      ++metrics_.dropped;
      pool_.release(ref);
    }
  }
}

void SyncEngine::shard_transmit() {
  const std::size_t n = active_.size();
  landings_.resize(n);
  const std::size_t shards = shard_next_active_.size();
  // Fault-free + unbounded: every active link pops exactly one packet, so
  // shard s owns active_[begin, end), the matching landings_ slice, and
  // every queue/pool-slot/edge-flag it touches — disjoint across shards.
  // levnet-lint: shard-ordered(per-shard next_active_ slices concatenated in shard order below)
  step_pool_->parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = n * s / shards;
    const std::size_t end = n * (s + 1) / shards;
    std::vector<EdgeId>& local_next = shard_next_active_[s];
    for (std::size_t i = begin; i < end; ++i) {
      const EdgeId e = active_[i];
      auto& queue = queues_[e];
      const PacketRef ref = pop_by_discipline(queue);
      Packet& packet = pool_.get(ref);
      packet.hops += 1;
      LEVNET_DCHECK(packet.hops != 0);  // 16-bit hop counter must not wrap
      packet.came_from = graph_.edge_tail(e);
      landings_[i] = Landing{ref, graph_.edge_head(e)};
      if (!queue.empty()) {
        local_next.push_back(e);
      } else {
        edge_active_[e] = 0;
      }
    }
    if (obs_ != nullptr) {
      // Per-shard probe lane: folded back into the cumulative counters in
      // shard order by merge_lanes() at the step barrier.
      obs_->lane(s).transmissions += end - begin;
    }
  });
  // node_load_ decrements are cross-shard (a node's out-links can straddle
  // a shard boundary), so they run serially after the barrier; loads are
  // only read at enqueue time, which is serial too, so by then the state
  // matches the serial engine exactly.
  for (const EdgeId e : active_) --node_load_[graph_.edge_tail(e)];
  for (std::vector<EdgeId>& local_next : shard_next_active_) {
    next_active_.insert(next_active_.end(), local_next.begin(),
                        local_next.end());
    local_next.clear();
  }
}

void SyncEngine::decide_landings(std::uint64_t step_key) {
  const std::size_t n = landings_.size();
  dec_kind_.assign(n, 0);
  dec_next_.resize(n);
  dec_edge_.resize(n);
  const std::size_t shards = shard_next_active_.size();
  const bool keyed = config_.discipline != QueueDiscipline::kFifo;
  // Pure decisions only: each worker writes its landings' packet bodies and
  // dec_* slots, draws from landing-private substreams, and reads the
  // immutable graph/handler. All queue pushes, activations and metric
  // updates happen in commit_landings, in landing order.
  // levnet-lint: shard-ordered(decisions committed in landing order by commit_landings)
  step_pool_->parallel_for(shards, [&](std::size_t s) {
    const std::size_t begin = n * s / shards;
    const std::size_t end = n * (s + 1) / shards;
    Forward forward{};
    for (std::size_t i = begin; i < end; ++i) {
      const Landing& landing = landings_[i];
      Packet& packet = pool_.get(landing.ref);
      support::Rng sub = landing_rng(step_key, i);
      if (!handler_.route_concurrent(packet, landing.at, now_, sub, forward)) {
        continue;  // deferred: phase C replays with an identical substream
      }
      packet.route_state = forward.route_state;
      if (keyed) packet.priority = handler_.priority(packet, landing.at);
      dec_kind_[i] = 1;
      dec_next_[i] = forward.to;
      // The adjacency scan is the commit loop's other hot lookup; resolving
      // it here moves it off the serial path. kInvalidEdge simply falls
      // through to enqueue's own lookup and its diagnostic CHECK.
      dec_edge_[i] = graph_.edge_between(landing.at, forward.to);
    }
  });
}

void SyncEngine::commit_landings(std::uint64_t step_key) {
  for (std::size_t i = 0; i < landings_.size(); ++i) {
    const Landing& landing = landings_[i];
    if (dec_kind_[i] != 0) {
      // A kInvalidEdge slot (handler named a non-neighbor) passes through
      // as "look it up here", reaching enqueue's diagnostic CHECK.
      enqueue(landing.ref, landing.at, dec_next_[i], dec_edge_[i],
              /*priority_cached=*/true);
    } else {
      support::Rng sub = landing_rng(step_key, i);
      route_from(landing.ref, landing.at, sub);
    }
  }
}

std::size_t SyncEngine::step(support::Rng& rng) {
  ++now_;
  metrics_.peak_in_flight =
      std::max(metrics_.peak_in_flight,
               static_cast<std::uint32_t>(pool_.live()));
  landings_.clear();
  redirects_.clear();
  next_active_.clear();
  const std::uint64_t dropped_before = metrics_.dropped;
  // Sharding needs the one-pop-per-active-link invariant (unbounded
  // buffers) and a pristine network (dead-link drains negotiate detours
  // through the handler, inherently serial). The predicate depends only on
  // engine state, never on thread scheduling, and either branch produces
  // the same state by the landing phase.
  const topology::Liveness* const mask = topology::degraded(live_);
  const bool sharded = config_.node_buffer_bound == 0 &&
                       step_pool_ != nullptr && mask == nullptr;
  // Transmission phase: every active directed link moves one packet, unless
  // bounded-buffer mode blocks it.
  if (sharded) {
    shard_transmit();
  } else {
    for (const EdgeId e : active_) {
      auto& queue = queues_[e];
      const NodeId tail = graph_.edge_tail(e);
      const NodeId head = graph_.edge_head(e);
      if (mask != nullptr && !mask->edge_live(e)) {
        drain_dead_edge(e, rng);
        edge_active_[e] = 0;  // queue is empty now; redirects re-activate
        continue;
      }
      if (config_.node_buffer_bound != 0 &&
          node_load_[head] >= config_.node_buffer_bound) {
        next_active_.push_back(e);  // blocked; stays active
        continue;
      }
      const PacketRef ref = pop_by_discipline(queue);
      --node_load_[tail];
      Packet& packet = pool_.get(ref);
      packet.hops += 1;
      LEVNET_DCHECK(packet.hops != 0);  // 16-bit hop counter must not wrap
      packet.came_from = tail;
      landings_.push_back(Landing{ref, head});
      if (!queue.empty()) {
        next_active_.push_back(e);
      } else {
        edge_active_[e] = 0;
      }
    }
    if (obs_ != nullptr) {
      // Lane 0 is the serial engine's shard; one pop per landing.
      obs_->lane(0).transmissions += landings_.size();
    }
  }
  std::swap(active_, next_active_);
  // Evacuation accounting must happen before the landing phase: drops
  // during landings belong to packets that did move this step (they are
  // already in landings_), while transmission-phase drops are the only
  // trace a drained dead link leaves.
  const std::size_t evacuation_drops =
      static_cast<std::size_t>(metrics_.dropped - dropped_before);
  // Refugees from dead links re-join their new queues ahead of this step's
  // landings (a fixed, deterministic order).
  const std::size_t redirected = redirects_.size();
  for (const Redirect& redirect : redirects_) {
    enqueue(redirect.ref, redirect.at, redirect.next, redirect.edge);
  }
  redirects_.clear();
  // Landing phase: consumed or forwarded; new enqueues become eligible for
  // transmission from the next step (they are appended to active_ now, but
  // this step's transmission loop has already finished).
  // Landings draw from landing-private substreams derived off the main
  // stream's position WITHOUT advancing it, so the landing order in which
  // draws happen cannot matter — the precondition for sharding the
  // decision phase, and the one model in force for every buffer bound and
  // step_threads value, so one spec means one result.
  const std::uint64_t step_key = rng.stream_key(now_);
  if (sharded && concurrent_capable_ && !landings_.empty()) {
    decide_landings(step_key);
    commit_landings(step_key);
  } else {
    // Serial path: route_from consumes exactly the draws phase B would
    // have, in the same per-landing streams — bit-identical to
    // decide+commit by construction, with zero phase scaffolding (the
    // perf_alloc suite pins this path allocation-free).
    for (std::size_t i = 0; i < landings_.size(); ++i) {
      support::Rng sub = landing_rng(step_key, i);
      route_from(landings_[i].ref, landings_[i].at, sub);
    }
  }
  if (obs_ != nullptr) {
    // Step barrier: fold the per-shard lanes in shard order, then emit the
    // trace/timeline points. Everything here depends only on committed
    // engine state, so the recorder's output is bit-identical across
    // step_threads values.
    obs_->merge_lanes();
    if (obs_->trace_enabled()) obs_->trace_step(now_);
    if (obs_->sample_due(now_)) {
      obs_->begin_sample(now_, pool_.live());
      for (const EdgeId e : active_) {
        obs_->sample_edge(e, queues_[e].size());
      }
    }
  }
  // Evacuated packets — redirected *or* dropped — count as movement: a
  // step that only cleared a dead link changed state and must not read as
  // a bounded-buffer deadlock.
  return landings_.size() + redirected + evacuation_drops;
}

bool SyncEngine::run(support::Rng& rng) {
  while (!active_.empty()) {
    if (config_.max_steps != 0 && now_ >= config_.max_steps) {
      metrics_.aborted = true;
      return false;
    }
    const std::size_t moved = step(rng);
    if (moved == 0 && !active_.empty()) {
      metrics_.deadlocked = true;
      return false;
    }
  }
  return true;
}

}  // namespace levnet::sim
