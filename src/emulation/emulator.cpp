#include "emulation/emulator.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace levnet::emulation {

using pram::Addr;
using pram::MemOp;
using pram::OpKind;
using pram::ProcId;
using pram::Word;
using sim::Packet;
using sim::PacketKind;

namespace {
constexpr std::uint32_t kMaxPramSteps = 1U << 24;
}  // namespace

NetworkEmulator::NetworkEmulator(const EmulationFabric& fabric,
                                 EmulatorConfig config)
    : fabric_(fabric),
      config_(config),
      live_(config.faults != nullptr ? &config.faults->liveness() : nullptr),
      rng_(config.seed) {}

NetworkEmulator::~NetworkEmulator() = default;

EmulationReport NetworkEmulator::run(pram::PramProgram& program,
                                     pram::SharedMemory& memory) {
  policy_ = program.write_policy();
  program.init_memory(memory);
  memory_ = &memory;

  const ProcId procs = program.processor_count();
  LEVNET_CHECK_MSG(procs <= fabric_.processors(),
                   "program needs more processors than the network has");
  pending_value_.assign(procs, 0);
  pending_read_.assign(procs, 0);
  read_served_.assign(procs, 0);

  faults::FaultInjector* injector = config_.faults;
  if (injector != nullptr) {
    for (const faults::FaultEvent& event : injector->plan().events()) {
      // Killing a processor-hosting node is the explicit kProc axis (with
      // its slot-adoption semantics); a plain kNode event there would die
      // without reassigning the slot. FaultPlan::sample keeps the kinds
      // apart when given the right endpoint count; this guards hand-built
      // plans.
      LEVNET_CHECK_MSG(event.kind != faults::FaultKind::kNode ||
                           event.id >= fabric_.processors(),
                       "node faults must not hit processor-hosting nodes");
      LEVNET_CHECK_MSG(event.kind != faults::FaultKind::kProc ||
                           event.id < fabric_.processors(),
                       "proc faults must name a processor endpoint");
    }
    injector->reset();
    // Static faults (epoch 0) are active before anything runs, so the
    // initial hash draw already composes with the survivor remap.
    injector->advance_to(0);
  }

  const std::uint32_t degree = config_.hash_degree != 0
                                   ? config_.hash_degree
                                   : fabric_.route_scale();
  const std::uint64_t address_space =
      std::max<std::uint64_t>(program.address_space(), 1);
  hash_ = std::make_unique<hashing::PolynomialHash>(
      hashing::PolynomialHash::sample(degree, address_space, fabric_.modules(),
                                      rng_));

  sim::EngineConfig engine_config;
  engine_config.discipline = config_.discipline;
  engine_config.node_buffer_bound = config_.node_buffer_bound;
  engine_config.step_threads = config_.step_threads;
  engine_config.recorder = config_.recorder;
  const std::uint32_t base_budget =
      config_.step_budget_factor != 0
          ? config_.step_budget_factor * fabric_.route_scale()
          : 0;
  engine_config.max_steps = base_budget;
  engine_ = std::make_unique<sim::SyncEngine>(fabric_.graph(), *this,
                                              engine_config, live_);

  EmulationReport report;
  std::vector<MemOp> ops(procs);
  std::uint64_t local_this_step = 0;
  std::uint64_t requests_this_step = 0;
  std::uint64_t replies_this_step = 0;

  bool defeated = false;  // faults ended the run early (complete=false)
  for (std::uint32_t step = 0; !program.finished(step) && !defeated; ++step) {
    LEVNET_CHECK_MSG(step < kMaxPramSteps, "PRAM program did not terminate");
    if (injector != nullptr) {
      // One fault epoch per PRAM step. Module deaths rebuild the survivor
      // remap inside the injector and additionally ride the existing
      // rehash path: a fresh polynomial re-balances the load that the
      // remap just concentrated onto survivors.
      const faults::FaultInjector::Applied applied =
          injector->advance_to(step);
      // Processor deaths need no extra action here: the compound kill
      // already took the co-located module with it (so applied.modules
      // carries the rehash below), and host_node() starts resolving the
      // dead slots to their adopting survivors from this step on.
      if (applied.modules != 0) {
        ++report.fault_rehashes;
        if (config_.recorder != nullptr) {
          config_.recorder->count_rehash_attempt();
        }
        hash_ = std::make_unique<hashing::PolynomialHash>(
            hashing::PolynomialHash::sample(degree, address_space,
                                            fabric_.modules(), rng_));
      }
    }
    for (ProcId p = 0; p < procs; ++p) ops[p] = program.issue(p, step);

    for (std::uint32_t attempt = 0;; ++attempt) {
      if (attempt > config_.max_rehash_attempts) {
        // Under faults this is a scenario outcome (the plan defeated the
        // budget), not a bug: report an incomplete run instead of dying.
        LEVNET_CHECK_MSG(injector != nullptr,
                         "rehash budget exhausted; raise step_budget_factor");
        report.complete = false;
        defeated = true;
        // The defeated attempt's degraded-mode counters still matter —
        // they describe exactly why the plan won.
        report.detour_hops += engine_->metrics().detours;
        report.dropped_packets += engine_->metrics().dropped;
        break;
      }
      // Exponential backoff on the step budget: a freshly drawn hash plus a
      // doubled budget guarantees termination even if the configured budget
      // was below the feasible cost of the step.
      if (base_budget != 0) {
        const std::uint32_t shift = std::min(attempt, 16U);
        engine_->set_max_steps(base_budget << shift);
      }
      engine_->reset();
      claims_.clear();       // O(1): epoch bump, capacity retained
      trails_.clear();
      trail_nodes_.reset();  // arena rewind, not a free
      std::fill(pending_read_.begin(), pending_read_.end(), std::uint8_t{0});
      std::fill(read_served_.begin(), read_served_.end(), std::uint8_t{0});
      combined_this_step_ = 0;
      local_this_step = 0;
      requests_this_step = 0;
      replies_this_step = 0;

      // Batched hashing: one coefficient-major sweep over every address
      // this attempt issues (bit-identical to per-op module_of calls, but
      // the modular Horner chains of independent addresses overlap instead
      // of serializing one op at a time). Re-done per attempt — a rehash
      // replaced the polynomial.
      batch_addrs_.clear();
      for (ProcId p = 0; p < procs; ++p) {
        if (ops[p].kind != OpKind::kNone) batch_addrs_.push_back(ops[p].addr);
      }
      batch_modules_.resize(batch_addrs_.size());
      hash_->evaluate_batch(batch_addrs_.data(), batch_addrs_.size(),
                            batch_modules_.data());
      std::size_t batch_cursor = 0;

      for (ProcId p = 0; p < procs; ++p) {
        const MemOp& op = ops[p];
        if (op.kind == OpKind::kNone) continue;
        const std::uint32_t module =
            remap_of(static_cast<std::uint32_t>(batch_modules_[batch_cursor++]));
        // levnet-lint: endpoint-liveness(remap_of output is live by construction)
        const NodeId module_node = fabric_.module_node(module);
        // Work reassignment: dead slots issue from their adopting survivor.
        const NodeId proc_node = host_node(p);
        if (op.kind == OpKind::kRead) pending_read_[p] = 1;

        if (module_node == proc_node) {
          // The processor owns this module: unit-time local access, no
          // network traffic (reads still observe the pre-step state).
          ++local_this_step;
          if (op.kind == OpKind::kRead) {
            pending_value_[p] = memory.read(op.addr);
            read_served_[p] = 1;
          } else {
            merge_claim(op.addr, {p, op.value});
          }
          continue;
        }

        Packet packet;
        packet.kind = PacketKind::kRequest;
        packet.op = op.kind == OpKind::kRead ? sim::MemOpKind::kRead
                                             : sim::MemOpKind::kWrite;
        packet.addr = op.addr;
        packet.value = op.value;
        packet.proc = p;
        packet.src = proc_node;
        packet.dst = module_node;
        fabric_.router().prepare(packet, rng_, live_);
        ++requests_this_step;
        engine_->inject(std::move(packet), proc_node, rng_);
      }

      // Count replies generated during the run via the handler.
      replies_counter_ = &replies_this_step;
      const bool drained = engine_->run(rng_);
      replies_counter_ = nullptr;
      // The engine's peak and the recorder's virtual clock both cover
      // aborted attempts: the work happened, so the high-water mark counts
      // and traced steps must stay monotone across the retry.
      report.peak_in_flight =
          std::max(report.peak_in_flight, engine_->metrics().peak_in_flight);
      if (config_.recorder != nullptr) {
        config_.recorder->advance_time(engine_->now());
      }
      if (drained) break;
      const sim::RunMetrics& metrics = engine_->metrics();
      if (metrics.deadlocked) {
        // Degraded detour traffic can wedge bounded buffers in patterns
        // the two-phase analysis never produces; under faults that is a
        // defeat outcome like budget exhaustion, not a bug.
        LEVNET_CHECK_MSG(injector != nullptr,
                         "bounded-buffer deadlock during emulation");
        report.complete = false;
        defeated = true;
        report.detour_hops += metrics.detours;
        report.dropped_packets += metrics.dropped;
        break;
      }
      // Over budget: choose a new hash function and re-run the step
      // (Section 2.1's rehashing rule). Memory is untouched mid-step, so
      // the retry is exact.
      ++report.rehashes;
      if (config_.recorder != nullptr) {
        config_.recorder->count_rehash_attempt();
      }
      hash_ = std::make_unique<hashing::PolynomialHash>(
          hashing::PolynomialHash::sample(degree, address_space,
                                          fabric_.modules(), rng_));
    }

    if (defeated) break;

    // Step epilogue: every read must have been answered, writes land under
    // the machine policy, results are delivered.
    for (ProcId p = 0; p < procs; ++p) {
      if (pending_read_[p] != 0 && read_served_[p] == 0) {
        // Only a fault can lose a request (a connectivity-preserving plan
        // never does); fault-free this is a routing bug.
        LEVNET_CHECK_MSG(injector != nullptr,
                         "a read request was never answered");
        report.complete = false;
        defeated = true;
      }
    }
    if (defeated) {
      // Keep the fatal step's detour/drop evidence before bailing out.
      report.detour_hops += engine_->metrics().detours;
      report.dropped_packets += engine_->metrics().dropped;
      break;  // cannot deliver results; stop with partial state
    }
    claims_.for_each([&memory](const Addr& addr, const pram::WriteClaim& claim) {
      memory.write(addr, claim.value);
    });
    for (ProcId p = 0; p < procs; ++p) {
      if (pending_read_[p] != 0) {
        program.receive(p, step, pending_value_[p]);
      }
    }

    const sim::RunMetrics& metrics = engine_->metrics();
    report.pram_steps = step + 1;
    report.network_steps += metrics.steps;
    report.max_step_network = std::max(report.max_step_network, metrics.steps);
    report.step_costs.push_back(metrics.steps);
    report.max_link_queue =
        std::max(report.max_link_queue, metrics.max_link_queue);
    report.max_node_queue =
        std::max(report.max_node_queue, metrics.max_node_queue);
    report.request_packets += requests_this_step;
    report.reply_packets += replies_this_step;
    report.combined_requests += combined_this_step_;
    report.local_ops += local_this_step;
    report.detour_hops += metrics.detours;
    report.dropped_packets += metrics.dropped;
    if (injector != nullptr) {
      // Recovery overhead, slot side: every dead slot this step was extra
      // work some survivor executed on top of its own.
      report.adopted_slot_steps += injector->dead_procs();
    }
    if (metrics.dropped != 0) {
      // A dropped write is silently absent from memory; the run keeps
      // going (degraded completion) but can no longer claim correctness.
      report.complete = false;
    }
  }

  if (report.pram_steps != 0) {
    report.mean_step_network = static_cast<double>(report.network_steps) /
                               static_cast<double>(report.pram_steps);
  }
  if (injector != nullptr) {
    report.dead_links = injector->dead_links();
    report.dead_nodes = injector->dead_nodes();
    report.dead_modules = injector->dead_modules();
    report.dead_procs = injector->dead_procs();
  }
  if (config_.recorder != nullptr) {
    const obs::Recorder& rec = *config_.recorder;
    report.latency_p50 = rec.journey().quantile(0.50);
    report.latency_p95 = rec.journey().quantile(0.95);
    report.latency_p99 = rec.journey().quantile(0.99);
    report.queue_delay_p50 = rec.queue_delay().quantile(0.50);
    report.queue_delay_p95 = rec.queue_delay().quantile(0.95);
    report.queue_delay_p99 = rec.queue_delay().quantile(0.99);
  }
  memory_ = nullptr;
  return report;
}

std::uint32_t NetworkEmulator::module_of(pram::Addr addr) const {
  // remap . h: identity without faults (and bit-identical code path — the
  // injector pointer is the only branch), survivor-redirect under module
  // deaths, so no address can reach a dead module (hashing/exclusion.hpp).
  return remap_of(static_cast<std::uint32_t>((*hash_)(addr)));
}

bool NetworkEmulator::route_concurrent_capable() const {
  // Combining inspects and edits shared queues/trails at every landing —
  // nothing to decide concurrently. Everything else forwards most landings
  // with a pure next_hop.
  return !config_.combining;
}

bool NetworkEmulator::route_concurrent(sim::Packet& p, NodeId at,
                                       std::uint32_t step, support::Rng& rng,
                                       sim::Forward& out) const {
  (void)step;
  if (config_.combining) return false;
  // A landing on its destination is terminal for every router (requests
  // serve at the module, replies deliver), and both branches touch shared
  // per-run state — defer them untouched; the driving thread replays with
  // an identical substream. Everything else is exactly the non-combining
  // on_packet forward: one next_hop against the immutable router.
  if (at == p.dst) return false;
  const NodeId next = fabric_.router().next_hop(p, at, rng, live_);
  // Routers only report "arrived" at p.dst (terminal states are sticky),
  // so this cannot fire; the guard keeps a misbehaving router on the
  // serial diagnostic path instead of committing a half-made decision.
  LEVNET_DCHECK(next != topology::kInvalidNode);
  if (next == topology::kInvalidNode) return false;
  out = sim::Forward{next, p.route_state};
  return true;
}

NodeId NetworkEmulator::on_fault(sim::Packet& p, NodeId at, NodeId blocked,
                                 support::Rng& rng) {
  (void)blocked;
  if (config_.faults == nullptr) return topology::kInvalidNode;
  // Uniformly random surviving out-link of `at` — the degraded analogue of
  // phase 1's random link choice, so repeated detours around one obstacle
  // spread over distinct survivors instead of hammering one.
  const NodeId next = live_->random_live_neighbor(at, rng);
  if (next == topology::kInvalidNode) return next;  // cut off: drop
  // Re-aim the journey to resume from the detour target. Position-based
  // routers restart greedily from there; the butterfly router switches to
  // its recovery phase (Router::reroute).
  fabric_.router().reroute(p, next, rng, live_);
  return next;
}

void NetworkEmulator::on_packet(Packet& p, NodeId at, std::uint32_t step,
                                support::Rng& rng,
                                std::vector<sim::Forward>& out) {
  (void)step;
  if (p.kind == PacketKind::kRequest) {
    handle_request(p, at, rng, out);
  } else if (config_.combining) {
    handle_reply_combining(p, at, out);
  } else {
    handle_reply_plain(p, at, rng, out);
  }
}

std::uint32_t NetworkEmulator::priority(const Packet& p, NodeId at) const {
  if (p.kind == PacketKind::kRequest) {
    return fabric_.router().remaining(p, at);
  }
  return 0;
}

void NetworkEmulator::handle_request(Packet& p, NodeId at, support::Rng& rng,
                                     std::vector<sim::Forward>& out) {
  if (config_.combining) {
    // Every read landing leaves a route-back breadcrumb so the eventual
    // reply can retrace the (possibly merged) request tree.
    if (p.op == sim::MemOpKind::kRead) record_trail(p, at);
    if (try_merge_in_queue(p, at)) {
      ++combined_this_step_;
      // Combining runs on the serial landing path only
      // (route_concurrent_capable() is false), so this hook is serial too.
      if (config_.recorder != nullptr) {
        config_.recorder->count_combining_merge();
      }
      return;  // absorbed into a queued same-address request
    }
  }
  const NodeId next = fabric_.router().next_hop(p, at, rng, live_);
  if (next != topology::kInvalidNode) {
    out.push_back(sim::Forward{next, p.route_state});
    return;
  }
  serve_at_module(p, at, rng, out);
}

void NetworkEmulator::serve_at_module(Packet& p, NodeId at, support::Rng& rng,
                                      std::vector<sim::Forward>& out) {
  LEVNET_DCHECK(at == p.dst);
  if (p.op == sim::MemOpKind::kWrite) {
    merge_claim(p.addr, {p.proc, p.value});
    return;  // writes are not acknowledged (Section 2.4)
  }
  // Reads observe the pre-step memory; writes of this step are still
  // pending claims.
  const Word value = memory_->read(p.addr);
  if (replies_counter_ != nullptr) ++*replies_counter_;
  p.kind = PacketKind::kReply;
  p.value = value;
  if (config_.combining) {
    // The reply floods the route-back trail starting at the module itself.
    handle_reply_combining(p, at, out);
    return;
  }
  p.src = at;
  // The reply targets the slot's executor — the adopting survivor when the
  // issuing processor is dead (it sent the request from there too).
  p.dst = host_node(p.proc);
  fabric_.router().prepare(p, rng, live_);
  const NodeId next = fabric_.router().next_hop(p, at, rng, live_);
  if (next == topology::kInvalidNode) {
    deliver_read(p.proc, value);
    return;
  }
  out.push_back(sim::Forward{next, p.route_state});
}

void NetworkEmulator::handle_reply_plain(Packet& p, NodeId at,
                                         support::Rng& rng,
                                         std::vector<sim::Forward>& out) {
  const NodeId next = fabric_.router().next_hop(p, at, rng, live_);
  if (next == topology::kInvalidNode) {
    LEVNET_DCHECK(at == p.dst);
    deliver_read(p.proc, p.value);
    return;
  }
  out.push_back(sim::Forward{next, p.route_state});
}

void NetworkEmulator::handle_reply_combining(Packet& p, NodeId at,
                                             std::vector<sim::Forward>& out) {
  const TrailChain* chain = trails_.find(TrailKey{at, p.addr});
  if (chain == nullptr) return;  // stale flood branch; dies out
  // Walk the arena chain in insertion order — the same order the old
  // per-key vector preserved, and part of the deterministic service order.
  for (std::uint32_t i = chain->head;
       i != support::Arena<TrailNode>::kNullIndex; i = trail_nodes_[i].next) {
    TrailEntry& entry = trail_nodes_[i].entry;
    if (entry.serviced) continue;
    entry.serviced = true;
    if (entry.local) {
      deliver_read(entry.proc, p.value);
    } else {
      out.push_back(sim::Forward{entry.from, 0});
    }
  }
}

bool NetworkEmulator::try_merge_in_queue(Packet& p, NodeId at) {
  const topology::Graph& graph = fabric_.graph();
  const topology::EdgeId begin = graph.out_begin(at);
  const topology::EdgeId end = graph.out_begin(at + 1);
  for (topology::EdgeId e = begin; e < end; ++e) {
    auto& queue = engine_->edge_queue(e);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      // Queues carry pool handles; the merge edits the pooled packet in
      // place, with no copy in or out of the queue.
      Packet& candidate = engine_->packet(queue.at(i));
      if (candidate.kind != PacketKind::kRequest ||
          candidate.addr != p.addr || candidate.op != p.op) {
        continue;
      }
      if (p.op == sim::MemOpKind::kWrite) {
        bool violation = false;
        const pram::WriteClaim merged = pram::merge_claims(
            policy_, {candidate.proc, candidate.value}, {p.proc, p.value},
            &violation);
        candidate.proc = merged.proc;
        candidate.value = merged.value;
      }
      // Reads need no data transfer: p's breadcrumb at this node is already
      // recorded, and the candidate's eventual reply will flood it.
      return true;
    }
  }
  return false;
}

void NetworkEmulator::record_trail(const Packet& p, NodeId at) {
  TrailNode node;
  if (p.came_from == topology::kInvalidNode) {
    node.entry.local = true;
    node.entry.proc = p.proc;
  } else {
    node.entry.from = p.came_from;
  }
  const std::uint32_t index = trail_nodes_.push(node);
  auto [chain, inserted] = trails_.find_or_insert(TrailKey{at, p.addr});
  if (inserted) {
    chain->head = index;
  } else {
    trail_nodes_[chain->tail].next = index;
  }
  chain->tail = index;
}

void NetworkEmulator::merge_claim(Addr addr, pram::WriteClaim claim) {
  auto [slot, inserted] = claims_.find_or_insert(addr);
  if (inserted) {
    *slot = claim;
  } else {
    bool violation = false;
    *slot = pram::merge_claims(policy_, *slot, claim, &violation);
  }
}

void NetworkEmulator::deliver_read(ProcId proc, Word value) {
  LEVNET_DCHECK(proc < pending_read_.size());
  LEVNET_DCHECK(pending_read_[proc] != 0);
  if (read_served_[proc] != 0) return;  // duplicate flood delivery
  read_served_[proc] = 1;
  pending_value_[proc] = value;
}

}  // namespace levnet::emulation
