#pragma once
// TrafficHandler: the engine's callback surface.
//
// The engine owns time, link queues and the one-packet-per-link-per-step
// capacity rule; everything problem-specific (where a packet goes next,
// when it is delivered, CRCW combining, reply generation at memory modules)
// lives behind this interface. on_packet may emit zero forwards (the packet
// is consumed), one (normal forwarding) or several (reply fan-out along a
// combining tree, Theorem 2.6); each forward carries its own route_state so
// tree branches can be retraced independently.

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "support/rng.hpp"

namespace levnet::sim {

/// One outgoing copy of a landing packet.
struct Forward {
  NodeId to;
  std::uint32_t route_state;
};

class TrafficHandler {
 public:
  virtual ~TrafficHandler() = default;

  /// Packet `p` landed on node `at` at time `step` (either freshly injected,
  /// with p.came_from == kInvalidNode, or after crossing a link from
  /// p.came_from). Append to `out` the forward(s) to emit; leaving `out`
  /// empty consumes the packet.
  virtual void on_packet(Packet& p, NodeId at, std::uint32_t step,
                         support::Rng& rng, std::vector<Forward>& out) = 0;

  /// Priority key for non-FIFO queue disciplines; larger values are served
  /// first ("furthest destination first" returns the remaining distance).
  [[nodiscard]] virtual std::uint32_t priority(const Packet& p,
                                               NodeId at) const {
    (void)p;
    (void)at;
    return 0;
  }

  /// Pure-decision fast path for the engine's sharded landing phase
  /// (EngineConfig::step_threads > 1). Called concurrently from pool
  /// workers, one landing per call with a landing-private `rng` substream,
  /// so an override must not touch any state outside `p` itself. If the
  /// landing is a plain single-forward hop, fill `out` and return true; the
  /// engine commits it (queue push, activation, metrics) in landing order
  /// on the driving thread. Return false to defer — terminal landings,
  /// fan-out, combining, anything impure — in which case `p` and `rng`
  /// must be left untouched: the engine replays the landing through
  /// on_packet with an identical substream. The default defers everything,
  /// which keeps handlers written against on_packet correct (just serial)
  /// under any step_threads.
  [[nodiscard]] virtual bool route_concurrent(Packet& p, NodeId at,
                                              std::uint32_t step,
                                              support::Rng& rng,
                                              Forward& out) const {
    (void)p;
    (void)at;
    (void)step;
    (void)rng;
    (void)out;
    return false;
  }

  /// True when route_concurrent can decide at least some landings; the
  /// engine skips the parallel decision phase (and its barrier) entirely
  /// for handlers that would defer every landing anyway.
  [[nodiscard]] virtual bool route_concurrent_capable() const { return false; }

  /// Degraded-mode hook, called only when the engine's liveness mask has
  /// anything dead (topology::Liveness::has_faults()): a forward for `p`
  /// at `at` targets `blocked`, whose link (or the node itself) is dead.
  /// Return a live replacement next hop — typically a surviving neighbor,
  /// after re-preparing p's route to resume from there — or kInvalidNode
  /// to give up, in which case the engine drops the packet and counts it
  /// in RunMetrics::dropped. The default handler knows no detour and drops.
  [[nodiscard]] virtual NodeId on_fault(Packet& p, NodeId at, NodeId blocked,
                                        support::Rng& rng) {
    (void)p;
    (void)at;
    (void)blocked;
    (void)rng;
    return topology::kInvalidNode;
  }
};

}  // namespace levnet::sim
