#include "routing/driver.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace levnet::routing {

void RouterTraffic::on_packet(Packet& p, NodeId at, std::uint32_t step,
                              support::Rng& rng,
                              std::vector<sim::Forward>& out) {
  const NodeId next = router_.next_hop(p, at, rng, nullptr);
  if (next == kInvalidNode) {
    ++delivered_;
    if (at != p.dst) ++misdelivered_;
    if (p.id < arrival_steps_.size()) arrival_steps_[p.id] = step;
    return;
  }
  out.push_back(sim::Forward{next, p.route_state});
}

RoutingOutcome run_workload(const topology::Graph& graph, const Router& router,
                            const sim::Workload& workload,
                            sim::EngineConfig config, support::Rng& rng,
                            const EndpointMap& endpoint) {
  RouterTraffic traffic(router);
  traffic.expect_packets(workload.size());
  sim::SyncEngine engine(graph, traffic, config);
  std::uint32_t id = 0;
  for (const auto& demand : workload) {
    Packet p;
    p.id = id++;
    p.src = endpoint ? endpoint(demand.source) : demand.source;
    p.dst = endpoint ? endpoint(demand.destination) : demand.destination;
    router.prepare(p, rng, nullptr);
    const NodeId origin = p.src;
    engine.inject(std::move(p), origin, rng);
  }
  const bool drained = engine.run(rng);

  RoutingOutcome outcome;
  outcome.metrics = engine.metrics();
  outcome.delivered = traffic.delivered();
  outcome.complete = drained && traffic.all_at_destination() &&
                     traffic.delivered() == workload.size();
  std::uint32_t slowest = 0;
  for (const std::uint32_t arrival : traffic.arrival_steps()) {
    if (arrival != RouterTraffic::kNotDelivered) {
      slowest = std::max(slowest, arrival);
    }
  }
  outcome.slowest_packet = slowest;
  if (config.recorder != nullptr) {
    const obs::Recorder& rec = *config.recorder;
    outcome.latency_p50 = rec.journey().quantile(0.50);
    outcome.latency_p95 = rec.journey().quantile(0.95);
    outcome.latency_p99 = rec.journey().quantile(0.99);
    outcome.queue_delay_p50 = rec.queue_delay().quantile(0.50);
    outcome.queue_delay_p95 = rec.queue_delay().quantile(0.95);
    outcome.queue_delay_p99 = rec.queue_delay().quantile(0.99);
  }
  return outcome;
}

}  // namespace levnet::routing
