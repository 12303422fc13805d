// serve-mix: the real levnet_serve over stdio under a seeded mixed
// request stream. A run is several rounds; each round serves an open-loop
// stream at a fixed rate with one fresh server, then a closed-loop stream
// with a window of outstanding requests with another.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "machine/registry.hpp"
#include "serve_load.hpp"

namespace levbench {

namespace {

namespace lm = levnet::machine;

// Open-loop rate: a third to a quarter of the closed-loop capacity of this
// mix measured on a shared 4-core Xeon VM (630-970 req/s). At half
// capacity the host's slow spells pushed the server close to saturation
// and the median latency doubled from run to run; at this rate the open
// loop stays well below saturation and its tail shows queueing, not
// overload.
constexpr double kOpenRate = 200.0;
constexpr std::size_t kWindow = 8;        // closed-loop outstanding requests
constexpr std::size_t kRounds = 10;       // server pairs per run
constexpr std::size_t kSetupSpawns = 3;   // extra set-up samples per round
constexpr double kClosedCeiling = 4000.0; // req/s the closed streams cover

// The large warm machine of the mix: target of the route-only, speedup
// and hashing probes.
constexpr const char* kWarmSpec = "star:7/two-phase/erew/fifo";

}  // namespace

void run_serve_mix(const Options& options, Tracer& tracer, Result& result) {
  const double round_s = options.seconds / (2.0 * kRounds);
  const auto open_count = static_cast<std::size_t>(kOpenRate * round_s);
  const auto closed_count =
      static_cast<std::size_t>(std::ceil(kClosedCeiling * round_s));
  std::vector<Round> rounds(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    rounds[r].open = mix_stream(derive_seed(options.seed, 10 + 2 * r),
                                open_count);
    rounds[r].closed = mix_stream(derive_seed(options.seed, 11 + 2 * r),
                                  closed_count);
  }
  result.info("server", options.serve_binary);

  SessionPlan plan;
  plan.open_rate_per_s = kOpenRate;
  plan.window = kWindow;
  plan.closed_s = round_s;
  plan.setup_spawns = kSetupSpawns;
  plan.prewarm = true;
  const SessionNumbers numbers =
      run_serve_session(options, rounds, plan, tracer, result);

  if (!tracer.enabled()) {
    const Tail tail = tail_percentile(numbers.latency_ms);
    result.info("req_p99_ms", fmt(tail.value) +
                                  " ms, open-loop latency at p" +
                                  fmt(tail.percentile) + " of " +
                                  std::to_string(tail.samples) +
                                  " requests (" + std::to_string(tail.beyond) +
                                  " beyond)");
    result.info("setup_s", std::to_string(numbers.setup_s.size()) +
                               " spawns, median reported");
    result.metric("setup_s", median(numbers.setup_s), "s");
    result.metric("pram_step_ms", numbers.ms_per_pram_step, "ms");
    result.metric("steps_per_diam", numbers.steps_per_diam, "ratio");
    result.metric("peak_rss_mb", numbers.peak_rss_mb, "MiB");
    result.metric("req_per_s", numbers.req_per_s, "1/s");
    result.metric("req_p50_ms", median(numbers.latency_ms), "ms");
    return;
  }

  // Set-up layers over the mix's distinct fault-free specs; validation as
  // each request pays it.
  std::set<std::string> specs;
  for (const StreamItem& item : rounds[0].open) {
    if (!item.malformed && item.line.find("faults:") == std::string::npos) {
      const std::size_t at = item.line.find("\"spec\": \"") + 9;
      specs.insert(item.line.substr(at, item.line.find('"', at) - at));
    }
  }
  Samples setup;
  for (const std::string& spec : specs) {
    bool ok = false;
    time_setup_layers(spec, 1, tracer, setup, ok);
    result.check(ok, "spec does not validate: " + spec);
  }
  emit_setup_layers(setup, numbers.layers.mean("machine.validate"), result);
  numbers.work.emit(result);
  result.metric("pram.reference_ms",
                numbers.layers.mean("pram.reference") * 1e3, "ms");

  const lm::Machine warm = lm::Machine::build(kWarmSpec);
  bool routed = false;
  result.metric("routing.ns_per_hop",
                route_ns_per_hop(warm, derive_seed(options.seed, 3), tracer,
                                 routed),
                "ns");
  result.check(routed, "route-only pass left packets undelivered");
  measure_thread_speedup(warm.spec(), 4, "permutation", 4,
                         derive_seed(options.seed, 4), tracer, result);
  std::string error;
  const auto program = lm::make_program("permutation", warm.processors(), 1,
                                        4, error);
  result.metric("hashing.ns_per_eval",
                hash_ns_per_eval(warm, program->address_space(),
                                 derive_seed(options.seed, 5), tracer),
                "ns");
}

}  // namespace levbench
