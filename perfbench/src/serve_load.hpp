#pragma once
// Serve sessions shared by the serve-mix workload and the bulk workloads'
// traced serve probe: generate a request stream, drive the real
// levnet_serve through an open-loop and a closed-loop phase, and check
// every response against an in-process replay through the serve module's
// own public functions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"

namespace levbench {

/// One generated request line and what the generator meant it to be.
struct StreamItem {
  std::string line;
  bool malformed = false;
};

/// The warm-up request every server receives first.
[[nodiscard]] StreamItem warmup_item();

/// Serve-mix stream: `count` requests after the warm-up line (see
/// README.md for the classes and their shares).
[[nodiscard]] std::vector<StreamItem> mix_stream(std::uint64_t seed,
                                                 std::size_t count);

/// Bulk workloads' serve probe: the workload's own spec served warm and
/// cold, one faulted variant and one malformed line.
[[nodiscard]] std::vector<StreamItem> probe_stream(
    const std::string& spec, const std::string& program,
    std::uint64_t seed);

struct SessionPlan {
  double open_rate_per_s = 100.0;  // open loop
  std::size_t window = 8;          // closed loop outstanding requests
  double closed_s = 1.0;           // closed loop sending time per round
  std::size_t setup_spawns = 0;    // extra set-up samples per round
  bool prewarm = false;            // warm each server's cache, unmeasured
};

/// One round: a fresh server under the open loop, then another under the
/// closed loop. Rounds spread a run over several server processes.
struct Round {
  std::vector<StreamItem> open;
  std::vector<StreamItem> closed;
};

/// End-to-end numbers of one serve session.
struct SessionNumbers {
  std::vector<double> setup_s;     // spawn -> first response, per spawn
  std::vector<double> latency_ms;  // open loop, from due time
  double req_per_s = 0.0;          // closed loop, median window
  double peak_rss_mb = 0.0;        // largest child peak
  double ms_per_pram_step = 0.0;   // closed loop, median window
  double steps_per_diam = 0.0;     // open loop: network steps / (PRAM
                                   // steps x route scale) over ok runs
  Samples layers;                  // traced replay: per-call seconds
  WorkCounts work;                 // traced replay: recorder counts
};

/// Runs the rounds and checks every response (tallied into `result`).
/// When the tracer is enabled, the open-loop streams are also replayed
/// in-process under spans, filling `layers` and `work`, and the serve.*
/// metrics are added to `result`.
[[nodiscard]] SessionNumbers run_serve_session(const Options& options,
                                               const std::vector<Round>& rounds,
                                               const SessionPlan& plan,
                                               Tracer& tracer, Result& result);

}  // namespace levbench
