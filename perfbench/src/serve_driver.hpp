#pragma once
// Drives a real levnet_serve child over its stdio transport.
//
// One call spawns the server, sends the plan's warm-up lines one at a time
// (spawn -> first response is the serve set-up time), then sends the
// remaining lines under the load plan:
//   - open loop: the k-th load line is due at t0 + k/rate and is sent
//     when due whatever the backlog (latency is timed from the due time);
//   - closed loop: one client keeps at most `window` requests outstanding
//     and stops sending after `duration_s`.
// The generator is one writer thread; the calling thread reads responses.
// Closing stdin makes the server drain, print its stats line and exit;
// the child is always reaped before the call returns.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace levbench {

struct LoadPlan {
  enum class Loop { kOpen, kClosed };
  Loop loop = Loop::kOpen;
  double rate_per_s = 100.0;  // open loop
  std::size_t window = 8;     // closed loop
  double duration_s = 1.0;    // closed loop: stop sending after this
  std::size_t warm_lines = 1; // leading lines sent one at a time first
};

struct Exchange {
  double due_s = 0.0;   // when the request was due (open loop) or sent
  double sent_s = 0.0;  // when the generator wrote it
  double recv_s = 0.0;  // when its response line arrived
  std::string response;
};

struct ServerRun {
  bool ok = false;  // spawned, every sent request answered, stats seen
  std::string error;
  std::size_t sent = 0;               // lines sent, warm-up included
  std::vector<Exchange> exchanges;    // [0, sent)
  std::string stats_line;
  double first_response_s = 0.0;  // spawn -> warm-up response
  double load_wall_s = 0.0;       // first load send -> last response
  double peak_rss_mb = 0.0;       // the child's, from wait4()
};

[[nodiscard]] ServerRun drive_server(const std::string& binary,
                                     const std::vector<std::string>& args,
                                     const std::vector<std::string>& lines,
                                     const LoadPlan& plan);

// Flat-JSON field access for the server's response lines, whose shape is
// fixed by src/serve/request.hpp. Returns false when the key is absent.
[[nodiscard]] bool json_string_field(const std::string& line,
                                     const std::string& key, std::string& out);
[[nodiscard]] bool json_number_field(const std::string& line,
                                     const std::string& key,
                                     std::uint64_t& out);
/// The body of the response's "report" object (between its braces).
[[nodiscard]] bool json_report_body(const std::string& line, std::string& out);

}  // namespace levbench
