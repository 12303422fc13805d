#pragma once
// Shared types of the levnet benchmark: command-line options, the result
// being assembled (metrics, info lines, the correctness tally) and small
// host/process helpers.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace levbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;     // Chrome trace of the run's spans ("" = none)
  std::string serve_binary;  // the levnet_serve built beside levbench
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Human-readable lines go first; the last
/// line of standard output is one JSON object for programs to read.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void info(const std::string& key, const std::string& text);
  /// Tallies one checked operation; a failed one keeps `what` as the reason.
  void check(bool ok, const std::string& what);

  Outcomes outcomes;

  void print(std::ostream& out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

/// A SplitMix64-derived child seed: `base` mixed with a stream label.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t stream);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Online processors, CPU model name, and the benchmark's build type.
[[nodiscard]] unsigned host_cpus();
[[nodiscard]] std::string host_cpu_model();
[[nodiscard]] const char* build_type();

/// Formats a double with full precision for the JSON line.
[[nodiscard]] std::string fmt(double value);

// Workload entry points (bulk.cpp, serve_mix.cpp).
void run_bulk(const Options& options, Tracer& tracer, Result& result);
void run_serve_mix(const Options& options, Tracer& tracer, Result& result);

/// Runs the benchmark's arithmetic self-test; returns the failure count.
int run_self_test();

}  // namespace levbench
