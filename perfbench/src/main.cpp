// levbench — the levnet benchmark.
//
//   levbench --workload erew-permutation|crcw-histogram|serve-mix
//            --seed N --seconds S --trace 0|1
//            [--spans-out FILE]
//   levbench --self-test
//
// Every input derives from --seed. With --trace 0 the run measures the
// end-to-end metrics; with --trace 1 it measures the per-layer metrics in
// a separate traced pass. Either way the correctness gate runs, and the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check makes the exit code 1. See README.md for the metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "machine/run_io.hpp"
#include "support/rng.hpp"

#ifndef LEVBENCH_BUILD_TYPE
#define LEVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LEVBENCH_SERVE_BINARY
#define LEVBENCH_SERVE_BINARY ""
#endif

namespace levbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::info(const std::string& key, const std::string& text) {
  info_.emplace_back(key, text);
}

void Result::check(bool ok, const std::string& what) {
  outcomes.record(ok);
  if (!ok && failures_.size() < 20) failures_.push_back(what);
}

void Result::print(std::ostream& out) const {
  for (const auto& [key, text] : info_) out << "# " << key << ": " << text << "\n";
  for (const std::string& f : failures_) out << "# FAILED: " << f << "\n";
  out << "# fail_share: " << fmt(outcomes.fail_share()) << " ("
      << outcomes.failed << " of " << outcomes.attempted << " operations)\n";
  for (const Metric& m : metrics_) {
    out << "# metric " << m.name << " = " << fmt(m.value) << " " << m.unit
        << "\n";
  }
  out << "{\"correct\": " << (outcomes.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << outcomes.attempted
      << ", \"failed\": " << outcomes.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name
        << "\": {\"value\": " << fmt(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}" << std::endl;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t state = base ^ (stream * 0x9e37'79b9'7f4a'7c15ULL);
  return levnet::support::splitmix64(state);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

const char* build_type() { return LEVBENCH_BUILD_TYPE; }

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

}  // namespace levbench

namespace {

constexpr const char kUsage[] =
    "usage: levbench --workload erew-permutation|crcw-histogram|serve-mix\n"
    "                --seed N --seconds S --trace 0|1\n"
    "                [--spans-out FILE]\n"
    "       levbench --self-test\n";

bool parse_args(int argc, char** argv, levbench::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    unsigned long number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!levnet::machine::parse_count_u64(value, options.seed)) return false;
    } else if (arg == "--seconds") {
      if (!levnet::machine::parse_count(value, number) || number == 0 ||
          number > 600) {
        return false;
      }
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
  }
  return options.workload == "erew-permutation" ||
         options.workload == "crcw-histogram" ||
         options.workload == "serve-mix";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace levbench;
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    const int failures = run_self_test();
    std::cout << (failures == 0 ? "self-test: ok\n" : "self-test: FAILED\n");
    return failures == 0 ? 0 : 1;
  }
  Options options;
  options.serve_binary = LEVBENCH_SERVE_BINARY;
  if (!parse_args(argc, argv, options)) {
    std::cerr << kUsage;
    return 2;
  }
  // A server that dies mid-stream must surface as a failed write, not
  // kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  Tracer tracer(options.trace);
  Result result;
  result.info("workload", options.workload);
  result.info("seed", std::to_string(options.seed));
  result.info("seconds", fmt(options.seconds));
  result.info("trace", options.trace ? "1 (per-layer pass)"
                                     : "0 (end-to-end pass)");
  result.info("nproc", std::to_string(host_cpus()));
  result.info("cpu", host_cpu_model());
  result.info("build", build_type());

  if (options.workload == "serve-mix") {
    run_serve_mix(options, tracer, result);
  } else {
    run_bulk(options, tracer, result);
  }

  if (tracer.enabled()) {
    for (const auto& [layer, seconds] : tracer.layer_self_seconds()) {
      result.info("self_ms." + layer, fmt(seconds * 1e3));
    }
    if (!options.spans_out.empty()) {
      result.check(tracer.write_chrome_trace(options.spans_out),
                   "writing spans to " + options.spans_out);
      result.info("spans", std::to_string(tracer.spans().size()) +
                               " written to " + options.spans_out);
    }
  }
  result.print(std::cout);
  return result.outcomes.failed == 0 ? 0 : 1;
}
