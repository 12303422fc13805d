// levnet_run — one emulated PRAM machine from a spec string, no recompile.
//
//   levnet_run 'star:5/two-phase/crcw-combining/fifo' \ ...
//       --program histogram --seeds 5 --threads 8 --json out/
//   levnet_run --spec-file scenario.json
//   levnet_run --list
//
// The spec grammar lives in machine/spec.hpp; --list prints the registered
// topology families (with their routers), program families, modes,
// disciplines and knobs. The run fans the seeds across a thread pool with
// the same bit-identical seed derivation as the bench harness and emits a
// report JSON (aggregate stats + per-seed EmulationReports).
//
// A --spec-file is a flat JSON object; string values for "spec"/"program",
// numbers for "seeds"/"threads"/"steps"/"step-threads":
//
//   {"spec": "shuffle:9/two-phase/crcw-combining/furthest-first",
//    "program": "histogram", "seeds": 5, "threads": 8}

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/trials.hpp"
#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "machine/spec.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace levnet;

// Strict count parsing, the flat-JSON spec-file decoder and the per-seed
// report-field writer live in machine/run_io.* — shared with the
// levnet_serve request decoder so both front ends accept the same shape,
// emit the same error messages, and write byte-identical report payloads.
using machine::json_escape;
using machine::parse_count;

struct Options {
  std::string spec_text;
  std::string spec_file;
  std::string program = "permutation";
  std::string json_path;
  std::string metrics_path;  // --metrics: per-seed probe JSONL
  std::string trace_path;    // --trace: Chrome/Perfetto trace JSON
  std::uint32_t seeds = 5;
  std::uint32_t steps = 4;  // PRAM steps for the synthetic-traffic programs
  unsigned threads = 0;
  /// Engine step parallelism override (spec `threads:` token); the
  /// sentinel leaves whatever the spec says untouched.
  static constexpr std::uint32_t kKeepSpec = ~std::uint32_t{0};
  std::uint32_t step_threads = kKeepSpec;
  bool list = false;
  bool help = false;
};

constexpr const char kUsage[] =
    "usage: levnet_run SPEC [options]\n"
    "       levnet_run --spec-file FILE.json [options]\n"
    "       levnet_run --list\n"
    "\n"
    "  SPEC                 machine spec, e.g. "
    "star:5/two-phase/crcw-combining/fifo\n"
    "  --program KEY        PRAM program family (default: permutation)\n"
    "  --steps N            PRAM steps for the traffic programs (default 4)\n"
    "  --seeds N            independent trials (default 5)\n"
    "  --threads N          pool size for fanning seeds, 0 = hardware\n"
    "                       concurrency (default)\n"
    "  --step-threads N     intra-trial parallelism: shard each engine step\n"
    "                       over N threads (spec token 'threads:N'; results\n"
    "                       are bit-identical for any N; 0 = hardware\n"
    "                       concurrency, default: whatever the spec says)\n"
    "  --json PATH          write the report JSON to PATH (a directory gets\n"
    "                       an auto-named RUN_<spec>__<program>.json; '-'\n"
    "                       writes to stdout)\n"
    "  --metrics FILE       write per-seed probe metrics (counters, latency\n"
    "                       quantiles, step samples) as JSON Lines; implies\n"
    "                       spec token obs:1 unless the spec sets a cadence\n"
    "  --trace FILE         write a Chrome/Perfetto trace (virtual-time\n"
    "                       packet and engine-phase spans; spec token\n"
    "                       'trace'); open via ui.perfetto.dev\n"
    "  --spec-file FILE     read spec/program/seeds/threads/steps/\n"
    "                       step-threads from a flat JSON object instead of\n"
    "                       the command line\n"
    "  --list               print every registered topology, router,\n"
    "                       program family, mode, discipline and knob\n";

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--program") {
      if (!next(options.program)) return false;
    } else if (arg == "--json") {
      if (!next(options.json_path)) return false;
    } else if (arg == "--metrics") {
      if (!next(options.metrics_path)) return false;
    } else if (arg == "--trace") {
      if (!next(options.trace_path)) return false;
    } else if (arg == "--spec-file") {
      if (!next(options.spec_file)) return false;
    } else if (arg == "--seeds" || arg == "--steps" || arg == "--threads" ||
               arg == "--step-threads") {
      if (!next(value)) return false;
      unsigned long parsed = 0;
      if (!parse_count(value, parsed)) {
        error = "bad number '" + value + "' for " + arg +
                " (expected an unsigned integer)";
        return false;
      }
      if (arg == "--seeds") {
        options.seeds = static_cast<std::uint32_t>(parsed);
      } else if (arg == "--steps") {
        options.steps = static_cast<std::uint32_t>(parsed);
      } else if (arg == "--step-threads") {
        options.step_threads = static_cast<std::uint32_t>(parsed);
      } else {
        options.threads = static_cast<unsigned>(parsed);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      error = "unknown flag '" + arg + "'";
      return false;
    } else if (options.spec_text.empty()) {
      options.spec_text = arg;
    } else {
      error = "unexpected extra argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ JSON helpers

bool apply_spec_file(Options& options, std::string& error) {
  std::ifstream in(options.spec_file);
  if (!in) {
    error = "cannot open spec file '" + options.spec_file + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::map<std::string, std::string> values;
  if (!machine::parse_flat_json(buffer.str(), values, error)) return false;
  const auto number = [&](const char* key, auto& out) {
    unsigned long parsed = 0;
    bool present = values.count(key) != 0;
    if (!machine::read_count_field(values, key, "spec file", parsed, error)) {
      return false;
    }
    if (present) {
      out = static_cast<std::remove_reference_t<decltype(out)>>(parsed);
    }
    return true;
  };
  if (values.count("spec") != 0) options.spec_text = values["spec"];
  if (values.count("program") != 0) options.program = values["program"];
  return number("seeds", options.seeds) && number("steps", options.steps) &&
         number("threads", options.threads) &&
         number("step-threads", options.step_threads);
}

// ------------------------------------------------------------------ --list

void print_catalogue(std::ostream& os) {
  os << "topology families (key:params / routers; * = default router):\n";
  for (const machine::TopologyInfo& info : machine::topology_families()) {
    os << "  " << info.key << ":" << info.params_help << "\n      "
       << info.description << "\n      routers:";
    bool first = true;
    for (const machine::RouterInfo& router : info.routers) {
      os << (first ? " *" : " ") << router.key;
      if (router.takes_param) os << "[:param]";
      first = false;
    }
    os << "\n";
  }
  os << "\nprogram families (--program):\n";
  for (const machine::ProgramInfo& info : machine::program_families()) {
    os << "  " << info.key;
    for (std::size_t pad = std::string(info.key).size(); pad < 16; ++pad) {
      os << ' ';
    }
    os << info.description;
    if (info.wants_combining) os << " [combining recommended]";
    os << "\n";
  }
  os << "\nmodes:        erew | crew | crcw | crcw-combining\n"
     << "disciplines:  fifo | furthest-first | nearest-first\n"
     << "threads:      threads:N  sharded stepping (1 = serial, 0 = hardware\n"
     << "              concurrency; results identical across values)\n"
     << "obs:          obs:N sample probes every Nth step; 'trace' records\n"
     << "              virtual-time spans (both result-inert; see --metrics\n"
     << "              and --trace)\n"
     << "faults:       faults:links=F,nodes=F,procs=F,modules=F,onsets=N,\n"
     << "              allow-cut=1 (procs= kills processor endpoints;\n"
     << "              survivors adopt the dead program slots)\n"
     << "knobs:        seed=N budget=N rehash=N hash-degree=N buffer=N\n"
     << "\nexample:\n  levnet_run 'star:5/two-phase/crcw-combining/fifo/"
        "faults:links=0.05' --program histogram --seeds 5\n";
}

// ------------------------------------------------------------------ report

void write_report_json(std::ostream& os, const Options& options,
                       const machine::MachineSpec& spec,
                       const machine::Machine& machine,
                       const analysis::TrialStats& stats,
                       const std::vector<emulation::EmulationReport>& reports) {
  os << "{\n  \"spec\": \"";
  json_escape(os, options.spec_text);
  os << "\",\n  \"canonical_spec\": \"";
  json_escape(os, spec.to_string());
  os << "\",\n  \"program\": \"";
  json_escape(os, options.program);
  os << "\",\n  \"machine\": {\"name\": \"";
  json_escape(os, machine.name());
  os << "\", \"nodes\": " << machine.graph().node_count()
     << ", \"processors\": " << machine.processors()
     << ", \"route_scale\": " << machine.route_scale() << "},\n"
     << "  \"seeds\": " << options.seeds
     << ",\n  \"threads\": " << options.threads
     << ",\n  \"pram_steps_cap\": " << options.steps << ",\n"
     << "  \"aggregate\": {\"steps_mean\": " << stats.steps.mean
     << ", \"steps_max\": " << stats.steps.max
     << ", \"worst_step_max\": " << stats.worst_step.max
     << ", \"max_link_queue\": " << stats.max_link_queue.max
     << ", \"max_node_queue\": " << stats.max_node_queue.max
     << ", \"combined_mean\": " << stats.combined_mean
     << ", \"rehashes_mean\": " << stats.rehashes_mean
     << ", \"local_ops_mean\": " << stats.local_ops_mean
     << ", \"detours_mean\": " << stats.detours_mean
     << ", \"dropped_mean\": " << stats.dropped_mean
     << ", \"fault_rehashes_mean\": " << stats.fault_rehashes_mean
     << ", \"adopted_slot_steps_mean\": " << stats.adopted_slot_steps_mean
     << ", \"peak_in_flight_max\": " << stats.peak_in_flight.max
     << ", \"latency_p50_mean\": " << stats.latency_p50.mean
     << ", \"latency_p95_mean\": " << stats.latency_p95.mean
     << ", \"latency_p99_mean\": " << stats.latency_p99.mean
     << ", \"queue_delay_p50_mean\": " << stats.queue_delay_p50.mean
     << ", \"queue_delay_p95_mean\": " << stats.queue_delay_p95.mean
     << ", \"queue_delay_p99_mean\": " << stats.queue_delay_p99.mean
     << ", \"complete_runs\": " << stats.complete_runs
     << ", \"runs\": " << stats.runs << "},\n  \"per_seed\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const emulation::EmulationReport& r = reports[i];
    std::uint64_t first_seed = 1;
    os << (i == 0 ? "" : ",") << "\n    {\"trial\": " << i << ", \"seed\": "
       << analysis::TrialRunner::trial_seed(first_seed,
                                            static_cast<std::uint32_t>(i))
       << ", ";
    machine::write_report_fields(os, r);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

[[nodiscard]] std::string spec_slug(const std::string& spec,
                                    const std::string& program) {
  std::string slug;
  for (const char c : spec) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.') {
      slug += c;
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return "RUN_" + slug + "__" + program + ".json";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << "levnet_run: " << error << "\n" << kUsage;
    return 1;
  }
  if (options.help) {
    std::cout << kUsage;
    return 0;
  }
  if (options.list) {
    print_catalogue(std::cout);
    return 0;
  }
  if (!options.spec_file.empty() && !apply_spec_file(options, error)) {
    std::cerr << "levnet_run: " << error << "\n";
    return 1;
  }
  if (options.spec_text.empty()) {
    std::cerr << "levnet_run: no machine spec given\n" << kUsage;
    return 1;
  }
  if (options.seeds == 0) {
    std::cerr << "levnet_run: --seeds must be at least 1\n";
    return 1;
  }

  machine::MachineSpec spec;
  if (!machine::parse_spec(options.spec_text, spec, error)) {
    std::cerr << "levnet_run: " << error << "\n";
    return 1;
  }
  if (options.step_threads != Options::kKeepSpec) {
    spec.step_threads = options.step_threads;
  }
  // The export flags imply the matching spec tokens (a spec-set cadence
  // wins over the implied obs:1). Both are result-inert.
  if (!options.metrics_path.empty() && spec.obs_cadence == 0) {
    spec.obs_cadence = 1;
  }
  if (!options.trace_path.empty()) spec.obs_trace = true;
  if (!machine::Machine::validate(spec, error)) {
    std::cerr << "levnet_run: " << error << "\n";
    return 1;
  }
  if (!machine::check_program(options.program, spec.mode, error)) {
    std::cerr << "levnet_run: " << error << "\n";
    return 1;
  }

  const machine::Machine machine = machine::Machine::build(spec);
  std::vector<emulation::EmulationReport> reports;
  const bool want_recorders =
      !options.metrics_path.empty() || !options.trace_path.empty();
  std::vector<std::unique_ptr<obs::Recorder>> recorders;
  analysis::TrialStats stats;
  if (!machine::run_trials(
          machine, machine::program_factory(options.program, options.steps),
          options.seeds, options.threads, stats, error, &reports,
          want_recorders ? &recorders : nullptr)) {
    std::cerr << "levnet_run: " << error << "\n";
    return 1;
  }

  std::cout << "machine      : " << machine.name() << "  ("
            << machine.graph().node_count() << " nodes, "
            << machine.processors() << " processors, route scale "
            << machine.route_scale() << ")\n"
            << "spec         : " << spec.to_string() << "\n"
            << "program      : " << options.program << " x " << options.seeds
            << " seeds\n"
            << "steps/pram   : mean " << stats.steps.mean << ", max "
            << stats.steps.max << "\n"
            << "worst step   : " << stats.worst_step.max << "\n"
            << "link queue   : " << stats.max_link_queue.max << "\n"
            << "rehashes     : " << stats.rehashes_mean << " (mean)\n"
            << "complete     : " << stats.complete_runs << "/" << stats.runs
            << "\n";
  if (spec.obs_cadence != 0 || spec.obs_trace) {
    std::cout << "latency      : p50 " << stats.latency_p50.mean << ", p95 "
              << stats.latency_p95.mean << ", p99 " << stats.latency_p99.mean
              << " (mean over seeds, steps)\n"
              << "peak inflight: " << stats.peak_in_flight.max << "\n";
  }

  if (!options.metrics_path.empty()) {
    std::ofstream out(options.metrics_path);
    if (!out) {
      std::cerr << "levnet_run: cannot open " << options.metrics_path
                << " for writing\n";
      return 1;
    }
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      recorders[i]->write_metrics_jsonl(out, static_cast<std::uint32_t>(i));
    }
    std::cout << "wrote " << options.metrics_path << "\n";
  }
  if (!options.trace_path.empty()) {
    std::ofstream out(options.trace_path);
    if (!out) {
      std::cerr << "levnet_run: cannot open " << options.trace_path
                << " for writing\n";
      return 1;
    }
    std::vector<const obs::Recorder*> views;
    views.reserve(recorders.size());
    for (const auto& recorder : recorders) views.push_back(recorder.get());
    obs::write_trace_json(out, views);
    std::cout << "wrote " << options.trace_path << "\n";
  }

  if (!options.json_path.empty()) {
    if (options.json_path == "-") {
      write_report_json(std::cout, options, spec, machine, stats, reports);
    } else {
      std::filesystem::path path(options.json_path);
      std::error_code ec;
      if (std::filesystem::is_directory(path, ec) ||
          options.json_path.back() == '/') {
        path /= spec_slug(options.spec_text, options.program);
      }
      std::ofstream out(path);
      if (!out) {
        std::cerr << "levnet_run: cannot open " << path << " for writing\n";
        return 1;
      }
      write_report_json(out, options, spec, machine, stats, reports);
      std::cout << "wrote " << path.string() << "\n";
    }
  }
  return stats.all_complete ? 0 : 3;
}
