#include "serve/session.hpp"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "machine/registry.hpp"
#include "obs/recorder.hpp"
#include "pram/memory.hpp"
#include "pram/program.hpp"
#include "serve/request.hpp"

namespace levnet::serve {

namespace {

/// One request line's full lifecycle; the response buffer is the only
/// output, so workers touch disjoint state.
struct Slot {
  ServeRequest request;
  bool failed = false;
  Farm::Resolved resolved;
  std::string response;
};

void run_slot(Slot& slot) {
  const machine::Machine* m = slot.resolved.owned != nullptr
                                  ? slot.resolved.owned.get()
                                  : slot.resolved.shared.get();
  const ServeRequest& request = slot.request;
  const bool observe = request.spec.obs_cadence != 0 || request.spec.obs_trace;
  obs::Recorder recorder(
      obs::RecorderConfig{request.spec.obs_cadence, request.spec.obs_trace});
  if (observe) recorder.bind_topology(m->graph());
  obs::Recorder* rec = observe ? &recorder : nullptr;

  std::string error;
  std::unique_ptr<pram::PramProgram> program = machine::make_program(
      request.program, m->processors(), request.seed, request.steps, error);
  pram::SharedMemory memory;
  emulation::EmulationReport report;
  // A run fails when the fault quota is unsatisfiable for this seed.
  slot.failed = program == nullptr ||
                !m->run_seeded(request.seed, *program, memory, report, error,
                               rec);
  std::ostringstream os;
  if (slot.failed) {
    write_error_response(os, request.seq, request.tag, error);
  } else {
    write_ok_response(os, request, slot.resolved.outcome, report, rec);
  }
  slot.response = os.str();
}

}  // namespace

Session::Session(Farm& farm, SessionConfig config)
    : farm_(farm), config_(std::move(config)), pool_(config_.workers) {
  config_.queue_depth = std::max<std::size_t>(1, config_.queue_depth);
}

SessionStats Session::serve(std::istream& in, std::ostream& out) {
  SessionStats stats;
  std::vector<std::string> lines;
  std::vector<Slot> slots;
  std::string line;

  const auto take_line = [&lines](std::string&& text) {
    if (!text.empty() && text.back() == '\r') text.pop_back();
    if (!text.empty()) lines.push_back(std::move(text));
  };

  while (true) {
    if (config_.should_stop && config_.should_stop()) break;
    if (!std::getline(in, line)) break;  // blocks for the batch's first line
    lines.clear();
    take_line(std::move(line));
    // Backpressure bound: accept only what is already buffered, up to
    // queue_depth; the rest waits in the pipe until this batch is out.
    while (lines.size() < config_.queue_depth &&
           in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      take_line(std::move(line));
    }
    if (lines.empty()) continue;

    slots.clear();
    slots.resize(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      Slot& slot = slots[i];
      const std::uint64_t seq = stats.requests++;
      std::string error;
      if (!decode_request(lines[i], seq, config_.default_steps, slot.request,
                          error)) {
        slot.failed = true;
        std::ostringstream os;
        write_error_response(os, seq, slot.request.tag, error);
        slot.response = os.str();
        continue;
      }
      if (slot.request.spec.faults.any()) {
        // A faulted request's plan derives from its seed, so the canonical
        // spec it echoes (and the farm's private build) carries that seed.
        slot.request.spec.seed = slot.request.seed;
      }
      slot.resolved = farm_.resolve(slot.request.spec);
    }

    ++stats.batches;
    stats.peak_batch = std::max(stats.peak_batch, slots.size());
    pool_.parallel_for(slots.size(), [&slots](std::size_t i) {
      if (!slots[i].failed) run_slot(slots[i]);
    });

    for (Slot& slot : slots) {
      if (slot.failed) {
        ++stats.errors;
      } else {
        ++stats.ok;
      }
      out << slot.response << "\n";
    }
    out.flush();
  }

  write_stats_line(out, stats, farm_);
  out << "\n";
  out.flush();
  return stats;
}

void write_stats_line(std::ostream& os, const SessionStats& stats,
                      const Farm& farm) {
  const Farm::Counters counters = farm.counters();
  os << "{\"status\": \"stats\", \"requests\": " << stats.requests
     << ", \"ok\": " << stats.ok << ", \"errors\": " << stats.errors
     << ", \"batches\": " << stats.batches
     << ", \"peak_batch\": " << stats.peak_batch << ", \""
     << obs::kProbeInfo[obs::probe_index(obs::Probe::kCacheHits)].name
     << "\": " << counters.hits << ", \""
     << obs::kProbeInfo[obs::probe_index(obs::Probe::kCacheMisses)].name
     << "\": " << counters.misses << ", \""
     << obs::kProbeInfo[obs::probe_index(obs::Probe::kCacheEvictions)].name
     << "\": " << counters.evictions
     << ", \"uncacheable\": " << counters.uncacheable
     << ", \"cache_entries\": " << counters.entries
     << ", \"cache_capacity\": " << farm.config().cache_capacity << "}";
}

}  // namespace levnet::serve
