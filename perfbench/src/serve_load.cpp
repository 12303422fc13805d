#include "serve_load.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "pram/memory.hpp"
#include "pram/reference.hpp"
#include "serve/farm.hpp"
#include "serve/request.hpp"
#include "serve_driver.hpp"
#include "support/rng.hpp"

namespace levbench {

namespace {

namespace lm = levnet::machine;
namespace ls = levnet::serve;

// ------------------------------------------------------------ the stream

struct MixSpec {
  const char* spec;
  const char* program;
  unsigned steps;
};

// Fault-free specs in Zipf rank order (rank 0 is the hottest): six
// families, every mode, three disciplines, eleven programs.
constexpr MixSpec kZipfSpecs[] = {
    {"star:5/two-phase/erew/fifo", "permutation", 4},
    {"mesh:12/three-stage/erew/fifo", "permutation", 4},
    {"star:5/two-phase/crcw-combining/fifo", "histogram", 4},
    {"butterfly:6/two-phase/crew/fifo", "broadcast-crew", 4},
    {"hypercube:6/valiant/crcw-combining/fifo", "histogram", 4},
    {"torus:10/greedy/crew/nearest-first", "list-ranking", 4},
    {"shuffle:7/two-phase/erew/furthest-first", "prefix-sum", 4},
    {"mesh:10/xy/crcw-combining/fifo", "hotspot-write", 4},
    {"ccc:4/sweep/crcw/fifo", "logical-or", 4},
    {"nshuffle:4/two-phase/crew/fifo", "random", 4},
    {"hypercube:7/ecube/erew/fifo", "max-tournament", 4},
    {"linear:16/greedy/erew/fifo", "compaction", 4},
};
constexpr double kZipfExponent = 1.6;

// The warm large machine: 1-step requests where per-request validation
// dominates the short run.
constexpr MixSpec kWarmSpec = {"star:7/two-phase/erew/fifo", "permutation",
                               1};

// Faulted specs take the farm's uncacheable path (built per request).
constexpr MixSpec kFaultedSpecs[] = {
    {"star:5/two-phase/erew/fifo/faults:links=0.05", "permutation", 4},
    {"mesh:8/three-stage/erew/fifo/faults:nodes=0.05", "permutation", 4},
    {"hypercube:6/valiant/crcw/fifo/faults:links=0.03", "histogram", 4},
};

// Class counts per block of 100 requests (the rest is Zipf fault-free
// traffic). Every block holds exactly these counts in a seeded order, so
// the shares do not drift with the seed or the run length.
constexpr std::size_t kBlock = 100;
constexpr std::size_t kMalformedPerBlock = 5;
constexpr std::size_t kFaultedPerBlock = 10;
constexpr std::size_t kWarmPerBlock = 2;
constexpr std::uint64_t kSeedPool = 16;  // request seeds 1..16
constexpr double kWindowS = 0.5;         // closed-loop throughput window

std::string request_line(const std::string& spec, const std::string& program,
                         std::uint64_t seed, unsigned steps,
                         const std::string& id) {
  std::ostringstream os;
  os << "{\"spec\": \"" << spec << "\", \"program\": \"" << program
     << "\", \"seed\": " << seed << ", \"steps\": " << steps
     << ", \"id\": \"" << id << "\"}";
  return os.str();
}

/// Malformed request `kind` (0..5) carrying `id` where the shape allows.
std::string malformed_line(std::uint64_t kind, const std::string& id) {
  switch (kind % 6) {
    case 0:
      return "{\"spec\": \"star:5/bogus-router/erew/fifo\", \"id\": \"" + id +
             "\"}";
    case 1:
      return "{\"spec\": \"mesh:8/three-stage/erew/fifo\", \"program\": "
             "\"no-such-program\", \"id\": \"" +
             id + "\"}";
    case 2:  // mode mismatch: histogram needs a CRCW machine
      return "{\"spec\": \"star:5/two-phase/erew/fifo\", \"program\": "
             "\"histogram\", \"id\": \"" +
             id + "\"}";
    case 3:  // no spec; carries no id either (see README: known defects)
      return "{\"program\": \"permutation\"}";
    case 4:
      return "{\"spec\": \"star:5/two-phase/erew/fifo\", \"seed\": -3, "
             "\"id\": \"" +
             id + "\"}";
    default:
      return "this line is not JSON";
  }
}

std::string item_id(std::size_t index, const char* prefix = "r") {
  std::string id = prefix;  // built with += (GCC 12 -Wrestrict false positive)
  id += std::to_string(index);
  return id;
}

/// The id a response must echo for `line` ("" when it carries none).
std::string expected_id(const std::string& line) {
  std::string id;
  return json_string_field(line, "id", id) ? id : std::string();
}

// ------------------------------------------------------------ the oracle

struct RunRecord {
  std::string report;  // write_report_fields body
  std::uint64_t network_steps = 0;
  std::uint32_t pram_steps = 0;
  std::uint32_t route_scale = 1;
};

struct Expected {
  bool decoded = false;
  std::string cache;
  const RunRecord* run = nullptr;
  double service_s = 0.0;  // traced replay: decode .. render
};

/// Replays requests in-process through the serve module's public calls
/// (decode_request, Farm::resolve, make_program + run, write_report_fields,
/// write_ok_response) in the server's order, so the farm's cache outcomes
/// follow the server's. A run's report is memoised by (spec, program,
/// seed, steps); its first occurrence is also checked against
/// ReferencePram and, when tracing, re-run under an obs::Recorder.
class Oracle {
 public:
  Oracle(Tracer& tracer, std::map<std::string, RunRecord>& memo,
         Result& result, SessionNumbers& numbers)
      : tracer_(tracer), memo_(memo), result_(result), numbers_(numbers) {}

  /// `time_service` re-runs memoised requests too, so every request gets
  /// its own traced service time.
  Expected replay(const std::string& line, std::uint64_t seq,
                  bool time_service);

  [[nodiscard]] ls::Farm::Counters counters() const {
    return farm_.counters();
  }

 private:
  using RunFn = std::function<levnet::emulation::EmulationReport(
      levnet::pram::PramProgram&, levnet::pram::SharedMemory&,
      levnet::obs::Recorder*)>;

  void check_first_run(const ls::ServeRequest& request,
                       std::uint32_t processors, const RunFn& run_once,
                       const levnet::pram::SharedMemory& memory,
                       const levnet::emulation::EmulationReport& report);
  /// Per-call layer samples exist only in the traced replay.
  void note(const char* layer, double seconds) {
    if (tracer_.enabled()) numbers_.layers.add(layer, seconds);
  }

  Tracer& tracer_;
  std::map<std::string, RunRecord>& memo_;
  Result& result_;
  SessionNumbers& numbers_;
  ls::Farm farm_{ls::FarmConfig{8}};
};

Expected Oracle::replay(const std::string& line, std::uint64_t seq,
                        bool time_service) {
  Expected e;
  ls::ServeRequest request;
  std::string error;
  Span request_span(tracer_, "serve.request");
  {
    Span span(tracer_, "serve.decode_request");
    e.decoded = ls::decode_request(line, seq, 4, request, error);
    note("serve.decode", span.stop());
  }
  if (!e.decoded) {
    e.service_s = request_span.stop();
    return e;
  }
  if (request.spec.faults.any()) request.spec.seed = request.seed;
  ls::Farm::Resolved resolved;
  {
    Span span(tracer_, "serve.resolve");
    resolved = farm_.resolve(request.spec);
    const double s = span.stop();
    note(resolved.outcome == ls::CacheOutcome::kHit    ? "serve.hit"
               : resolved.outcome == ls::CacheOutcome::kMiss ? "serve.miss"
                                                             : "serve.uncacheable",
               s);
  }
  e.cache = ls::cache_outcome_key(resolved.outcome);
  const bool shared = resolved.owned == nullptr;
  const lm::Machine& machine =
      shared ? *resolved.shared : *resolved.owned;
  const RunFn run_once = [&](levnet::pram::PramProgram& program,
                             levnet::pram::SharedMemory& memory,
                             levnet::obs::Recorder* recorder) {
    return shared ? resolved.shared->run_seeded(request.seed, program, memory,
                                                recorder)
                  : resolved.owned->run(program, memory, recorder);
  };

  std::ostringstream key;
  key << request.spec.to_string() << '|' << request.program << '|'
      << request.seed << '|' << request.steps;
  auto it = memo_.find(key.str());
  const bool first = it == memo_.end();
  if (first || time_service) {
    levnet::pram::SharedMemory memory;
    levnet::emulation::EmulationReport report;
    {
      Span span(tracer_, "serve.run_slot");
      std::unique_ptr<levnet::pram::PramProgram> program;
      {
        Span make(tracer_, "machine.make_program");
        program = lm::make_program(request.program, machine.processors(),
                                   request.seed, request.steps, error);
      }
      if (program == nullptr) {
        result_.check(false, "make_program failed: " + error);
        return e;
      }
      Span run(tracer_, "machine.run");
      report = run_once(*program, memory, nullptr);
      run.stop();
      note("serve.run", span.stop());
    }
    RunRecord record;
    {
      Span span(tracer_, "machine.write_report_fields");
      std::ostringstream os;
      lm::write_report_fields(os, report);
      record.report = os.str();
      note("machine.report", span.stop());
    }
    {
      Span span(tracer_, "serve.write_ok_response");
      std::ostringstream os;
      ls::write_ok_response(os, request, resolved.outcome, report, nullptr);
      note("serve.render", span.stop());
    }
    e.service_s = request_span.stop();
    record.network_steps = report.network_steps;
    record.pram_steps = report.pram_steps;
    record.route_scale = machine.route_scale();
    if (first) {
      check_first_run(request, machine.processors(), run_once, memory,
                      report);
      it = memo_.emplace(key.str(), std::move(record)).first;
    }
  } else {
    e.service_s = request_span.stop();
  }
  if (tracer_.enabled()) {
    // Warm hits pay validation on every request (outside the service
    // span: this is the benchmark's own second call).
    Span span(tracer_, "machine.validate");
    std::string validate_error;
    const bool valid = lm::Machine::validate(request.spec, validate_error);
    note("machine.validate", span.stop());
    result_.check(valid, "validate rejected a decoded spec");
    if (!shared && first) {
      note("faults.plan", fault_plan_seconds(request.spec, tracer_));
    }
  }
  e.run = &it->second;
  return e;
}

void Oracle::check_first_run(const ls::ServeRequest& request,
                             std::uint32_t processors, const RunFn& run_once,
                             const levnet::pram::SharedMemory& memory,
                             const levnet::emulation::EmulationReport& report) {
  std::string error;
  std::unique_ptr<levnet::pram::PramProgram> program = lm::make_program(
      request.program, processors, request.seed, request.steps, error);
  levnet::pram::SharedMemory ideal;
  {
    Span span(tracer_, "pram.reference_run");
    levnet::pram::ReferencePram::for_program(*program).run(*program, ideal);
    note("pram.reference", span.stop());
  }
  result_.check(report.complete && ideal == memory &&
                    program->validate(memory),
                "memory differs from ReferencePram for " +
                    request.spec.to_string() + " " + request.program);
  if (!tracer_.enabled()) return;
  // The service run was this key's first, cold run; the tracing overhead
  // compares a recorded run with a second plain one, alternating which
  // goes first.
  double plain_s = 0.0;
  const auto plain_rerun = [&] {
    program->reset();
    levnet::pram::SharedMemory scratch;
    Span span(tracer_, "machine.rerun");
    (void)run_once(*program, scratch, nullptr);
    plain_s = span.stop();
  };
  const bool plain_first = numbers_.work.runs % 2 == 0;
  if (plain_first) plain_rerun();
  program->reset();
  levnet::obs::Recorder recorder;
  levnet::pram::SharedMemory traced_memory;
  levnet::emulation::EmulationReport traced;
  double traced_s = 0.0;
  {
    Span span(tracer_, "obs.recorded_run");
    traced = run_once(*program, traced_memory, &recorder);
    traced_s = span.stop();
  }
  if (!plain_first) plain_rerun();
  result_.check(simulated_fields(traced) == simulated_fields(report) &&
                    traced_memory == memory,
                "traced run differs from untraced for " +
                    request.spec.to_string());
  numbers_.work.add(recorder, report, plain_s, traced_s);
}

// ------------------------------------------------------------ the checks

struct StatsLine {
  std::uint64_t requests = 0, ok = 0, errors = 0, batches = 0,
                peak_batch = 0, hits = 0, misses = 0, uncacheable = 0;
};

bool parse_stats(const std::string& line, StatsLine& s) {
  return json_number_field(line, "requests", s.requests) &&
         json_number_field(line, "ok", s.ok) &&
         json_number_field(line, "errors", s.errors) &&
         json_number_field(line, "batches", s.batches) &&
         json_number_field(line, "peak_batch", s.peak_batch) &&
         json_number_field(line, "cache_hits", s.hits) &&
         json_number_field(line, "cache_misses", s.misses) &&
         json_number_field(line, "uncacheable", s.uncacheable);
}

/// Per-class tallies of what the server answered.
struct ClassCounts {
  std::uint64_t hit = 0, miss = 0, uncacheable = 0, error = 0;
  [[nodiscard]] std::uint64_t total() const {
    return hit + miss + uncacheable + error;
  }
};

/// Checks one server run against an in-process replay of the same lines
/// and returns the replay's expectations (index-aligned with the lines).
std::vector<Expected> check_run(const ServerRun& run,
                                const std::vector<std::string>& lines,
                                const std::vector<bool>& malformed,
                                bool time_service, Tracer& tracer,
                                std::map<std::string, RunRecord>& memo,
                                Result& result, SessionNumbers& numbers,
                                ClassCounts& classes, StatsLine& stats) {
  std::vector<Expected> expected;
  result.check(run.ok, "serve run: " + run.error);
  if (!run.ok) return expected;
  Oracle oracle(tracer, memo, result, numbers);
  expected.reserve(run.sent);
  for (std::size_t i = 0; i < run.sent; ++i) {
    const Expected e = oracle.replay(lines[i], i, time_service);
    expected.push_back(e);
    const std::string& response = run.exchanges[i].response;
    ResponseView view;
    std::uint64_t seq = 0;
    view.seq_ok = json_number_field(response, "seq", seq) && seq == i;
    std::string id;
    const std::string want_id = expected_id(lines[i]);
    view.id_ok = want_id.empty() ? !json_string_field(response, "id", id)
                                 : json_string_field(response, "id", id) &&
                                       id == want_id;
    view.malformed = malformed[i];
    std::string status;
    view.status_ok = json_string_field(response, "status", status) &&
                     status == "ok";
    std::string cache;
    std::string body;
    view.payload_ok = e.decoded && e.run != nullptr &&
                      json_string_field(response, "cache", cache) &&
                      cache == e.cache && json_report_body(response, body) &&
                      body == e.run->report;
    result.check(e.decoded != malformed[i] && response_correct(view),
                 "response " + std::to_string(i) + ": " + response);
    if (!view.status_ok) {
      ++classes.error;
    } else if (cache == "hit") {
      ++classes.hit;
    } else if (cache == "miss") {
      ++classes.miss;
    } else {
      ++classes.uncacheable;
    }
  }
  const ls::Farm::Counters farm = oracle.counters();
  result.check(parse_stats(run.stats_line, stats) &&
                   stats.requests == run.sent &&
                   stats_consistent(stats.requests, stats.ok, stats.errors,
                                    stats.hits, stats.misses,
                                    stats.uncacheable) &&
                   stats.hits == farm.hits && stats.misses == farm.misses &&
                   stats.uncacheable == farm.uncacheable,
               "stats line: " + run.stats_line);
  return expected;
}

/// Prewarm lines: one request per fault-free spec of the mix, coldest
/// first, so the cache starts as the Zipf stream would leave it.
std::vector<std::string> prewarm_lines() {
  std::vector<std::string> lines;
  for (std::size_t r = std::size(kZipfSpecs); r-- > 0;) {
    const MixSpec& m = kZipfSpecs[r];
    lines.push_back(
        request_line(m.spec, m.program, 1, m.steps, item_id(r, "w")));
  }
  lines.push_back(request_line(kWarmSpec.spec, kWarmSpec.program, 1,
                               kWarmSpec.steps, "w-large"));
  return lines;
}

/// The warm-up line, the prewarm lines when asked for, then the items.
std::vector<std::string> lines_of(const std::vector<StreamItem>& items,
                                  bool prewarm, std::vector<bool>& malformed) {
  std::vector<std::string> lines;
  lines.push_back(warmup_item().line);
  if (prewarm) {
    for (std::string& line : prewarm_lines()) lines.push_back(std::move(line));
  }
  malformed.assign(lines.size(), false);
  for (const StreamItem& item : items) {
    lines.push_back(item.line);
    malformed.push_back(item.malformed);
  }
  return lines;
}

std::string share(std::uint64_t part, std::uint64_t whole) {
  return fmt(whole == 0 ? 0.0
                        : static_cast<double>(part) /
                              static_cast<double>(whole));
}

}  // namespace

StreamItem warmup_item() {
  return StreamItem{request_line(kZipfSpecs[0].spec, kZipfSpecs[0].program,
                                 1, kZipfSpecs[0].steps, "warmup"),
                    false};
}

std::vector<StreamItem> mix_stream(std::uint64_t seed, std::size_t count) {
  enum class Kind : std::uint8_t { kZipf, kMalformed, kFaulted, kWarm };
  levnet::support::Rng rng(seed);
  constexpr std::size_t kSpecs = std::size(kZipfSpecs);
  double weights[kSpecs];
  double total = 0.0;
  for (std::size_t r = 0; r < kSpecs; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    total += weights[r];
  }
  std::vector<Kind> block(kBlock, Kind::kZipf);
  std::fill_n(block.begin(), kMalformedPerBlock, Kind::kMalformed);
  std::fill_n(block.begin() + kMalformedPerBlock, kFaultedPerBlock,
              Kind::kFaulted);
  std::fill_n(block.begin() + kMalformedPerBlock + kFaultedPerBlock,
              kWarmPerBlock, Kind::kWarm);
  std::vector<StreamItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kBlock == 0) {  // seeded Fisher-Yates shuffle of the next block
      for (std::size_t j = kBlock - 1; j > 0; --j) {
        std::swap(block[j], block[rng.below(j + 1)]);
      }
    }
    const std::string id = item_id(i + 1);
    const std::uint64_t request_seed = 1 + rng.below(kSeedPool);
    const MixSpec* pick = &kWarmSpec;
    switch (block[i % kBlock]) {
      case Kind::kMalformed:
        items.push_back({malformed_line(rng.below(6), id), true});
        continue;
      case Kind::kFaulted:
        pick = &kFaultedSpecs[rng.below(std::size(kFaultedSpecs))];
        break;
      case Kind::kWarm:
        break;
      case Kind::kZipf: {
        double x = rng.uniform() * total;
        std::size_t r = 0;
        while (r + 1 < kSpecs && x >= weights[r]) x -= weights[r++];
        pick = &kZipfSpecs[r];
        break;
      }
    }
    items.push_back({request_line(pick->spec, pick->program, request_seed,
                                  pick->steps, id),
                     false});
  }
  return items;
}

std::vector<StreamItem> probe_stream(const std::string& spec,
                                     const std::string& program,
                                     std::uint64_t seed) {
  levnet::support::Rng rng(seed);
  const std::uint64_t a = 1 + rng.below(kSeedPool);
  const std::uint64_t b = 1 + rng.below(kSeedPool);
  return {
      {request_line(spec, program, a, 1, "r1"), false},            // miss
      {request_line(spec, program, b, 1, "r2"), false},            // hit
      {request_line(spec + "/faults:links=0.01", program, b, 1, "r3"),
       false},                                                      // faulted
      {malformed_line(1, "r4"), true},                              // error
      {request_line(spec, program, a, 1, "r5"), false},             // hit
  };
}

SessionNumbers run_serve_session(const Options& options,
                                 const std::vector<Round>& rounds,
                                 const SessionPlan& plan, Tracer& tracer,
                                 Result& result) {
  SessionNumbers numbers;
  const unsigned workers = std::min(4U, host_cpus());
  const std::vector<std::string> args = {"--cache", "8", "--workers",
                                         std::to_string(workers)};
  LoadPlan open;
  open.loop = LoadPlan::Loop::kOpen;
  open.rate_per_s = plan.open_rate_per_s;
  LoadPlan closed;
  closed.loop = LoadPlan::Loop::kClosed;
  closed.window = plan.window;
  closed.duration_s = plan.closed_s;
  const std::size_t warm = plan.prewarm ? 1 + prewarm_lines().size() : 1;
  open.warm_lines = closed.warm_lines = warm;

  std::map<std::string, RunRecord> memo;
  ClassCounts classes;
  std::vector<double> queue_wait_ms;
  std::vector<double> late_ms;
  std::vector<double> rate;
  std::vector<double> ms_per_step;
  std::uint64_t network_steps = 0;
  double scaled_pram_steps = 0.0;
  std::size_t open_sent = 0;
  std::size_t closed_sent = 0;
  std::uint64_t batches = 0;
  std::uint64_t peak_batch = 0;
  Tracer quiet(false);
  for (const Round& round : rounds) {
    // Set-up samples: spawn -> first response of the warm-up request.
    for (std::size_t s = 0; s < plan.setup_spawns; ++s) {
      const ServerRun probe = drive_server(options.serve_binary, args,
                                           {warmup_item().line}, LoadPlan{});
      result.check(probe.ok, "set-up spawn: " + probe.error);
      if (probe.ok) numbers.setup_s.push_back(probe.first_response_s);
    }
    std::vector<bool> malformed1;
    std::vector<bool> malformed2;
    const std::vector<std::string> lines1 =
        lines_of(round.open, plan.prewarm, malformed1);
    const std::vector<std::string> lines2 =
        lines_of(round.closed, plan.prewarm, malformed2);
    const ServerRun run1 =
        drive_server(options.serve_binary, args, lines1, open);
    const ServerRun run2 =
        drive_server(options.serve_binary, args, lines2, closed);
    for (const ServerRun* run : {&run1, &run2}) {
      if (run->ok) numbers.setup_s.push_back(run->first_response_s);
      numbers.peak_rss_mb = std::max(numbers.peak_rss_mb, run->peak_rss_mb);
    }
    open_sent += run1.sent;
    closed_sent += run2.sent;

    // Correctness: replay both servers' streams in-process (the open loop
    // request by request under spans when tracing, so each request has
    // its own service time).
    StatsLine stats1;
    StatsLine stats2;
    const std::vector<Expected> expected1 =
        check_run(run1, lines1, malformed1, tracer.enabled(), tracer, memo,
                  result, numbers, classes, stats1);
    const std::vector<Expected> expected2 =
        check_run(run2, lines2, malformed2, false, quiet, memo, result,
                  numbers, classes, stats2);
    batches += stats2.batches;
    peak_batch = std::max(peak_batch, stats2.peak_batch);

    // Open loop: latency from due time, and the Theorem 2.5 constant.
    for (std::size_t i = warm; i < expected1.size(); ++i) {
      const Exchange& x = run1.exchanges[i];
      const double latency_ms = latency_from_due(x.due_s, x.recv_s) * 1e3;
      numbers.latency_ms.push_back(latency_ms);
      late_ms.push_back(sched_lateness(x.due_s, x.sent_s) * 1e3);
      queue_wait_ms.push_back(latency_ms - expected1[i].service_s * 1e3);
      if (expected1[i].run != nullptr) {
        network_steps += expected1[i].run->network_steps;
        scaled_pram_steps +=
            static_cast<double>(expected1[i].run->pram_steps) *
            expected1[i].run->route_scale;
      }
    }
    // Closed loop, per window: responses after the window's first one
    // over the time from its first to its last response, and the PRAM
    // steps those responses served.
    if (expected2.size() > warm) {
      struct WindowTally {
        std::size_t responses = 0;
        double first_s = 0.0, last_s = 0.0, steps = 0.0;
      };
      const double start = run2.exchanges[warm].sent_s;
      const auto windows = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::min(plan.closed_s, run2.load_wall_s) / kWindowS));
      std::vector<WindowTally> tally(windows);
      for (std::size_t i = warm; i < expected2.size(); ++i) {
        const double recv_s = run2.exchanges[i].recv_s;
        const auto k = static_cast<std::size_t>(
            std::max((recv_s - start) / kWindowS, 0.0));
        if (k >= windows) continue;  // drained after the last window
        WindowTally& t = tally[k];
        if (t.responses++ == 0) {
          t.first_s = recv_s;
        } else if (expected2[i].run != nullptr) {
          t.steps += expected2[i].run->pram_steps;
        }
        t.last_s = recv_s;
      }
      for (const WindowTally& t : tally) {
        const double span_s = t.last_s - t.first_s;
        if (t.responses < 2 || span_s <= 0) continue;
        rate.push_back(static_cast<double>(t.responses - 1) / span_s);
        if (t.steps > 0) ms_per_step.push_back(span_s * 1e3 / t.steps);
      }
    }
  }
  numbers.steps_per_diam =
      scaled_pram_steps > 0
          ? static_cast<double>(network_steps) / scaled_pram_steps
          : 0.0;
  // Medians over the windows pooled across the rounds' servers, so
  // one slow spell or one slow placement moves a few windows, not the
  // result.
  numbers.req_per_s = median(rate);
  numbers.ms_per_pram_step = median(ms_per_step);
  std::string listed;
  for (const double r : rate) listed += (listed.empty() ? "" : " ") + fmt(r);
  result.info("closed-loop req/s per window", listed);

  const std::uint64_t answered = classes.total();
  result.info("serve classes",
              "hit " + share(classes.hit, answered) + ", miss " +
                  share(classes.miss, answered) + ", uncacheable " +
                  share(classes.uncacheable, answered) + ", error " +
                  share(classes.error, answered) + " of " +
                  std::to_string(answered) + " responses");
  result.info("serve rounds",
              std::to_string(rounds.size()) + " x (open loop at " +
                  fmt(plan.open_rate_per_s) + "/s, closed loop window " +
                  std::to_string(plan.window) + " for " +
                  fmt(plan.closed_s) + " s); " + std::to_string(open_sent) +
                  " + " + std::to_string(closed_sent) +
                  " requests; workers " + std::to_string(workers));
  if (!tracer.enabled()) return numbers;

  const Samples& l = numbers.layers;
  result.metric("serve.decode_us", l.mean("serve.decode") * 1e6, "us");
  result.metric("serve.resolve_hit_us", l.mean("serve.hit") * 1e6, "us");
  result.metric("serve.resolve_miss_ms", l.mean("serve.miss") * 1e3, "ms");
  result.metric("serve.resolve_uncacheable_ms",
                l.mean("serve.uncacheable") * 1e3, "ms");
  result.metric("serve.run_ms", l.mean("serve.run") * 1e3, "ms");
  result.metric("serve.render_us", l.mean("serve.render") * 1e6, "us");
  result.metric("machine.report_us", l.mean("machine.report") * 1e6, "us");
  result.metric("faults.plan_ms", l.mean("faults.plan") * 1e3, "ms");
  const std::uint64_t ok = classes.hit + classes.miss + classes.uncacheable;
  result.metric("serve.hit_ratio",
                ok == 0 ? 0.0
                        : static_cast<double>(classes.hit) /
                              static_cast<double>(ok),
                "ratio");
  result.metric("serve.batches", static_cast<double>(batches), "count");
  result.metric("serve.peak_batch", static_cast<double>(peak_batch),
                "count");
  result.metric("serve.queue_wait_ms", median(queue_wait_ms), "ms");
  const Tail late = tail_percentile(late_ms);
  result.metric("serve.sched_late_ms", late.value, "ms");
  result.info("serve.sched_late_ms", "p" + fmt(late.percentile) + " of " +
                                         std::to_string(late.samples));
  return numbers;
}

}  // namespace levbench
