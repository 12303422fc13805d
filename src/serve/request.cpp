#include "serve/request.hpp"

#include <ostream>
#include <sstream>

#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"

namespace levnet::serve {

const char* cache_outcome_key(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kUncacheable:
      return "uncacheable";
  }
  return "miss";
}

bool decode_request(const std::string& line, std::uint64_t seq,
                    std::uint32_t default_steps, ServeRequest& out,
                    std::string& error) {
  out = ServeRequest{};
  out.seq = seq;
  out.steps = default_steps;

  std::map<std::string, std::string> values;
  if (!machine::parse_flat_json(line, values, error, "request")) return false;
  // The id comes first so that every later error can echo it.
  if (values.count("id") != 0) out.tag = values["id"];
  for (const auto& [key, value] : values) {
    (void)value;
    if (key != "spec" && key != "program" && key != "seed" &&
        key != "steps" && key != "id") {
      error = "unknown request key '" + key +
              "' (valid: spec, program, seed, steps, id)";
      return false;
    }
  }
  if (values.count("spec") == 0) {
    error = "request is missing the required 'spec' key";
    return false;
  }
  out.spec_text = values["spec"];
  if (values.count("program") != 0) out.program = values["program"];
  if (values.count("seed") != 0) {
    if (!machine::parse_count_u64(values["seed"], out.seed)) {
      error = "bad number for 'seed' in request (expected an unsigned "
              "integer)";
      return false;
    }
    out.seed_given = true;
  }
  {
    unsigned long steps = out.steps;
    if (!machine::read_count_field(values, "steps", "request", steps, error)) {
      return false;
    }
    out.steps = static_cast<std::uint32_t>(steps);
  }

  if (!machine::parse_spec(out.spec_text, out.spec, error)) return false;
  if (!machine::Machine::validate(out.spec, error)) return false;
  if (!out.seed_given) out.seed = out.spec.seed;
  return machine::check_program(out.program, out.spec.mode, error);
}

namespace {

void write_seq_and_tag(std::ostream& os, std::uint64_t seq,
                       const std::string& tag) {
  os << "{\"seq\": " << seq;
  if (!tag.empty()) {
    os << ", \"id\": \"";
    machine::json_escape(os, tag);
    os << "\"";
  }
}

}  // namespace

void write_ok_response(std::ostream& os, const ServeRequest& request,
                       CacheOutcome outcome,
                       const emulation::EmulationReport& report,
                       const obs::Recorder* recorder) {
  write_seq_and_tag(os, request.seq, request.tag);
  os << ", \"status\": \"ok\", \"spec\": \"";
  machine::json_escape(os, request.spec.to_string());
  os << "\", \"program\": \"";
  machine::json_escape(os, request.program);
  os << "\", \"seed\": " << request.seed << ", \"cache\": \""
     << cache_outcome_key(outcome) << "\", \"report\": {";
  machine::write_report_fields(os, report);
  os << "}";
  if (recorder != nullptr) {
    os << ", \"counters\": {";
    for (std::size_t i = 0; i < obs::kProbeCount; ++i) {
      os << (i == 0 ? "" : ", ") << "\"" << obs::kProbeInfo[i].name
         << "\": " << recorder->counter(static_cast<obs::Probe>(i));
    }
    os << "}";
  }
  os << "}";
}

void write_error_response(std::ostream& os, std::uint64_t seq,
                          const std::string& tag, const std::string& error) {
  write_seq_and_tag(os, seq, tag);
  os << ", \"status\": \"error\", \"error\": \"";
  machine::json_escape(os, error);
  os << "\"}";
}

}  // namespace levnet::serve
