#include "machine/spec.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <string>
#include <vector>

#include "machine/registry.hpp"
#include "support/check.hpp"

namespace levnet::machine {

namespace {

constexpr std::string_view kModeKeys[] = {"erew", "crew", "crcw",
                                          "crcw-combining"};
constexpr std::string_view kDisciplineKeys[] = {"fifo", "furthest-first",
                                                "nearest-first"};

[[nodiscard]] std::string_view discipline_key(
    sim::QueueDiscipline d) noexcept {
  return kDisciplineKeys[static_cast<std::size_t>(d)];
}

[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  const std::string owned(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  out = value;
  return true;
}

[[nodiscard]] bool parse_u32(std::string_view text, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, wide) || wide > ~std::uint32_t{0}) return false;
  out = static_cast<std::uint32_t>(wide);
  return true;
}

[[nodiscard]] bool parse_fraction(std::string_view text, double& out) {
  if (text.empty()) return false;
  const std::string owned(text);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) return false;
  if (!(value >= 0.0) || value >= 1.0) return false;
  out = value;
  return true;
}

void append_fraction(std::string& out, double value) {
  // Shortest round-trip form: parse(to_string(spec)) must reproduce the
  // exact double (the fault-plan draw depends on it bit for bit).
  char buffer[32];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec == std::errc{}) {
    out.append(buffer, end);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    out += buffer;
  }
}

[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

/// Splits "key:params" (params optional).
void split_key_params(std::string_view segment, std::string_view& key,
                      std::string_view& params) {
  const std::size_t colon = segment.find(':');
  key = segment.substr(0, colon);
  params = colon == std::string_view::npos ? std::string_view{}
                                           : segment.substr(colon + 1);
}

[[nodiscard]] bool parse_topology_segment(std::string_view segment,
                                          MachineSpec& out,
                                          std::string& error) {
  std::string_view key;
  std::string_view params;
  split_key_params(segment, key, params);
  const TopologyInfo* info = find_topology(key);
  if (info == nullptr) {
    error = "unknown topology family '" + std::string(key) +
            "' (valid: " + topology_keys_joined() + ")";
    return false;
  }
  out.topology = std::string(key);
  if (params.empty()) {
    error = "topology '" + std::string(key) + "' needs parameters: " +
            std::string(info->params_help);
    return false;
  }
  const std::size_t cross = params.find('x');
  const std::string_view first =
      params.substr(0, cross);
  if (!parse_u32(first, out.param0) || out.param0 == 0) {
    error = "bad topology parameter '" + std::string(first) + "' in '" +
            std::string(segment) + "' (expected " +
            std::string(info->params_help) + ")";
    return false;
  }
  if (cross != std::string_view::npos) {
    const std::string_view second = params.substr(cross + 1);
    if (!parse_u32(second, out.param1) || out.param1 == 0) {
      error = "bad topology parameter '" + std::string(second) + "' in '" +
              std::string(segment) + "' (expected " +
              std::string(info->params_help) + ")";
      return false;
    }
  } else {
    out.param1 = 0;
  }
  return true;
}

[[nodiscard]] bool parse_router_segment(std::string_view segment,
                                        MachineSpec& out, std::string& error) {
  std::string_view key;
  std::string_view params;
  split_key_params(segment, key, params);
  // The topology segment parsed, so the family exists. Whether the router
  // may carry a parameter is a shape question, left to Machine::validate.
  if (!check_router(*find_topology(out.topology), key, 0, error)) return false;
  out.router = std::string(key);
  out.router_param = 0;
  if (!params.empty() && !parse_u32(params, out.router_param)) {
    error = "bad router parameter '" + std::string(params) + "' in '" +
            std::string(segment) + "' (expected an unsigned integer)";
    return false;
  }
  return true;
}

[[nodiscard]] bool parse_faults_segment(std::string_view body,
                                        MachineSpec& out, std::string& error) {
  for (const std::string_view kv : split(body, ',')) {
    const std::size_t eq = kv.find('=');
    const std::string_view knob = kv.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : kv.substr(eq + 1);
    bool ok = true;
    if (knob == "links") {
      ok = parse_fraction(value, out.faults.links);
    } else if (knob == "nodes") {
      ok = parse_fraction(value, out.faults.nodes);
    } else if (knob == "procs") {
      ok = parse_fraction(value, out.faults.procs);
    } else if (knob == "modules") {
      ok = parse_fraction(value, out.faults.modules);
    } else if (knob == "onsets") {
      ok = parse_u32(value, out.faults.onset_epochs);
    } else if (knob == "allow-cut") {
      std::uint32_t flag = 0;
      ok = parse_u32(value, flag) && flag <= 1;
      if (ok) out.faults.preserve_connectivity = flag == 0;
    } else {
      error = "unknown fault knob '" + std::string(knob) +
              "' (valid: links, nodes, procs, modules, onsets, allow-cut)";
      return false;
    }
    if (!ok) {
      error = "bad fault value '" + std::string(value) + "' for '" +
              std::string(knob) +
              "' (fractions must be in [0, 1), counts unsigned integers)";
      return false;
    }
  }
  return true;
}

[[nodiscard]] bool parse_tail_segment(std::string_view segment,
                                      MachineSpec& out, std::string& error) {
  for (std::size_t i = 0; i < std::size(kModeKeys); ++i) {
    if (segment == kModeKeys[i]) {
      out.mode = static_cast<Mode>(i);
      return true;
    }
  }
  for (std::size_t i = 0; i < std::size(kDisciplineKeys); ++i) {
    if (segment == kDisciplineKeys[i]) {
      out.discipline = static_cast<sim::QueueDiscipline>(i);
      return true;
    }
  }
  if (segment.rfind("faults:", 0) == 0) {
    return parse_faults_segment(segment.substr(7), out, error);
  }
  if (segment.rfind("threads:", 0) == 0) {
    const std::string_view value = segment.substr(8);
    if (!parse_u32(value, out.step_threads)) {
      error = "bad value '" + std::string(value) +
              "' for 'threads:' (expected an unsigned integer; 0 = hardware "
              "concurrency)";
      return false;
    }
    return true;
  }
  if (segment.rfind("obs:", 0) == 0) {
    const std::string_view value = segment.substr(4);
    if (!parse_u32(value, out.obs_cadence)) {
      error = "bad value '" + std::string(value) +
              "' for 'obs:' (expected an unsigned integer sampling cadence; "
              "0 = off)";
      return false;
    }
    return true;
  }
  if (segment == "trace") {
    out.obs_trace = true;
    return true;
  }
  const std::size_t eq = segment.find('=');
  if (eq != std::string_view::npos) {
    const std::string_view knob = segment.substr(0, eq);
    const std::string_view value = segment.substr(eq + 1);
    bool ok = true;
    if (knob == "seed") {
      ok = parse_u64(value, out.seed);
    } else if (knob == "budget") {
      ok = parse_u32(value, out.step_budget_factor);
    } else if (knob == "rehash") {
      ok = parse_u32(value, out.max_rehash_attempts);
    } else if (knob == "hash-degree") {
      ok = parse_u32(value, out.hash_degree);
    } else if (knob == "buffer") {
      ok = parse_u32(value, out.node_buffer_bound);
    } else {
      error = "unknown knob '" + std::string(knob) +
              "' (valid: seed, budget, rehash, hash-degree, buffer)";
      return false;
    }
    if (!ok) {
      error = "bad value '" + std::string(value) + "' for knob '" +
              std::string(knob) + "' (expected an unsigned integer)";
    }
    return ok;
  }
  error = "unknown segment '" + std::string(segment) +
          "' (expected a mode [erew|crew|crcw|crcw-combining], a discipline "
          "[fifo|furthest-first|nearest-first], 'threads:N', 'obs:N', "
          "'trace', 'faults:...', or a knob "
          "[seed=|budget=|rehash=|hash-degree=|buffer=])";
  return false;
}

}  // namespace

std::string_view mode_key(Mode mode) noexcept {
  return kModeKeys[static_cast<std::size_t>(mode)];
}

std::string MachineSpec::to_string() const {
  // Plain appends throughout: `"lit" + std::to_string(...)` trips a GCC 12
  // -Wrestrict false positive once inlining gets deep enough.
  std::string out = topology;
  out += ":";
  out += std::to_string(param0);
  if (param1 != 0) {
    out += "x";
    out += std::to_string(param1);
  }
  out += "/";
  out += router;
  if (router_param != 0) {
    out += ":";
    out += std::to_string(router_param);
  }
  out += "/";
  out += mode_key(mode);
  out += "/";
  out += discipline_key(discipline);
  if (step_threads != 1) {
    out += "/threads:";
    out += std::to_string(step_threads);
  }
  if (obs_cadence != 0) {
    out += "/obs:";
    out += std::to_string(obs_cadence);
  }
  if (obs_trace) out += "/trace";
  if (faults != FaultKnobs{}) {
    out += "/faults:";
    std::string kvs;
    const auto add = [&kvs](std::string_view knob) {
      if (!kvs.empty()) kvs += ",";
      kvs += knob;
      kvs += "=";
    };
    if (faults.links > 0.0) {
      add("links");
      append_fraction(kvs, faults.links);
    }
    if (faults.nodes > 0.0) {
      add("nodes");
      append_fraction(kvs, faults.nodes);
    }
    if (faults.procs > 0.0) {
      add("procs");
      append_fraction(kvs, faults.procs);
    }
    if (faults.modules > 0.0) {
      add("modules");
      append_fraction(kvs, faults.modules);
    }
    if (faults.onset_epochs != 1) {
      add("onsets");
      kvs += std::to_string(faults.onset_epochs);
    }
    if (!faults.preserve_connectivity) {
      add("allow-cut");
      kvs += "1";
    }
    out += kvs;
  }
  const MachineSpec defaults;
  if (seed != defaults.seed) {
    out += "/seed=";
    out += std::to_string(seed);
  }
  if (step_budget_factor != defaults.step_budget_factor) {
    out += "/budget=";
    out += std::to_string(step_budget_factor);
  }
  if (max_rehash_attempts != defaults.max_rehash_attempts) {
    out += "/rehash=";
    out += std::to_string(max_rehash_attempts);
  }
  if (hash_degree != defaults.hash_degree) {
    out += "/hash-degree=";
    out += std::to_string(hash_degree);
  }
  if (node_buffer_bound != defaults.node_buffer_bound) {
    out += "/buffer=";
    out += std::to_string(node_buffer_bound);
  }
  return out;
}

bool parse_spec(std::string_view text, MachineSpec& out, std::string& error) {
  out = MachineSpec{};
  error.clear();
  if (text.empty()) {
    error = "empty machine spec (expected topology/router[/...], e.g. "
            "star:5/two-phase/crcw-combining/fifo)";
    return false;
  }
  const std::vector<std::string_view> segments = split(text, '/');
  if (!parse_topology_segment(segments[0], out, error)) return false;
  if (segments.size() < 2 || segments[1].empty()) {
    error = "machine spec '" + std::string(text) +
            "' is missing the router segment (e.g. " + out.topology + ":" +
            std::to_string(out.param0) + "/" +
            std::string(find_topology(out.topology)->routers.front().key) +
            ")";
    return false;
  }
  if (!parse_router_segment(segments[1], out, error)) return false;
  for (std::size_t i = 2; i < segments.size(); ++i) {
    if (!parse_tail_segment(segments[i], out, error)) return false;
  }
  return true;
}

MachineSpec parse_spec(std::string_view text) {
  MachineSpec spec;
  std::string error;
  if (!parse_spec(text, spec, error)) {
    LEVNET_CHECK_MSG(false, error.c_str());
  }
  return spec;
}

}  // namespace levnet::machine
