// Tests for src/serve/: request decode, the warm-machine LRU farm, and
// the session loop (request-order responses, structured errors, batching
// backpressure, drain-on-EOF, and the stats line).
//
// The ServeConcurrency suite name rides the TSan CI filter
// (-R '...|Concurrency|...'): multi-worker sessions and concurrent
// sessions over a shared farm are pinned byte-identical to serial there.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trials.hpp"
#include "machine/machine.hpp"
#include "machine/registry.hpp"
#include "machine/run_io.hpp"
#include "pram/memory.hpp"
#include "serve/farm.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "support/thread_pool.hpp"

namespace levnet {
namespace {

constexpr char kSpec[] = "star:5/two-phase/crcw-combining/fifo";

// ------------------------------------------------------------------ decode

TEST(ServeRequestTest, MinimalRequestFillsDefaults) {
  serve::ServeRequest request;
  std::string error;
  ASSERT_TRUE(serve::decode_request("{\"spec\": \"" + std::string(kSpec) +
                                        "\"}",
                                    3, 4, request, error))
      << error;
  EXPECT_EQ(request.seq, 3U);
  EXPECT_EQ(request.program, "permutation");
  EXPECT_EQ(request.seed, request.spec.seed);  // spec's seed knob
  EXPECT_FALSE(request.seed_given);
  EXPECT_EQ(request.steps, 4U);
  EXPECT_TRUE(request.tag.empty());
}

TEST(ServeRequestTest, FullRequestDecodes) {
  serve::ServeRequest request;
  std::string error;
  const std::string line = "{\"spec\": \"" + std::string(kSpec) +
                           "\", \"program\": \"histogram\", \"seed\": 99, "
                           "\"steps\": 2, \"id\": \"alpha\"}";
  ASSERT_TRUE(serve::decode_request(line, 0, 4, request, error)) << error;
  EXPECT_EQ(request.program, "histogram");
  EXPECT_EQ(request.seed, 99U);
  EXPECT_TRUE(request.seed_given);
  EXPECT_EQ(request.steps, 2U);
  EXPECT_EQ(request.tag, "alpha");
}

TEST(ServeRequestTest, RejectsStructuredErrors) {
  serve::ServeRequest request;
  std::string error;
  const auto fails = [&](const std::string& line) {
    error.clear();
    const bool ok = serve::decode_request(line, 0, 4, request, error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty()) << line;
    return error;
  };
  EXPECT_NE(fails("not json at all").find("request"), std::string::npos);
  fails("{\"program\": \"histogram\"}");  // missing spec
  EXPECT_NE(fails("{\"spec\": \"" + std::string(kSpec) +
                  "\", \"frobnicate\": 1}")
                .find("unknown request key 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(fails("{\"spec\": \"" + std::string(kSpec) +
                  "\", \"seed\": -1}")
                .find("seed"),
            std::string::npos);
  fails("{\"spec\": \"nope:5/greedy\"}");  // unknown topology
  EXPECT_NE(fails("{\"spec\": \"" + std::string(kSpec) +
                  "\", \"program\": \"florble\"}")
                .find("unknown program family"),
            std::string::npos);
  // Mode gate: logical-or needs crcw, spec is erew.
  EXPECT_NE(fails("{\"spec\": \"star:5/two-phase/erew/fifo\", "
                  "\"program\": \"logical-or\"}")
                .find("needs a crcw machine"),
            std::string::npos);
}

TEST(ServeRequestTest, EveryDecodeErrorKeepsTheId) {
  // The id is read before any other check, so an error response can
  // always name its request (only unparseable JSON has no id to give).
  for (const std::string& line :
       {std::string("{\"program\": \"permutation\", \"id\": \"z\"}"),
        "{\"spec\": \"" + std::string(kSpec) +
            "\", \"frobnicate\": 1, \"id\": \"z\"}",
        std::string("{\"spec\": \"nope:5/greedy\", \"id\": \"z\"}"),
        std::string("{\"spec\": \"star:5/two-phase/erew/fifo\", "
                    "\"program\": \"logical-or\", \"id\": \"z\"}")}) {
    serve::ServeRequest request;
    std::string error;
    EXPECT_FALSE(serve::decode_request(line, 0, 4, request, error)) << line;
    EXPECT_EQ(request.tag, "z") << line;
  }
}

// -------------------------------------------------------------------- farm

machine::MachineSpec spec_with_seed(std::uint64_t seed) {
  machine::MachineSpec spec = machine::parse_spec(kSpec);
  spec.seed = seed;
  return spec;
}

TEST(ServeFarmTest, MissThenHitSharesOneMachine) {
  serve::Farm farm(serve::FarmConfig{4});
  const serve::Farm::Resolved first = farm.resolve(spec_with_seed(1));
  EXPECT_EQ(first.outcome, serve::CacheOutcome::kMiss);
  ASSERT_NE(first.shared, nullptr);
  const serve::Farm::Resolved second = farm.resolve(spec_with_seed(1));
  EXPECT_EQ(second.outcome, serve::CacheOutcome::kHit);
  EXPECT_EQ(first.shared.get(), second.shared.get());
  const serve::Farm::Counters counters = farm.counters();
  EXPECT_EQ(counters.hits, 1U);
  EXPECT_EQ(counters.misses, 1U);
  EXPECT_EQ(counters.evictions, 0U);
  EXPECT_EQ(counters.entries, 1U);
}

TEST(ServeFarmTest, LruEvictionOrderIsDeterministic) {
  serve::Farm farm(serve::FarmConfig{2});
  (void)farm.resolve(spec_with_seed(1));
  (void)farm.resolve(spec_with_seed(2));
  (void)farm.resolve(spec_with_seed(3));  // evicts seed=1 (least recent)
  std::vector<std::string> keys = farm.cached_keys();
  ASSERT_EQ(keys.size(), 2U);
  EXPECT_EQ(keys[0], spec_with_seed(3).to_string());
  EXPECT_EQ(keys[1], spec_with_seed(2).to_string());
  // Touching seed=2 promotes it; the next insert evicts seed=3.
  EXPECT_EQ(farm.resolve(spec_with_seed(2)).outcome,
            serve::CacheOutcome::kHit);
  (void)farm.resolve(spec_with_seed(4));
  keys = farm.cached_keys();
  ASSERT_EQ(keys.size(), 2U);
  EXPECT_EQ(keys[0], spec_with_seed(4).to_string());
  EXPECT_EQ(keys[1], spec_with_seed(2).to_string());
  EXPECT_EQ(farm.counters().evictions, 2U);
  // Seed=1 is gone: resolving it again is a fresh miss.
  EXPECT_EQ(farm.resolve(spec_with_seed(1)).outcome,
            serve::CacheOutcome::kMiss);
}

TEST(ServeFarmTest, CapacityZeroDisablesCaching) {
  serve::Farm farm(serve::FarmConfig{0});
  EXPECT_EQ(farm.resolve(spec_with_seed(1)).outcome,
            serve::CacheOutcome::kMiss);
  EXPECT_EQ(farm.resolve(spec_with_seed(1)).outcome,
            serve::CacheOutcome::kMiss);
  const serve::Farm::Counters counters = farm.counters();
  EXPECT_EQ(counters.misses, 2U);
  EXPECT_EQ(counters.entries, 0U);
  EXPECT_EQ(counters.evictions, 0U);
}

TEST(ServeFarmTest, FaultedSpecsAreUncacheableAndPrivate) {
  serve::Farm farm(serve::FarmConfig{4});
  machine::MachineSpec spec = machine::parse_spec(
      "star:5/two-phase/crcw/fifo/faults:links=0.05/budget=64/rehash=10");
  const serve::Farm::Resolved resolved = farm.resolve(spec);
  EXPECT_EQ(resolved.outcome, serve::CacheOutcome::kUncacheable);
  EXPECT_EQ(resolved.shared, nullptr);
  ASSERT_NE(resolved.owned, nullptr);
  const serve::Farm::Counters counters = farm.counters();
  EXPECT_EQ(counters.uncacheable, 1U);
  EXPECT_EQ(counters.misses, 0U);
  EXPECT_EQ(counters.entries, 0U);  // never cached
}

// ----------------------------------------------------------------- session

/// Serves `payload` through a fresh farm; returns the full output text.
std::string serve_text(const std::string& payload, std::size_t queue_depth,
                       unsigned workers, serve::SessionStats* stats = nullptr,
                       std::size_t cache_capacity = 8) {
  serve::Farm farm(serve::FarmConfig{cache_capacity});
  serve::SessionConfig config;
  config.queue_depth = queue_depth;
  config.workers = workers;
  serve::Session session(farm, config);
  std::istringstream in(payload);
  std::ostringstream out;
  const serve::SessionStats result = session.serve(in, out);
  if (stats != nullptr) *stats = result;
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ServeSessionTest, EveryProgramFamilyRoundTrips) {
  // crcw-combining admits every registered family's mode requirement.
  std::ostringstream payload;
  std::size_t count = 0;
  for (const machine::ProgramInfo& info : machine::program_families()) {
    payload << "{\"spec\": \"" << kSpec << "\", \"program\": \"" << info.key
            << "\", \"seed\": 5, \"steps\": 2, \"id\": \"" << info.key
            << "\"}\n";
    ++count;
  }
  ASSERT_GE(count, 12U);
  serve::SessionStats stats;
  const std::string output = serve_text(payload.str(), 4, 1, &stats);
  EXPECT_EQ(stats.requests, count);
  EXPECT_EQ(stats.ok, count);
  EXPECT_EQ(stats.errors, 0U);
  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), count + 1);  // + stats line
  std::size_t i = 0;
  for (const machine::ProgramInfo& info : machine::program_families()) {
    EXPECT_NE(lines[i].find("\"status\": \"ok\""), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"id\": \"" + std::string(info.key) + "\""),
              std::string::npos)
        << "response order must match request order: " << lines[i];
    EXPECT_NE(lines[i].find("\"complete\": true"), std::string::npos)
        << lines[i];
    ++i;
  }
}

TEST(ServeSessionTest, MalformedRequestsYieldErrorLinesAndStreamSurvives) {
  const std::string payload =
      "{\"spec\": \"" + std::string(kSpec) + "\", \"id\": \"a\"}\n" +
      "{\"bad json\n" +
      "{\"spec\": \"nope:1/x\"}\n" +
      "{\"spec\": \"" + std::string(kSpec) + "\", \"id\": \"b\"}\n";
  serve::SessionStats stats;
  const std::string output = serve_text(payload, 8, 1, &stats);
  EXPECT_EQ(stats.requests, 4U);
  EXPECT_EQ(stats.ok, 2U);
  EXPECT_EQ(stats.errors, 2U);
  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), 5U);
  EXPECT_NE(lines[0].find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"seq\": 3"), std::string::npos);
  EXPECT_NE(lines[3].find("\"id\": \"b\""), std::string::npos);
}

TEST(ServeSessionTest, UnsatisfiableFaultQuotaIsAPerRequestError) {
  // Whether procs=0.6 can be met on star:4 depends on the seed (seed 1
  // cannot), so it surfaces at run time as this request's error; the
  // stream goes on to serve the next line and the stats line.
  const std::string payload =
      "{\"spec\": \"star:4/two-phase/erew/fifo/faults:procs=0.6\", "
      "\"seed\": 1, \"id\": \"quota\"}\n"
      "{\"spec\": \"star:4/two-phase/erew/fifo\", \"seed\": 1, "
      "\"id\": \"next\"}\n";
  serve::SessionStats stats;
  const std::string output = serve_text(payload, 8, 2, &stats);
  EXPECT_EQ(stats.requests, 2U);
  EXPECT_EQ(stats.errors, 1U);
  EXPECT_EQ(stats.ok, 1U);
  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_NE(lines[0].find("\"id\": \"quota\", \"status\": \"error\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("procs= fraction unsatisfiable"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\": \"next\", \"status\": \"ok\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"status\": \"stats\""), std::string::npos);
}

TEST(ServeSessionTest, BadShapeIsAPerRequestErrorAndTheStreamGoesOn) {
  // A torus with a side of 2 is rejected while decoding — its constructor
  // needs three rows and columns — so the request gets an error line and
  // the next request is still served.
  const std::string payload =
      "{\"spec\": \"star:4/two-phase/erew/fifo\", \"id\": \"before\"}\n"
      "{\"spec\": \"torus:2/greedy\", \"id\": \"torus\"}\n"
      "{\"spec\": \"star:4/two-phase/erew/fifo\", \"id\": \"after\"}\n";
  serve::SessionStats stats;
  const std::string output = serve_text(payload, 8, 2, &stats);
  EXPECT_EQ(stats.requests, 3U);
  EXPECT_EQ(stats.errors, 1U);
  EXPECT_EQ(stats.ok, 2U);
  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), 4U);
  EXPECT_NE(lines[0].find("\"id\": \"before\", \"status\": \"ok\""),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\": \"torus\", \"status\": \"error\", "
                          "\"error\": \"bad parameters for topology 'torus'"),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"id\": \"after\", \"status\": \"ok\""),
            std::string::npos)
      << lines[2];
  EXPECT_NE(lines[3].find("\"status\": \"stats\""), std::string::npos);
}

TEST(ServeSessionTest, QueueDepthBoundsBatches) {
  std::ostringstream payload;
  for (int i = 0; i < 6; ++i) {
    payload << "{\"spec\": \"" << kSpec << "\", \"seed\": " << i
            << ", \"steps\": 1}\n";
  }
  // Depth 1: every request is its own batch — the backpressure floor.
  serve::SessionStats depth_one;
  (void)serve_text(payload.str(), 1, 1, &depth_one);
  EXPECT_EQ(depth_one.batches, 6U);
  EXPECT_EQ(depth_one.peak_batch, 1U);
  // Depth 8 over a fully-buffered stream: one batch of 6.
  serve::SessionStats depth_eight;
  (void)serve_text(payload.str(), 8, 1, &depth_eight);
  EXPECT_EQ(depth_eight.batches, 1U);
  EXPECT_EQ(depth_eight.peak_batch, 6U);
  // Depth 4 splits the same stream 4 + 2.
  serve::SessionStats depth_four;
  (void)serve_text(payload.str(), 4, 1, &depth_four);
  EXPECT_EQ(depth_four.batches, 2U);
  EXPECT_EQ(depth_four.peak_batch, 4U);
}

TEST(ServeSessionTest, DrainOnEofEmitsStatsLine) {
  const std::string payload =
      "{\"spec\": \"" + std::string(kSpec) + "\", \"steps\": 1}\n";
  const std::string output = serve_text(payload, 4, 1);
  const std::vector<std::string> lines = split_lines(output);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[1].rfind("{\"status\": \"stats\", \"requests\": 1, ", 0),
            0U)
      << lines[1];
  EXPECT_NE(lines[1].find("\"cache_hits\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache_misses\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"cache_capacity\": 8"), std::string::npos);
}

TEST(ServeSessionTest, ReportBytesMatchRunSeeded) {
  // The response's report object must be byte-identical to a direct
  // run_seeded through the shared writer — the same bytes levnet_run
  // emits for this (spec, program, seed).
  const std::uint64_t seed =
      analysis::TrialRunner::trial_seed(machine::parse_spec(kSpec).seed, 0);
  const std::string payload = "{\"spec\": \"" + std::string(kSpec) +
                              "\", \"program\": \"histogram\", \"seed\": " +
                              std::to_string(seed) + ", \"steps\": 2}\n";
  const std::string output = serve_text(payload, 4, 1);

  const machine::Machine machine = machine::Machine::build(kSpec);
  std::string error;
  const std::unique_ptr<pram::PramProgram> program = machine::make_program(
      "histogram", machine.processors(), seed, 2, error);
  ASSERT_NE(program, nullptr) << error;
  pram::SharedMemory memory;
  const emulation::EmulationReport report =
      machine.run_seeded(seed, *program, memory);
  std::ostringstream expected;
  expected << "\"report\": {";
  machine::write_report_fields(expected, report);
  expected << "}";
  EXPECT_NE(output.find(expected.str()), std::string::npos)
      << "serve report payload diverged from run_seeded:\n"
      << output;
}

TEST(ServeSessionTest, FaultedRequestStampsSeedIntoSpec) {
  const std::string faulted =
      "star:5/two-phase/crcw/fifo/faults:links=0.05/budget=64/rehash=10";
  const std::string payload = "{\"spec\": \"" + faulted +
                              "\", \"seed\": 42, \"steps\": 2}\n";
  const std::string output = serve_text(payload, 4, 1);
  EXPECT_NE(output.find("\"cache\": \"uncacheable\""), std::string::npos);

  // Reference: plan + stream derive together from the request seed.
  machine::MachineSpec spec = machine::parse_spec(faulted);
  spec.seed = 42;
  machine::Machine machine = machine::Machine::build(spec);
  std::string error;
  const std::unique_ptr<pram::PramProgram> program = machine::make_program(
      "permutation", machine.processors(), 42, 2, error);
  ASSERT_NE(program, nullptr) << error;
  pram::SharedMemory memory;
  const emulation::EmulationReport report = machine.run(*program, memory);
  std::ostringstream expected;
  expected << "\"report\": {";
  machine::write_report_fields(expected, report);
  expected << "}";
  EXPECT_NE(output.find(expected.str()), std::string::npos) << output;
}

TEST(ServeSessionTest, ObsTokensAttachProbeCounters) {
  const std::string payload = "{\"spec\": \"" + std::string(kSpec) +
                              "/obs:1\", \"steps\": 1}\n";
  const std::string output = serve_text(payload, 4, 1);
  EXPECT_NE(output.find("\"counters\": {"), std::string::npos) << output;
  EXPECT_NE(output.find("\"injections\": "), std::string::npos);
  // Without obs tokens no counters object is attached.
  const std::string plain = serve_text(
      "{\"spec\": \"" + std::string(kSpec) + "\", \"steps\": 1}\n", 4, 1);
  EXPECT_EQ(plain.find("\"counters\""), std::string::npos);
}

// -------------------------------------------------------------- concurrency

/// A mixed payload exercising both cache paths and several programs.
std::string mixed_payload() {
  std::ostringstream payload;
  const char* programs[] = {"permutation", "histogram", "prefix-sum"};
  for (int i = 0; i < 24; ++i) {
    payload << "{\"spec\": \"" << kSpec
            << (i % 2 == 0 ? "" : "/furthest-first") << "\", \"program\": \""
            << programs[i % 3] << "\", \"seed\": " << 7 + i % 4
            << ", \"steps\": 2, \"id\": \"r" << i << "\"}\n";
  }
  return payload.str();
}

TEST(ServeConcurrencySession, EightWorkersByteIdenticalToSerial) {
  const std::string payload = mixed_payload();
  serve::SessionStats serial_stats;
  const std::string serial = serve_text(payload, 8, 1, &serial_stats);
  serve::SessionStats pooled_stats;
  const std::string pooled = serve_text(payload, 8, 8, &pooled_stats);
  EXPECT_EQ(serial, pooled);
  EXPECT_EQ(serial_stats.ok, pooled_stats.ok);
  EXPECT_EQ(serial_stats.batches, pooled_stats.batches);
}

/// Response lines only: the trailing stats line snapshots farm-global
/// cache counters, which depend on client interleaving by design.
std::string response_lines(const std::string& output) {
  std::string joined;
  for (const std::string& line : split_lines(output)) {
    if (line.rfind("{\"status\": \"stats\"", 0) == 0) continue;
    joined += line;
    joined += '\n';
  }
  return joined;
}

TEST(ServeConcurrencyFarm, ConcurrentSessionsOverSharedFarmBitIdentical) {
  // 8 clients replay the same payload against one farm; every client's
  // response lines must equal the single-client reference byte for byte.
  const std::string payload = mixed_payload();

  // Reference: single session, pre-warmed farm so every line is a hit and
  // the cache field is stable across the concurrent replay too.
  serve::Farm warm(serve::FarmConfig{8});
  {
    serve::SessionConfig config;
    config.queue_depth = 8;
    config.workers = 1;
    serve::Session session(warm, config);
    std::istringstream in(payload);
    std::ostringstream out;
    (void)session.serve(in, out);
  }
  std::string reference;
  {
    serve::SessionConfig config;
    config.queue_depth = 8;
    config.workers = 1;
    serve::Session session(warm, config);
    std::istringstream in(payload);
    std::ostringstream out;
    (void)session.serve(in, out);
    reference = response_lines(out.str());
  }

  std::vector<std::string> outputs(8);
  support::ThreadPool pool(8);
  pool.parallel_for(outputs.size(), [&](std::size_t i) {
    serve::SessionConfig config;
    config.queue_depth = 8;
    config.workers = 1;
    serve::Session session(warm, config);
    std::istringstream in(payload);
    std::ostringstream out;
    (void)session.serve(in, out);
    outputs[i] = response_lines(out.str());
  });
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], reference) << "client " << i << " diverged";
  }
}

}  // namespace
}  // namespace levnet
