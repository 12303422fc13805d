// Self-test of the benchmark's own arithmetic: the tail-percentile rule,
// latency from due time, failure accounting, the response and stats-line
// checks, span self time, and the response-line field readers.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "serve_driver.hpp"

namespace levbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("self-test FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_rule() {
  // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
  Tail t = tail_percentile(one_to(1000));
  expect(near(t.percentile, 99) && near(t.value, 990) && t.beyond == 10,
         "p99 qualifies with exactly ten samples beyond");
  // 999 samples: p99 has only 9 beyond, so p95 (rank 950) is reported.
  t = tail_percentile(one_to(999));
  expect(near(t.percentile, 95) && near(t.value, 950) && t.beyond == 49,
         "p99 with nine beyond falls back to p95");
  // 100 samples: p95 has 5 beyond, p90 has 10.
  t = tail_percentile(one_to(100));
  expect(near(t.percentile, 90) && near(t.value, 90) && t.beyond == 10,
         "100 samples report p90");
  // 40 samples: p75 is rank 30 with 10 beyond.
  t = tail_percentile(one_to(40));
  expect(near(t.percentile, 75) && near(t.value, 30), "40 samples -> p75");
  // 12 samples: no rung has ten beyond; the median is reported.
  t = tail_percentile(one_to(12));
  expect(near(t.percentile, 50) && near(t.value, 6) && t.beyond == 6 &&
             t.samples == 12,
         "thin samples report the median");
  expect(tail_percentile({}).samples == 0, "empty sample set");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void test_latency_from_due() {
  // A request due at 1.0 s that the generator only sent at 1.5 s and that
  // came back at 1.6 s took 600 ms, not 100 ms.
  expect(near(latency_from_due(1.0, 1.6), 0.6), "latency counts from due");
  expect(near(sched_lateness(1.0, 1.5), 0.5), "generator lateness");
  expect(near(sched_lateness(1.0, 0.9), 0.0), "early send is not late");
}

void test_fail_accounting() {
  Outcomes o;
  expect(near(o.fail_share(), 1.0), "nothing attempted counts as failure");
  o.record(true);
  o.record(true);
  o.record(false);
  o.record(true);
  expect(o.attempted == 4 && o.failed == 1 && near(o.fail_share(), 0.25),
         "fail_share = failed / attempted");

  ResponseView r;
  r.seq_ok = r.id_ok = true;
  r.malformed = true;
  r.status_ok = false;
  expect(response_correct(r), "malformed answered with error succeeds");
  r.status_ok = true;
  expect(!response_correct(r), "malformed answered ok fails");
  r.malformed = false;
  r.payload_ok = true;
  expect(response_correct(r), "valid request with matching payload");
  r.payload_ok = false;
  expect(!response_correct(r), "valid request with wrong payload fails");
  r.payload_ok = true;
  r.seq_ok = false;
  expect(!response_correct(r), "out-of-order response fails");
  r.seq_ok = true;
  r.id_ok = false;
  expect(!response_correct(r), "lost id fails");

  expect(stats_consistent(10, 8, 2, 5, 2, 1), "stats identity holds");
  expect(!stats_consistent(10, 8, 2, 5, 2, 0), "missing uncacheable caught");
  expect(!stats_consistent(10, 8, 1, 5, 2, 1), "lost error caught");
}

void test_span_self_time() {
  // parent [0, 10] with children [1, 3] and [2, 6] (overlapping) and
  // [8, 12] (clipped at 10): covered 1..6 and 8..10 = 7, self = 3.
  std::vector<SpanRecord> spans = {
      {"a.parent", 0, 10, -1}, {"b.one", 1, 3, 0}, {"b.two", 2, 6, 0},
      {"c.three", 8, 12, 0}};
  const std::vector<double> self = span_self_seconds(spans);
  expect(near(self[0], 3) && near(self[1], 2) && near(self[3], 4),
         "self time subtracts the union of child intervals");
}

void test_field_readers() {
  const std::string line =
      "{\"seq\": 12, \"id\": \"r12\", \"status\": \"ok\", \"spec\": "
      "\"star:5/two-phase/erew/fifo\", \"program\": \"permutation\", "
      "\"seed\": 3, \"cache\": \"hit\", \"report\": {\"pram_steps\": 4, "
      "\"complete\": true}}";
  std::uint64_t seq = 0;
  std::string text;
  expect(json_number_field(line, "seq", seq) && seq == 12, "seq field");
  expect(json_string_field(line, "cache", text) && text == "hit",
         "cache field");
  expect(json_report_body(line, text) &&
             text == "\"pram_steps\": 4, \"complete\": true",
         "report body");
  expect(!json_string_field(line, "error", text), "absent field");
}

}  // namespace

int run_self_test() {
  g_failures = 0;
  test_percentile_rule();
  test_latency_from_due();
  test_fail_accounting();
  test_span_self_time();
  test_field_readers();
  return g_failures;
}

}  // namespace levbench
