#pragma once
// The benchmark's own arithmetic: medians, the tail-percentile rule,
// latency measured from due time, and failure accounting. Pure functions
// over plain vectors, so selftest.cpp can pin every rule on hand-made
// samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace levbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A tail percentile chosen by the reporting rule: the highest percentile
/// of the ladder that still has at least `kMinBeyond` samples above it.
struct Tail {
  double percentile = 50.0;  // the percentile reported
  double value = 0.0;        // its nearest-rank value
  std::size_t samples = 0;   // sample count
  std::size_t beyond = 0;    // samples ranked above the reported one
};

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n).
/// `beyond` receives n - rank. Requires a sorted, non-empty vector.
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted,
                                         double p, std::size_t& beyond) {
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  beyond = n - rank;
  return sorted[rank - 1];
}

/// The highest of p99, p95, p90, p75 and p50 with at least ten samples
/// beyond it. With fewer than 20 samples no rung qualifies and the median
/// is reported (its `beyond` then says how thin the tail is).
[[nodiscard]] inline Tail tail_percentile(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    std::size_t beyond = 0;
    const double v = nearest_rank(values, p, beyond);
    if (beyond >= kMinBeyond || p == 50.0) {
      tail.percentile = p;
      tail.value = v;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

/// Open-loop latency: a request is timed from when it was due, not from
/// when the generator got round to sending it, so a stall is charged to
/// every request it delays.
[[nodiscard]] inline double latency_from_due(double due_s, double recv_s) {
  return recv_s - due_s;
}

/// How late the generator sent a request (never negative).
[[nodiscard]] inline double sched_lateness(double due_s, double sent_s) {
  return std::max(0.0, sent_s - due_s);
}

/// Attempted/failed tally behind `fail_share`. An operation fails when its
/// output does not match the oracle; a malformed request answered with an
/// error is a success, one answered "ok" is a failure.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double fail_share() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// What the benchmark saw of one served request.
struct ResponseView {
  bool seq_ok = false;      // the response's seq is the request's index
  bool id_ok = false;       // the request's id came back verbatim
  bool malformed = false;   // the benchmark built the request malformed
  bool status_ok = false;   // "status": "ok" (else "error")
  bool payload_ok = false;  // cache outcome and report match the replay
};

/// A response is correct when it answers the right request, a malformed
/// request gets an error, and a valid one gets the replay's exact payload.
[[nodiscard]] inline bool response_correct(const ResponseView& r) {
  if (!r.seq_ok || !r.id_ok) return false;
  return r.malformed ? !r.status_ok : r.status_ok && r.payload_ok;
}

/// The server's stats line must account for every ok request by exactly
/// one cache outcome.
[[nodiscard]] inline bool stats_consistent(std::uint64_t requests,
                                           std::uint64_t ok,
                                           std::uint64_t errors,
                                           std::uint64_t hits,
                                           std::uint64_t misses,
                                           std::uint64_t uncacheable) {
  return ok + errors == requests && hits + misses + uncacheable == ok;
}

}  // namespace levbench
