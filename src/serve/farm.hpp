#pragma once
// Farm: a capacity-bounded LRU cache of warm Machine instances, keyed by
// canonical spec text.
//
// Building a Machine (graph + router tables + fabric) dominates the cost
// of a short run, so a serve session that replays a handful of specs wants
// the build amortised away. The farm resolves a spec to a
// shared_ptr<const Machine>:
//
//   - fault-free specs are cached under spec.to_string(); a hit returns
//     the warm instance, a miss builds + inserts, evicting the least-
//     recently-used entry once `cache_capacity` is exceeded. The const
//     contract is exactly Machine::run_seeded's sharing contract — the
//     TSan-pinned path run_trials already relies on.
//   - faulted specs (spec.faults.any()) are never cached: the caller
//     stamps the request seed (which the run derives its fault plan from)
//     into the spec, and the farm builds a private instance per request
//     (counted as "uncacheable"). Faulted machines are shareable too
//     (faults are per-run state); the path stays because the serve
//     benchmark's measured cache classes depend on it.
//
// shared_ptr keeps an evicted-but-running machine alive until its last
// in-flight request completes, so eviction never races execution.
//
// Thread safety: one mutex guards the whole cache, including the build on
// a miss. Serialising builds keeps the hit/miss/eviction sequence — and
// therefore the counters surfaced through the obs probe catalogue
// (Probe::kCacheHits/kCacheMisses/kCacheEvictions) — deterministic for a
// given resolve order. Runs happen outside the lock.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "machine/machine.hpp"
#include "machine/spec.hpp"
#include "obs/probes.hpp"
#include "serve/request.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace levnet::serve {

struct FarmConfig {
  /// Max warm machines kept; 0 disables caching entirely (every fault-free
  /// resolve builds fresh and counts a miss — the bench's "cold" mode).
  std::size_t cache_capacity = 8;
};

class Farm {
 public:
  explicit Farm(FarmConfig config = {});

  [[nodiscard]] const FarmConfig& config() const noexcept { return config_; }

  /// One resolved request. Exactly one of the two pointers is set: a hit
  /// or miss hands out the cache's shared machine, an uncacheable faulted
  /// spec a private one; either runs through run_seeded(request seed).
  struct Resolved {
    std::shared_ptr<const machine::Machine> shared;
    std::unique_ptr<machine::Machine> owned;
    CacheOutcome outcome = CacheOutcome::kMiss;
  };

  /// Resolves `spec` to a runnable machine. The spec must already have
  /// passed Machine::validate (decode_request guarantees this); for a
  /// faulted spec the caller must have stamped the request seed into
  /// `spec.seed` so plan and stream derive together.
  [[nodiscard]] Resolved resolve(const machine::MachineSpec& spec);

  /// Counter snapshot; the three cache counters use the obs probe
  /// catalogue's indices so names stay in lockstep with kProbeInfo.
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t uncacheable = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Counters counters() const;

  /// Cached canonical spec keys, most-recently-used first (tests pin the
  /// eviction order through this).
  [[nodiscard]] std::vector<std::string> cached_keys() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const machine::Machine> machine;
  };

  const FarmConfig config_;
  mutable support::Mutex mutex_;
  /// Front = most recently used; eviction pops the back.
  std::list<Entry> lru_ LEVNET_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      LEVNET_GUARDED_BY(mutex_);
  std::uint64_t probes_[obs::kProbeCount] LEVNET_GUARDED_BY(mutex_) = {};
  std::uint64_t uncacheable_ LEVNET_GUARDED_BY(mutex_) = 0;
};

}  // namespace levnet::serve
