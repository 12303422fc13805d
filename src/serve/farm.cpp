#include "serve/farm.hpp"

#include <utility>

namespace levnet::serve {

Farm::Farm(FarmConfig config) : config_(config) {}

Farm::Resolved Farm::resolve(const machine::MachineSpec& spec) {
  Resolved resolved;
  if (spec.faults.any()) {
    // Faulted specs carry the request seed (their plan's seed) in the
    // spec, so each is a private build, never cached.
    resolved.owned =
        std::make_unique<machine::Machine>(machine::Machine::build(spec));
    resolved.outcome = CacheOutcome::kUncacheable;
    support::MutexLock lock(mutex_);
    ++uncacheable_;
    return resolved;
  }

  const std::string key = spec.to_string();
  support::MutexLock lock(mutex_);
  if (auto it = index_.find(key); it != index_.end()) {
    ++probes_[obs::probe_index(obs::Probe::kCacheHits)];
    lru_.splice(lru_.begin(), lru_, it->second);
    resolved.shared = lru_.front().machine;
    resolved.outcome = CacheOutcome::kHit;
    return resolved;
  }

  // Miss: build under the lock so the hit/miss/eviction sequence stays a
  // pure function of the resolve order (warm-cache bench counters are
  // asserted exactly). Builds are milliseconds; a serve batch resolves in
  // the dispatcher thread anyway.
  ++probes_[obs::probe_index(obs::Probe::kCacheMisses)];
  resolved.shared = std::make_shared<const machine::Machine>(
      machine::Machine::build(spec));
  resolved.outcome = CacheOutcome::kMiss;
  if (config_.cache_capacity == 0) return resolved;
  lru_.push_front(Entry{key, resolved.shared});
  index_[key] = lru_.begin();
  while (lru_.size() > config_.cache_capacity) {
    ++probes_[obs::probe_index(obs::Probe::kCacheEvictions)];
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  return resolved;
}

Farm::Counters Farm::counters() const {
  support::MutexLock lock(mutex_);
  Counters out;
  out.hits = probes_[obs::probe_index(obs::Probe::kCacheHits)];
  out.misses = probes_[obs::probe_index(obs::Probe::kCacheMisses)];
  out.evictions = probes_[obs::probe_index(obs::Probe::kCacheEvictions)];
  out.uncacheable = uncacheable_;
  out.entries = lru_.size();
  return out;
}

std::vector<std::string> Farm::cached_keys() const {
  support::MutexLock lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) keys.push_back(entry.key);
  return keys;
}

}  // namespace levnet::serve
