#pragma once
// Deterministic pseudo-random generator for all randomized components.
//
// Every randomized algorithm in the library (two-phase routing, hash family
// sampling, workload generation) draws from an explicitly seeded Rng so that
// runs are reproducible and high-probability claims can be evidenced over
// controlled seed sets. The generator is xoshiro256** seeded via SplitMix64,
// which is fast, passes BigCrush, and is trivially portable.

#include <array>
#include <cstdint>
#include <vector>

namespace levnet::support {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1991'0106'0d5eULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Derives an independent child generator (for parallel substreams).
  [[nodiscard]] Rng split() noexcept { return Rng{(*this)()}; }

  /// Mixes the generator's current position with `salt` into a 64-bit key
  /// WITHOUT advancing the stream. This is the base for families of
  /// per-item substreams (one Rng per landing in the engine's step):
  /// distinct salts give independent keys, repeated calls with the same
  /// salt give the same key, and the main stream is left untouched either
  /// way — unlike split(), which consumes a draw.
  [[nodiscard]] std::uint64_t stream_key(std::uint64_t salt) const noexcept {
    std::uint64_t mix = state_[0] ^ rotl(state_[2], 29) ^ salt;
    return splitmix64(mix);
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher–Yates shuffle driven by Rng (std::shuffle's algorithm is not
/// specified cross-stdlib, so we pin ours for reproducibility).
template <typename T>
void shuffle(std::vector<T>& values, Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    using std::swap;
    swap(values[i - 1], values[j]);
  }
}

/// Returns a uniformly random permutation of {0, .., n-1}.
[[nodiscard]] std::vector<std::uint32_t> random_permutation(std::uint32_t n,
                                                            Rng& rng);

}  // namespace levnet::support
