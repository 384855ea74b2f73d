// Deterministic pseudo-random number generation for the whole library.
//
// All stochastic behaviour (template parameter jitter, random-I/O service
// variance, LHS permutations, k-fold shuffles) flows from a single seeded
// Rng so that every experiment is exactly reproducible.

#ifndef CONTENDER_UTIL_RANDOM_H_
#define CONTENDER_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace contender {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// seeded via SplitMix64. Deterministic across platforms, unlike
/// std::mt19937 + std::distributions (whose outputs are unspecified).
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box–Muller, no state caching for determinism).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(static_cast<uint64_t>(i)));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Random permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t s_[4];
};

}  // namespace contender

#endif  // CONTENDER_UTIL_RANDOM_H_
