/**
 * @file
 * Deterministic random number generation for the OSCAR library.
 *
 * All stochastic components in the library (graph generation, parameter
 * sampling, shot noise, latency models) draw from an explicitly seeded
 * Rng so that every experiment is reproducible bit for bit across runs.
 * The core generator is xoshiro256++, seeded through splitmix64 so that
 * nearby integer seeds produce unrelated streams.
 */

#ifndef OSCAR_COMMON_RNG_H
#define OSCAR_COMMON_RNG_H

#include <cstdint>
#include <vector>

namespace oscar {

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 *
 * Satisfies the UniformRandomBitGenerator concept, so it can also be
 * handed to standard-library distributions if needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (cached spare). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal: exp(normal(mu, sigma)). */
    double lognormal(double mu, double sigma);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample k distinct indices uniformly from [0, n) without
     * replacement (partial Fisher-Yates). Result is in random order.
     */
    std::vector<std::size_t> sampleWithoutReplacement(std::size_t n,
                                                      std::size_t k);

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an unrelated child generator (for parallel streams). */
    Rng split();

  private:
    std::uint64_t s_[4];
    double spare_ = 0.0;
    bool hasSpare_ = false;
};

/**
 * Avalanche two 64-bit values into one seed (splitmix64 finalizer over
 * the combination). This is how per-evaluation RNG streams are keyed:
 * `Rng(mixSeed(backend_seed, evaluation_ordinal))` yields a stream that
 * depends only on the pair, so batched / multi-threaded execution
 * reproduces scalar execution bit for bit.
 */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

} // namespace oscar

#endif // OSCAR_COMMON_RNG_H
