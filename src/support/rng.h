/**
 * @file
 * Deterministic random number generation for the autotuner and workloads.
 *
 * All randomized components (mutators, workload generators, victim
 * selection in tests) draw from an explicitly seeded Rng so experiments
 * are reproducible run-to-run, a requirement for regenerating the paper's
 * figures deterministically.
 */

#ifndef PETABRICKS_SUPPORT_RNG_H
#define PETABRICKS_SUPPORT_RNG_H

#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>

namespace petabricks {

/**
 * Seeded pseudo-random source wrapping a 64-bit Mersenne twister.
 *
 * Provides the distributions the autotuner needs, notably the lognormal
 * scaling used by cutoff mutators (Section 5.2 of the paper: "a value is
 * equally likely be halved as it is to be doubled").
 *
 * Rng is itself the uniform random bit generator its distributions
 * draw from, and it counts every engine call. Since nothing can reach
 * the engine around that count, (seed, draws) is the generator's whole
 * state: a checkpoint stores two numbers instead of the twister's
 * 312-word dump, and restore() rebuilds the identical stream.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull)
        : seed_(seed), engine_(seed)
    {}

    /** @{ UniformRandomBitGenerator, with the twister's range, so the
     * distributions draw exactly the values they would from it. */
    using result_type = std::mt19937_64::result_type;
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }

    result_type
    operator()()
    {
        ++draws_;
        return engine_();
    }
    /** @} */

    /** The seed this stream started from. */
    uint64_t seed() const { return seed_; }

    /** Engine calls made since seeding. */
    uint64_t draws() const { return draws_; }

    /** Become Rng(@p seed) after @p draws engine calls. */
    void
    restore(uint64_t seed, uint64_t draws)
    {
        seed_ = seed;
        engine_.seed(seed);
        engine_.discard(draws);
        draws_ = draws;
    }

    /**
     * The draw count at which Rng(@p seed) reaches @p engineDump, a
     * std::mt19937_64 state in its `operator<<` text form (how
     * checkpoints stored the RNG before draw counts). Searches at most
     * @p maxDraws draws; nullopt when the text does not parse or the
     * state is not on the seed's stream within that bound.
     */
    static std::optional<uint64_t>
    drawsToReach(uint64_t seed, const std::string &engineDump,
                 uint64_t maxDraws);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        return dist(*this);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo, double hi)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(*this);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    chance(double p)
    {
        std::bernoulli_distribution dist(p);
        return dist(*this);
    }

    /**
     * Scale @p value by a lognormal factor with median 1.
     *
     * @param value value to scale; must be positive for a useful result.
     * @param sigma spread; ln(2) makes halving and doubling one-sigma
     *        events, matching the paper's mutator description.
     * @return the scaled value, at least 1 and saturated at INT64_MAX
     *         (a product of 2^63 or more has no int64 value).
     */
    int64_t
    lognormalScale(int64_t value, double sigma = 0.6931471805599453)
    {
        std::lognormal_distribution<double> dist(0.0, sigma);
        double scaled = static_cast<double>(value) * dist(*this);
        if (scaled < 1.0)
            return 1;
        if (scaled >= 0x1p63)
            return std::numeric_limits<int64_t>::max();
        return static_cast<int64_t>(scaled);
    }

  private:
    uint64_t seed_;
    uint64_t draws_ = 0;
    std::mt19937_64 engine_;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_RNG_H
