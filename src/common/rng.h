/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component (PARA's coin flips, trace generators, workload
 * shuffling) draws from an explicitly seeded Xorshift64* generator so that
 * simulations are bit-reproducible across runs and platforms. We avoid
 * std::mt19937 in hot paths: Xorshift64* is a few instructions and its
 * statistical quality is ample for simulation sampling.
 */
#pragma once

#include <cstdint>

#include "common/snapshot.h"
#include "common/types.h"

namespace bh {

/** Xorshift64* PRNG; deterministic, cheap, and seedable per component. */
class Rng
{
  public:
    /** @param seed Non-zero seed; zero is remapped to a fixed constant. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Bernoulli trial with probability p. */
    bool
    nextBool(double p)
    {
        return nextDouble() < p;
    }

    /** Geometric-ish burst length in [1, max_len]. */
    std::uint64_t
    nextBurst(double continue_p, std::uint64_t max_len)
    {
        std::uint64_t len = 1;
        while (len < max_len && nextBool(continue_p))
            ++len;
        return len;
    }

    /** Save or load the generator state (a loaded 0 becomes 1). */
    void
    transfer(StateIo &io)
    {
        io.u64(state);
        if (state == 0)
            state = 1;
    }

  private:
    std::uint64_t state;
};

} // namespace bh
