/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All input generators (graphs, matrices, sort keys) draw from these
 * generators so that every experiment is reproducible bit-for-bit across
 * runs and machines. SplitMix64 seeds Xoshiro256**, the main generator.
 */

#ifndef COBRA_UTIL_RNG_H
#define COBRA_UTIL_RNG_H

#include <cstdint>

namespace cobra {

/**
 * The SplitMix64 output finalizer: a bijective 64-bit mix. Also the
 * per-edge mix of DynamicGraph::edgeSetHash().
 */
constexpr uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** SplitMix64: used to expand a single 64-bit seed into a full state. */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : state(seed) {}

    uint64_t next() { return mix64(state += 0x9e3779b97f4a7c15ULL); }

  private:
    uint64_t state;
};

/**
 * Xoshiro256** by Blackman & Vigna: fast, high-quality, deterministic.
 * Satisfies (most of) the UniformRandomBitGenerator requirements.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    explicit Rng(uint64_t seed = 0x5eedc0b7aULL)
    {
        SplitMix64 sm(seed);
        for (auto &w : s)
            w = sm.next();
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }

    result_type
    operator()()
    {
        const uint64_t result = rotl(s[1] * 5, 7) * 9;
        const uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine for
        // workload synthesis; modulo bias is negligible at 64 bits.
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(operator()()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s[4];
};

} // namespace cobra

#endif // COBRA_UTIL_RNG_H
