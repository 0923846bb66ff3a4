/**
 * @file
 * Incremental FNV-1a hashing.
 *
 * The repo already relies on FNV-1a in two hot places —
 * Config::valueFingerprint() and the fault injector's per-key
 * schedule — and the shared evaluation cache adds two more (machine
 * fingerprints and cache scope keys). This header centralizes the
 * idiom as a tiny incremental hasher so every new fingerprint mixes
 * fields the same way: word-at-a-time with separator words, strings
 * with a terminator byte so adjacent fields cannot alias.
 *
 * The hash is stable across processes and platforms (it depends only
 * on the mixed byte sequence), which is what lets fingerprints key
 * on-disk cache segments and checkpoint schema checks.
 *
 * Every step is constexpr and a hasher resumes from any state value()
 * returned, so a constant prefix (a field's name tag) can be folded at
 * compile time and only the bytes that vary hashed at run time.
 */

#ifndef PETABRICKS_SUPPORT_HASH_H
#define PETABRICKS_SUPPORT_HASH_H

#include <bit>
#include <cstdint>
#include <string_view>

namespace petabricks {

/** See file comment. */
class Fnv1a
{
  public:
    constexpr Fnv1a() = default;

    /** Resume from @p state, a value() of an earlier hasher: the
     * result is as if that hasher had gone on mixing. */
    explicit constexpr Fnv1a(uint64_t state) : hash_(state) {}

    /** Mix one 64-bit word, byte by byte (little-endian order). */
    constexpr Fnv1a &
    mix(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= kPrime;
        }
        return *this;
    }

    /** Mix a double by its exact bit pattern (no rounding, so equal
     * doubles hash equal and nothing else does). */
    constexpr Fnv1a &
    mix(double value)
    {
        return mix(std::bit_cast<uint64_t>(value));
    }

    /** Mix a string's bytes plus a 0xff terminator, so ("ab","c") and
     * ("a","bc") cannot collide. */
    constexpr Fnv1a &
    mix(std::string_view text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= kPrime;
        }
        hash_ ^= 0xff;
        hash_ *= kPrime;
        return *this;
    }

    constexpr Fnv1a &
    mix(bool value)
    {
        return mix(static_cast<uint64_t>(value ? 1 : 0));
    }

    constexpr uint64_t value() const { return hash_; }

  private:
    static constexpr uint64_t kOffset = 1469598103934665603ull;
    static constexpr uint64_t kPrime = 1099511628211ull;

    uint64_t hash_ = kOffset;
};

} // namespace petabricks

#endif // PETABRICKS_SUPPORT_HASH_H
