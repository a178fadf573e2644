/**
 * @file
 * FNV-1a 64-bit hashing — the one fingerprint/checksum primitive shared
 * by the resilience subsystem (checkpoint section checksums, config
 * fingerprints), the service's cache keys, and the verify harness
 * (determinism fingerprints).  fnv1a folds one byte per step;
 * fnv1aWords folds one 8-byte word per step and is the rule for bulk
 * arrays (matrix values, mesh arrays, checkpoint sections).  Not
 * cryptographic; it detects corruption and config skew, not
 * adversaries.
 */

#ifndef QUAKE98_COMMON_FNV_H_
#define QUAKE98_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace quake::common
{

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** Fold `n` bytes at `p` into hash state `h`. */
inline std::uint64_t
fnv1a(const void *p, std::size_t n, std::uint64_t h = kFnvOffsetBasis)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * Fold `n` bytes at `p` into `h` one 8-byte word at a time (native byte
 * order), then the n % 8 trailing bytes as fnv1a does.  Every byte is
 * covered, and each step (xor a word, multiply by the odd prime) is a
 * bijection of the state, so changing any one word changes the digest.
 * About 6x faster than fnv1a on bulk data; its digests differ from
 * fnv1a's, so a given datum must always be hashed the same way.
 */
inline std::uint64_t
fnv1aWords(const void *p, std::size_t n, std::uint64_t h = kFnvOffsetBasis)
{
    const auto *b = static_cast<const unsigned char *>(p);
    const std::size_t words = n / 8;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t w;
        std::memcpy(&w, b + 8 * i, sizeof(w));
        h ^= w;
        h *= kFnvPrime;
    }
    return fnv1a(b + 8 * words, n % 8, h);
}

/** Word-fold a vector of trivially copyable elements (length + payload). */
template <typename T>
inline std::uint64_t
fnv1aWordsVector(const std::vector<T> &v, std::uint64_t h = kFnvOffsetBasis)
{
    const std::uint64_t n = v.size();
    h = fnv1aWords(&n, sizeof(n), h);
    return fnv1aWords(v.data(), v.size() * sizeof(T), h);
}

/** Fold one trivially copyable value (its object representation). */
template <typename T>
inline std::uint64_t
fnv1aValue(const T &v, std::uint64_t h = kFnvOffsetBasis)
{
    return fnv1a(&v, sizeof(T), h);
}

/** Fold a vector of trivially copyable elements (length + payload). */
template <typename T>
inline std::uint64_t
fnv1aVector(const std::vector<T> &v, std::uint64_t h = kFnvOffsetBasis)
{
    const std::uint64_t n = v.size();
    h = fnv1a(&n, sizeof(n), h);
    return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/**
 * Incremental FNV-1a hasher: feed fields one at a time and read the
 * digest at any point.  Chaining is exact — `h.bytes(a).bytes(b)` ==
 * fnv1a(a ++ b) — so a streaming caller and a one-shot caller produce
 * identical keys.  The service subsystem derives its content-addressed
 * cache keys this way (DESIGN.md §14): every semantically distinct
 * field is fed *individually* (never a whole struct, whose padding
 * bytes would be unspecified), and variable-length payloads go through
 * vec()/str(), which prepend the length so adjacent fields cannot
 * alias ("ab","c" vs "a","bc").
 */
class Fnv1aHasher
{
  public:
    Fnv1aHasher() = default;

    /** Resume from a previously computed digest (key chaining). */
    explicit Fnv1aHasher(std::uint64_t state) : h_(state) {}

    /** Fold `n` raw bytes at `p`. */
    Fnv1aHasher &
    bytes(const void *p, std::size_t n)
    {
        h_ = fnv1a(p, n, h_);
        return *this;
    }

    /** Fold one trivially copyable value's object representation. */
    template <typename T>
    Fnv1aHasher &
    value(const T &v)
    {
        static_assert(!std::is_pointer_v<T>,
                      "hash the pointee, not the pointer");
        h_ = fnv1aValue(v, h_);
        return *this;
    }

    /** Fold a vector (length then payload, like fnv1aVector). */
    template <typename T>
    Fnv1aHasher &
    vec(const std::vector<T> &v)
    {
        h_ = fnv1aVector(v, h_);
        return *this;
    }

    /** Fold a string (length then bytes). */
    Fnv1aHasher &
    str(const std::string &s)
    {
        const std::uint64_t n = s.size();
        h_ = fnv1a(&n, sizeof(n), h_);
        h_ = fnv1a(s.data(), s.size(), h_);
        return *this;
    }

    /** The current digest; the hasher may keep accumulating after. */
    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = kFnvOffsetBasis;
};

} // namespace quake::common

#endif // QUAKE98_COMMON_FNV_H_
