/**
 * @file
 * FNV-1a 64-bit hashing, the system's content address.
 *
 * The OSCW wire format stamps every CostSpec with the FNV-1a hash of
 * its canonical encoding (src/serve/wire.cpp), the landscape
 * store keys containers by that same hash plus a canonical GridSpec
 * hash (src/store/landscape_store.cpp), and the serve daemon folds
 * both into its request-dedupe key (src/serve/server.cpp). One
 * implementation keeps every layer's addresses mutually comparable.
 */

#ifndef OSCAR_COMMON_FNV1A_H
#define OSCAR_COMMON_FNV1A_H

#include <cstdint>
#include <span>

namespace oscar {

constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/** Fold more bytes into a running FNV-1a hash. */
inline std::uint64_t
fnv1aAppend(std::uint64_t h, std::span<const std::uint8_t> data)
{
    for (std::uint8_t b : data) {
        h ^= b;
        h *= kFnv1aPrime;
    }
    return h;
}

/** FNV-1a over a byte span. */
inline std::uint64_t
fnv1a(std::span<const std::uint8_t> data)
{
    return fnv1aAppend(kFnv1aOffsetBasis, data);
}

/** Mix one 64-bit word into a running FNV-1a hash (little-endian). */
inline std::uint64_t
fnv1aAppendU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<std::uint8_t>(v >> (8 * i));
        h *= kFnv1aPrime;
    }
    return h;
}

} // namespace oscar

#endif // OSCAR_COMMON_FNV1A_H
