/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected), shared by the OSCW wire
 * framing (src/serve/wire.cpp) and the landscape store's containers
 * (src/store/landscape_store.cpp).
 *
 * One implementation on purpose: a frame CRC computed here and a
 * container CRC computed here are directly comparable, and the check
 * vector ("123456789" -> 0xCBF43926, asserted in tests/test_wire.cpp)
 * pins both users to the standard polynomial at once.
 */

#ifndef OSCAR_COMMON_CRC32_H
#define OSCAR_COMMON_CRC32_H

#include <array>
#include <cstdint>
#include <span>

namespace oscar {

namespace detail {

inline const std::array<std::uint32_t, 256>&
crc32Table()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace detail

/** CRC-32 (IEEE 802.3 polynomial) of a byte span. */
inline std::uint32_t
crc32(std::span<const std::uint8_t> data)
{
    const auto& table = detail::crc32Table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::uint8_t b : data)
        c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

/**
 * CRC-32 of two spans as if concatenated (the wire framing checks
 * header + raw payload, and a store container its key fields + body,
 * in one pass without copying them together).
 */
inline std::uint32_t
crc32(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b)
{
    const auto& table = detail::crc32Table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::uint8_t x : a)
        c = table[(c ^ x) & 0xFFu] ^ (c >> 8);
    for (std::uint8_t x : b)
        c = table[(c ^ x) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace oscar

#endif // OSCAR_COMMON_CRC32_H
