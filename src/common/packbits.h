/**
 * @file
 * Shared PackBits / byte-plane compression codec.
 *
 * The landscape store's archive container (src/store) compresses
 * each stream with it.
 *
 * PackBits is classic run-length coding: a control byte c in 0..127
 * announces c+1 literal bytes, c in 129..255 announces 257-c repeats
 * of the next byte, and 128 is unused. Repeat runs only pay off from
 * length 3. The byte-plane split reorders an 8-byte-record array
 * (f64 values, u64 ordinals) so plane j holds byte j of every record:
 * the slowly-varying high exponent bytes of smooth landscape data
 * become long runs PackBits can collapse.
 *
 * Compression is always optional and bounded: pickSmallest() returns
 * Raw whenever neither codec strictly shrinks the input, so callers
 * never pay for incompressible data, and decoding is bit-exact by
 * construction (round-trip tested against random and structured
 * vectors in the store suite).
 */

#ifndef OSCAR_COMMON_PACKBITS_H
#define OSCAR_COMMON_PACKBITS_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace oscar {
namespace packbits {

/** Malformed compressed data (truncated run, size mismatch, ...). */
class CodecError : public std::runtime_error
{
  public:
    explicit CodecError(const std::string& what)
        : std::runtime_error("packbits: " + what)
    {
    }
};

/** Storage codec identifier: the codec byte of each archive stream. */
enum class Codec : std::uint8_t
{
    Raw = 0,           ///< stored bytes == raw bytes
    PackBits = 1,      ///< PackBits run-length coding
    PlanePackBits = 2, ///< byte-plane split, then PackBits (f64 arrays)
};

/** PackBits-compress a byte span (always decodable, may expand). */
std::vector<std::uint8_t> pack(std::span<const std::uint8_t> raw);

/**
 * Inverse of pack(); `raw_size` is the expected output size.
 * @throws CodecError on malformed input or a size mismatch
 */
std::vector<std::uint8_t> unpack(std::span<const std::uint8_t> packed,
                                 std::size_t raw_size);

/**
 * Byte-plane split of an 8-byte-record array: plane j holds byte j of
 * every record.
 * @throws CodecError unless raw.size() is a multiple of 8
 */
std::vector<std::uint8_t> planeSplit(std::span<const std::uint8_t> raw);

/**
 * Inverse of planeSplit().
 * @throws CodecError unless planes.size() is a multiple of 8
 */
std::vector<std::uint8_t> planeJoin(std::span<const std::uint8_t> planes);

/** Result of pickSmallest(): which codec won, and its stored bytes. */
struct Encoded
{
    Codec codec = Codec::Raw;
    /**
     * The stored form under `codec`. Empty when codec == Raw: the raw
     * input IS the stored form, and callers avoid a pointless copy.
     */
    std::vector<std::uint8_t> bytes;
};

/**
 * Pick the smallest of {raw, PackBits, plane-split PackBits} for a
 * byte span; ties keep the simpler codec, and the plane split is only
 * attempted on non-empty multiples of 8 bytes. A compressed choice is
 * always strictly smaller than the input.
 */
Encoded pickSmallest(std::span<const std::uint8_t> raw);

/**
 * Decode `stored` back to `raw_size` raw bytes under `codec`.
 * @throws CodecError on an unknown codec byte, malformed stored
 *         bytes, or a size mismatch (Raw requires
 *         stored.size() == raw_size; PlanePackBits requires
 *         raw_size % 8 == 0)
 */
std::vector<std::uint8_t> decode(std::uint8_t codec,
                                 std::span<const std::uint8_t> stored,
                                 std::size_t raw_size);

} // namespace packbits
} // namespace oscar

#endif // OSCAR_COMMON_PACKBITS_H
