/**
 * @file
 * Many-named-streams archive container: the on-disk format of the
 * persistent landscape store.
 *
 * One container file holds any number of named byte streams (sampled
 * points, reconstructed values, kernel stats, grid spec, ...) behind a
 * versioned superblock, in the LTSmin archive style (archive.h /
 * archive_dir.c: a directory of named streams in one container).
 * Layout, all integers little-endian:
 *
 *   superblock:  [magic u32 "OSCA"][version u16][stream count u16]
 *   per stream:  [name u32+bytes][codec u8][raw size u64]
 *                [stored size u64][crc32 u32 of name + RAW bytes]
 *                [stored bytes]
 *   footer:      [magic u32 "ENDA"]  -- and then end-of-file, exactly
 *
 * Streams are compressed independently (PackBits run-length coding,
 * optionally behind a byte-plane split that groups the slowly-varying
 * high bytes of f64 arrays into long runs); a stream whose compressed
 * form would not shrink is stored raw, so compression is always
 * size-bounded and bit-exact. The CRC is over the stream's name and its
 * uncompressed bytes: corruption of either is detected after decode,
 * whichever codec was used.
 *
 * Any structural defect -- short file, bad magic, unknown version or
 * codec, size overrun, CRC mismatch, trailing bytes -- throws
 * ArchiveError; the landscape store treats that as a clean cache miss
 * (recompute and rewrite), never a wrong value.
 *
 * Publication is atomic: writers serialize into `path + ".tmp.<pid>"`
 * and rename(2) over the final name, so readers only ever observe
 * complete containers and a crash mid-write leaves the previous
 * version (or nothing) in place.
 */

#ifndef OSCAR_STORE_ARCHIVE_H
#define OSCAR_STORE_ARCHIVE_H

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/packbits.h"

namespace oscar {
namespace store {

/** Malformed or unreadable archive container. */
class ArchiveError : public std::runtime_error
{
  public:
    explicit ArchiveError(const std::string& what)
        : std::runtime_error("archive: " + what)
    {
    }
};

constexpr std::uint32_t kArchiveMagic = 0x4143534Fu;  // "OSCA"
constexpr std::uint32_t kArchiveFooter = 0x41444E45u; // "ENDA"

/**
 * Container format version. Readers reject any other value, so a
 * stale container from an older (or newer) build loads as a miss
 * instead of being misparsed. Version 1 checked the stream bytes
 * only; 2 checks each stream's name too.
 */
constexpr std::uint16_t kArchiveVersion = 2;

/**
 * Per-stream storage codec. The codec itself lives in
 * src/common/packbits.h; the alias keeps the historical store-layer
 * name (and its on-disk byte values: Raw=0, PackBits=1,
 * PlanePackBits=2).
 */
using StreamCodec = ::oscar::packbits::Codec;

/**
 * PackBits-compress a byte span (always decodable, may expand).
 * Delegates to the shared codec in src/common/packbits.h.
 */
std::vector<std::uint8_t> packBits(std::span<const std::uint8_t> raw);

/**
 * Inverse of packBits; `raw_size` is the expected output size.
 * Delegates to the shared codec in src/common/packbits.h.
 * @throws ArchiveError on malformed input or a size mismatch
 */
std::vector<std::uint8_t> unpackBits(std::span<const std::uint8_t> packed,
                                     std::size_t raw_size);

/** One named stream of a decoded container. */
struct ArchiveStream
{
    std::string name;
    std::vector<std::uint8_t> bytes; ///< decompressed
};

/** A decoded container: named streams in file order. */
struct Archive
{
    std::vector<ArchiveStream> streams;

    /** The named stream's bytes, or nullptr when absent. */
    const std::vector<std::uint8_t>* find(const std::string& name) const;
};

/**
 * Container builder. Streams are written in add() order; each picks
 * the smallest of {raw, PackBits, plane-split PackBits} at write time
 * (the choice is recorded per stream, so decoding is unambiguous).
 */
class ArchiveWriter
{
  public:
    void add(std::string name, std::vector<std::uint8_t> bytes);

    /** Serialize the container (superblock + streams + footer). */
    std::vector<std::uint8_t> serialize() const;

    /**
     * Serialize and publish atomically: write `path + ".tmp.<pid>"`,
     * fsync, rename over `path`.
     * @throws ArchiveError on any I/O failure (the temp file is
     *         removed best-effort)
     */
    void write(const std::string& path) const;

  private:
    std::vector<ArchiveStream> streams_;
};

/**
 * Decode a serialized container.
 * @throws ArchiveError on any structural defect or CRC mismatch
 */
Archive decodeArchive(std::span<const std::uint8_t> bytes);

/**
 * Read and decode a container file.
 * @throws ArchiveError when the file is missing, unreadable, or
 *         corrupt in any way
 */
Archive readArchive(const std::string& path);

} // namespace store
} // namespace oscar

#endif // OSCAR_STORE_ARCHIVE_H
