#include "src/store/archive.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/packbits.h"
#include "src/serve/wire.h"

namespace oscar {
namespace store {

namespace {

using wire::WireReader;
using wire::WireWriter;

/** Hard cap on one stream's raw size (sanity against crafted sizes). */
constexpr std::uint64_t kMaxStreamBytes = std::uint64_t{1} << 32;

/** CRC-32 of a stream's name followed by its raw bytes. */
std::uint32_t
streamCrc(const ArchiveStream& s)
{
    return ::oscar::crc32(
        {reinterpret_cast<const std::uint8_t*>(s.name.data()), s.name.size()},
        s.bytes);
}

} // namespace

std::vector<std::uint8_t>
packBits(std::span<const std::uint8_t> raw)
{
    return packbits::pack(raw);
}

std::vector<std::uint8_t>
unpackBits(std::span<const std::uint8_t> packed, std::size_t raw_size)
{
    try {
        return packbits::unpack(packed, raw_size);
    } catch (const packbits::CodecError& e) {
        // Malformed compressed data inside a container is container
        // corruption; keep the store-layer error type.
        throw ArchiveError(e.what());
    }
}

const std::vector<std::uint8_t>*
Archive::find(const std::string& name) const
{
    for (const ArchiveStream& s : streams)
        if (s.name == name)
            return &s.bytes;
    return nullptr;
}

void
ArchiveWriter::add(std::string name, std::vector<std::uint8_t> bytes)
{
    if (name.empty())
        throw ArchiveError("stream name must be non-empty");
    if (bytes.size() > kMaxStreamBytes)
        throw ArchiveError("stream exceeds size limit");
    for (const ArchiveStream& s : streams_)
        if (s.name == name)
            throw ArchiveError("duplicate stream name: " + name);
    streams_.push_back({std::move(name), std::move(bytes)});
}

std::vector<std::uint8_t>
ArchiveWriter::serialize() const
{
    std::vector<std::uint8_t> out;
    {
        WireWriter w;
        w.u32(kArchiveMagic);
        w.u16(kArchiveVersion);
        w.u16(static_cast<std::uint16_t>(streams_.size()));
        out = w.take();
    }
    for (const ArchiveStream& s : streams_) {
        // Smallest of {raw, PackBits, plane-split PackBits}; ties keep
        // the simpler codec (shared logic in src/common/packbits.h).
        const packbits::Encoded enc = packbits::pickSmallest(s.bytes);
        const std::span<const std::uint8_t> payload =
            enc.codec == StreamCodec::Raw ? std::span(s.bytes)
                                          : std::span(enc.bytes);
        WireWriter w;
        w.str(s.name);
        w.u8(static_cast<std::uint8_t>(enc.codec));
        w.u64(s.bytes.size());
        w.u64(payload.size());
        w.u32(streamCrc(s));
        const std::vector<std::uint8_t> head = w.take();
        out.insert(out.end(), head.begin(), head.end());
        out.insert(out.end(), payload.begin(), payload.end());
    }
    {
        WireWriter w;
        w.u32(kArchiveFooter);
        const std::vector<std::uint8_t> tail = w.take();
        out.insert(out.end(), tail.begin(), tail.end());
    }
    return out;
}

void
ArchiveWriter::write(const std::string& path) const
{
    const std::vector<std::uint8_t> bytes = serialize();
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw ArchiveError("cannot create " + tmp + ": " +
                           std::strerror(errno));
    const bool wrote =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    // Flush through to disk before publishing: rename() makes the
    // container visible, and a visible container must be complete.
    const bool flushed =
        wrote && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!flushed) {
        std::remove(tmp.c_str());
        throw ArchiveError("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw ArchiveError("cannot publish " + path + ": " +
                           std::strerror(errno));
    }
}

Archive
decodeArchive(std::span<const std::uint8_t> bytes)
{
    try {
        WireReader r(bytes);
        if (r.u32() != kArchiveMagic)
            throw ArchiveError("bad container magic");
        const std::uint16_t version = r.u16();
        if (version != kArchiveVersion)
            throw ArchiveError("unsupported container version " +
                               std::to_string(version));
        const std::uint16_t count = r.u16();
        Archive archive;
        archive.streams.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
            ArchiveStream s;
            s.name = r.str();
            const std::uint8_t codec = r.u8();
            if (codec > static_cast<std::uint8_t>(
                            StreamCodec::PlanePackBits))
                throw ArchiveError("unknown stream codec");
            const std::uint64_t raw_size = r.u64();
            const std::uint64_t stored_size = r.u64();
            const std::uint32_t crc = r.u32();
            if (raw_size > kMaxStreamBytes ||
                stored_size > r.remaining())
                throw ArchiveError("stream runs past container end");
            std::vector<std::uint8_t> stored(stored_size);
            for (std::uint64_t b = 0; b < stored_size; ++b)
                stored[b] = r.u8();
            try {
                s.bytes = packbits::decode(codec, stored, raw_size);
            } catch (const packbits::CodecError& e) {
                throw ArchiveError(e.what());
            }
            if (streamCrc(s) != crc)
                throw ArchiveError("stream CRC mismatch: " + s.name);
            archive.streams.push_back(std::move(s));
        }
        if (r.u32() != kArchiveFooter)
            throw ArchiveError("bad container footer");
        r.expectEnd();
        return archive;
    } catch (const wire::WireError& e) {
        // Bounds overruns inside the reader mean a truncated or
        // mis-sized container; surface them as archive corruption.
        throw ArchiveError(e.what());
    }
}

Archive
readArchive(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw ArchiveError("cannot open " + path + ": " +
                           std::strerror(errno));
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw ArchiveError("cannot read " + path);
    return decodeArchive(bytes);
}

} // namespace store
} // namespace oscar
