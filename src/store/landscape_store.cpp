#include "src/store/landscape_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/backend/statevector_backend.h"
#include "src/common/crc32.h"
#include "src/common/fnv1a.h"
#include "src/cs/dct.h"
#include "src/cs/fista.h"
#include "src/obs/trace.h"

namespace fs = std::filesystem;

namespace oscar {
namespace store {

namespace {

using wire::WireReader;
using wire::WireWriter;

/** Container file suffix (gc and totalBytes only touch these). */
constexpr const char* kContainerSuffix = ".oscar";

/** Header layout: magic u32, version u16, three u64 key fields, CRC. */
constexpr std::size_t kKeyOffset = 4 + 2;
constexpr std::size_t kKeyBytes = 3 * 8;
constexpr std::size_t kCrcOffset = kKeyOffset + kKeyBytes;
constexpr std::size_t kHeaderBytes = kCrcOffset + 4;

/** CRC-32 of a container's key fields and body. */
std::uint32_t
containerCrc(std::span<const std::uint8_t> bytes)
{
    return crc32(bytes.subspan(kKeyOffset, kKeyBytes),
                 bytes.subspan(kHeaderBytes));
}

/** True when no sample or reconstructed value is NaN or +-inf. */
bool
allFinite(const StoredLandscape& entry)
{
    const auto finite = [](double v) { return std::isfinite(v); };
    return std::all_of(entry.sampleValues.begin(), entry.sampleValues.end(),
                       finite) &&
           std::all_of(entry.reconstructed.begin(),
                       entry.reconstructed.end(), finite);
}

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw StoreError("cannot open " + path + ": " +
                         std::strerror(errno));
    struct stat st;
    std::vector<std::uint8_t> bytes;
    bool ok = ::fstat(::fileno(f), &st) == 0;
    if (ok) {
        bytes.resize(static_cast<std::size_t>(st.st_size));
        ok = std::fread(bytes.data(), 1, bytes.size(), f) == bytes.size();
    }
    std::fclose(f);
    if (!ok)
        throw StoreError("cannot read " + path);
    return bytes;
}

/**
 * Publish `bytes` at `path` atomically: write `path + ".tmp.<pid>"`,
 * fsync, rename over `path`. Readers only ever observe complete
 * containers, and a crash mid-write leaves the previous version (or
 * nothing) in place.
 */
void
writeAtomically(const std::string& path,
                const std::vector<std::uint8_t>& bytes)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw StoreError("cannot create " + tmp + ": " +
                         std::strerror(errno));
    const bool wrote =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    // Flush through to disk before publishing: rename() makes the
    // container visible, and a visible container must be complete.
    const bool flushed =
        wrote && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!flushed) {
        std::remove(tmp.c_str());
        throw StoreError("cannot write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw StoreError("cannot publish " + path + ": " +
                         std::strerror(errno));
    }
}

} // namespace

std::uint64_t
gridHash(const GridSpec& grid)
{
    WireWriter w;
    encodeGridSpec(w, grid);
    return fnv1a(w.bytes());
}

std::uint64_t
configHash(double sampling_fraction, std::uint64_t seed)
{
    std::uint64_t h = kFnv1aOffsetBasis;
    h = fnv1aAppendU64(h, std::bit_cast<std::uint64_t>(sampling_fraction));
    h = fnv1aAppendU64(h, seed);
    h = fnv1aAppendU64(h, kCsTransformRevision);
    h = fnv1aAppendU64(h, kCsSolverRevision);
    h = fnv1aAppendU64(h, kStatevectorPlanRevision);
    return h;
}

void
encodeGridSpec(wire::WireWriter& w, const GridSpec& grid)
{
    w.u32(static_cast<std::uint32_t>(grid.rank()));
    for (const GridAxis& axis : grid.axes()) {
        w.f64(axis.lo);
        w.f64(axis.hi);
        w.u64(axis.count);
    }
}

GridSpec
decodeGridSpec(wire::WireReader& r)
{
    const std::uint32_t rank = r.u32();
    // 16 axes is far beyond any real VQA grid; the bound keeps a
    // crafted rank from driving a giant allocation.
    if (rank < 1 || rank > 16)
        throw wire::WireError("grid rank out of range");
    std::vector<GridAxis> axes;
    axes.reserve(rank);
    std::size_t points = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
        GridAxis axis;
        axis.lo = r.f64();
        axis.hi = r.f64();
        axis.count = r.u64();
        if (axis.count < 1 || axis.count > (std::size_t{1} << 32))
            throw wire::WireError("grid axis count out of range");
        if (points > (std::size_t{1} << 32) / axis.count)
            throw wire::WireError("grid too large");
        points *= axis.count;
        axes.push_back(axis);
    }
    // GridSpec rejects inverted or non-finite axes with its own
    // exception type; on the wire that is malformed input like any
    // other, and must not escape a decoder's WireError contract.
    try {
        return GridSpec(std::move(axes));
    } catch (const std::invalid_argument& e) {
        throw wire::WireError(std::string("invalid grid: ") + e.what());
    }
}

void
encodeStoredLandscape(WireWriter& w, const StoredLandscape& entry)
{
    encodeGridSpec(w, entry.grid);
    w.f64(entry.samplingFraction);
    w.u64(entry.sampleSeed);
    w.u64(entry.queriesUsed);
    w.f64(entry.querySpeedup);
    wire::encodeKernelStats(w, entry.kernel);
    w.u64(entry.sampleIndices.size());
    for (std::uint64_t idx : entry.sampleIndices)
        w.u64(idx);
    for (double v : entry.sampleValues)
        w.f64(v);
    w.u64(entry.reconstructed.size());
    for (double v : entry.reconstructed)
        w.f64(v);
}

StoredLandscape
decodeStoredLandscape(WireReader& r)
{
    StoredLandscape entry;
    entry.grid = decodeGridSpec(r);
    entry.samplingFraction = r.f64();
    entry.sampleSeed = r.u64();
    entry.queriesUsed = r.u64();
    entry.querySpeedup = r.f64();
    entry.kernel = wire::decodeKernelStats(r);
    const std::uint64_t samples = r.u64();
    if (samples > r.remaining() / 16)
        throw wire::WireError("sample count runs past payload end");
    const std::uint64_t grid_points = entry.grid.numPoints();
    entry.sampleIndices.resize(samples);
    for (std::uint64_t& idx : entry.sampleIndices) {
        idx = r.u64();
        if (idx >= grid_points)
            throw wire::WireError("sample index is off the grid");
    }
    entry.sampleValues.resize(samples);
    for (double& v : entry.sampleValues)
        v = r.f64();
    const std::uint64_t points = r.u64();
    if (points > r.remaining() / 8)
        throw wire::WireError("point count runs past payload end");
    if (points != grid_points)
        throw wire::WireError("reconstruction size does not match the grid");
    entry.reconstructed.resize(points);
    for (double& v : entry.reconstructed)
        v = r.f64();
    return entry;
}

std::vector<std::uint8_t>
encodeContainer(const StoreKey& key, const StoredLandscape& entry)
{
    WireWriter w;
    w.u32(kContainerMagic);
    w.u16(kContainerVersion);
    w.u64(key.costId);
    w.u64(key.gridHash);
    w.u64(key.cfgHash);
    w.u32(0); // CRC, filled in once the body is written
    encodeStoredLandscape(w, entry);
    std::vector<std::uint8_t> bytes = w.take();
    const std::uint32_t crc = containerCrc(bytes);
    for (std::size_t i = 0; i < 4; ++i)
        bytes[kCrcOffset + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    return bytes;
}

StoredLandscape
decodeContainer(std::span<const std::uint8_t> bytes, const StoreKey& key)
{
    try {
        WireReader r(bytes);
        if (r.u32() != kContainerMagic)
            throw StoreError("bad container magic");
        const std::uint16_t version = r.u16();
        if (version != kContainerVersion)
            throw StoreError("unsupported container version " +
                             std::to_string(version));
        StoreKey stored;
        stored.costId = r.u64();
        stored.gridHash = r.u64();
        stored.cfgHash = r.u64();
        // The container must actually BE the entry its name claims: a
        // renamed or cross-linked file serving under the wrong key
        // would be a wrong value, the one failure mode worse than any
        // crash.
        if (stored != key)
            throw StoreError("container does not match its key");
        if (r.u32() != containerCrc(bytes))
            throw StoreError("container CRC mismatch");
        StoredLandscape entry = decodeStoredLandscape(r);
        r.expectEnd();
        if (gridHash(entry.grid) != key.gridHash ||
            configHash(entry.samplingFraction, entry.sampleSeed) !=
                key.cfgHash)
            throw StoreError("container body does not match its key");
        // put() never writes a non-finite value, so one here means the
        // container was not written by put().
        if (!allFinite(entry))
            throw StoreError("container holds a non-finite value");
        return entry;
    } catch (const wire::WireError& e) {
        // Bounds overruns inside the reader mean a truncated or
        // mis-sized container.
        throw StoreError(e.what());
    }
}

LandscapeStore::LandscapeStore(StoreOptions options)
    : options_(std::move(options))
{
    if (options_.dir.empty())
        throw std::runtime_error(
            "LandscapeStore: store directory must be non-empty");
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    if (ec || !fs::is_directory(options_.dir))
        throw std::runtime_error("LandscapeStore: cannot create " +
                                 options_.dir + ": " + ec.message());
}

std::string
LandscapeStore::containerPath(const StoreKey& key) const
{
    char name[3 * 16 + 3 + 8];
    std::snprintf(name, sizeof(name), "%016llx-%016llx-%016llx",
                  static_cast<unsigned long long>(key.costId),
                  static_cast<unsigned long long>(key.gridHash),
                  static_cast<unsigned long long>(key.cfgHash));
    return (fs::path(options_.dir) / (std::string(name) + kContainerSuffix))
        .string();
}

std::optional<StoredLandscape>
LandscapeStore::load(const StoreKey& key)
{
    obs::ScopedSpan span(obs::SpanCategory::Store, "get", key.costId);
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string path = containerPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) {
        stats_.misses++;
        return std::nullopt;
    }
    try {
        StoredLandscape entry = decodeContainer(readFile(path), key);
        // LRU recency: a hit makes this container the newest.
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        stats_.hits++;
        return entry;
    } catch (const StoreError&) {
        // Damaged container: unlink so the rewrite starts clean, and
        // report a miss -- the caller recomputes.
        fs::remove(path, ec);
        stats_.misses++;
        stats_.corruptMisses++;
        return std::nullopt;
    }
}

void
LandscapeStore::put(const StoreKey& key, const StoredLandscape& entry)
{
    if (!allFinite(entry))
        throw std::invalid_argument(
            "LandscapeStore::put: non-finite sample or reconstructed value");
    obs::ScopedSpan span(obs::SpanCategory::Store, "put", key.costId,
                         entry.reconstructed.size());
    const std::vector<std::uint8_t> bytes = encodeContainer(key, entry);

    std::lock_guard<std::mutex> lock(mutex_);
    writeAtomically(containerPath(key), bytes);
    stats_.puts++;
    gcLocked();
}

std::size_t
LandscapeStore::gc()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gcLocked();
}

std::size_t
LandscapeStore::gcLocked()
{
    struct Container
    {
        fs::path path;
        std::uintmax_t bytes;
        fs::file_time_type mtime;
    };
    std::vector<Container> containers;
    std::uintmax_t total = 0;
    std::error_code ec;
    for (const auto& it : fs::directory_iterator(options_.dir, ec)) {
        if (!it.is_regular_file(ec))
            continue;
        const fs::path& p = it.path();
        if (p.extension() != kContainerSuffix)
            continue;
        Container c;
        c.path = p;
        c.bytes = it.file_size(ec);
        if (ec)
            continue;
        c.mtime = fs::last_write_time(p, ec);
        if (ec)
            continue;
        total += c.bytes;
        containers.push_back(std::move(c));
    }
    if (total <= options_.budgetBytes)
        return 0;
    std::sort(containers.begin(), containers.end(),
              [](const Container& a, const Container& b) {
                  return a.mtime < b.mtime;
              });
    std::size_t removed = 0;
    for (const Container& c : containers) {
        if (total <= options_.budgetBytes)
            break;
        if (fs::remove(c.path, ec) && !ec) {
            total -= c.bytes;
            removed++;
        }
    }
    stats_.containersRemoved += removed;
    return removed;
}

std::size_t
LandscapeStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uintmax_t total = 0;
    std::error_code ec;
    for (const auto& it : fs::directory_iterator(options_.dir, ec)) {
        if (!it.is_regular_file(ec))
            continue;
        if (it.path().extension() != kContainerSuffix)
            continue;
        const std::uintmax_t bytes = it.file_size(ec);
        if (!ec)
            total += bytes;
    }
    return static_cast<std::size_t>(total);
}

StoreStats
LandscapeStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::string
resolveStoreDir(const std::string& configured)
{
    if (!configured.empty())
        return configured;
    const char* env = std::getenv("OSCAR_STORE_DIR");
    if (!env)
        return "";
    if (*env == '\0')
        throw std::runtime_error(
            "OSCAR_STORE_DIR: expected a non-empty directory path for "
            "the persistent landscape store, got \"\"");
    return env;
}

std::size_t
resolveStoreBudgetBytes(long long configured_mb)
{
    constexpr long long kMaxMb = 1048576; // 1 TiB
    if (configured_mb >= 0) {
        if (configured_mb < 1 || configured_mb > kMaxMb)
            throw std::runtime_error(
                "store budget: expected an LRU byte budget in MB "
                "(1..1048576), got " +
                std::to_string(configured_mb));
        return static_cast<std::size_t>(configured_mb) << 20;
    }
    const char* env = std::getenv("OSCAR_STORE_BUDGET_MB");
    if (!env)
        return std::size_t{1024} << 20;
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 1 || parsed > kMaxMb)
        throw std::runtime_error(
            "OSCAR_STORE_BUDGET_MB: expected an LRU byte budget in MB "
            "(1..1048576), got \"" +
            std::string(env) + "\"");
    return static_cast<std::size_t>(parsed) << 20;
}

} // namespace store
} // namespace oscar
