#include "src/store/landscape_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/backend/statevector_backend.h"
#include "src/common/fnv1a.h"
#include "src/cs/dct.h"
#include "src/cs/fista.h"
#include "src/obs/trace.h"
#include "src/store/archive.h"

namespace fs = std::filesystem;

namespace oscar {
namespace store {

namespace {

using wire::WireReader;
using wire::WireWriter;

/** Stream names inside a container. */
constexpr const char* kStreamMeta = "meta";
constexpr const char* kStreamGrid = "grid";
constexpr const char* kStreamSampleIdx = "samples.idx";
constexpr const char* kStreamSampleVal = "samples.val";
constexpr const char* kStreamRecon = "recon";
constexpr const char* kStreamKernelStats = "kstats";

/** Container file suffix (gc and totalBytes only touch these). */
constexpr const char* kContainerSuffix = ".oscar";

std::vector<std::uint8_t>
encodeDoubles(const std::vector<double>& values)
{
    WireWriter w;
    for (double v : values)
        w.f64(v);
    return w.take();
}

std::vector<double>
decodeDoubles(const std::vector<std::uint8_t>& bytes)
{
    if (bytes.size() % 8 != 0)
        throw ArchiveError("double stream size not a multiple of 8");
    WireReader r(bytes);
    std::vector<double> out(bytes.size() / 8);
    for (double& v : out)
        v = r.f64();
    return out;
}

std::vector<std::uint8_t>
encodeU64s(const std::vector<std::uint64_t>& values)
{
    WireWriter w;
    for (std::uint64_t v : values)
        w.u64(v);
    return w.take();
}

std::vector<std::uint64_t>
decodeU64s(const std::vector<std::uint8_t>& bytes)
{
    if (bytes.size() % 8 != 0)
        throw ArchiveError("u64 stream size not a multiple of 8");
    WireReader r(bytes);
    std::vector<std::uint64_t> out(bytes.size() / 8);
    for (std::uint64_t& v : out)
        v = r.u64();
    return out;
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

/** The named stream, or throw (caught by load() as a corrupt miss). */
const std::vector<std::uint8_t>&
need(const Archive& archive, const char* name)
{
    const std::vector<std::uint8_t>* s = archive.find(name);
    if (!s)
        throw ArchiveError(std::string("missing stream: ") + name);
    return *s;
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
        const Archive archive = readArchive(path);

        StoredLandscape entry;
        {
            WireReader r(need(archive, kStreamMeta));
            entry.samplingFraction = r.f64();
            entry.sampleSeed = r.u64();
            entry.queriesUsed = r.u64();
            entry.querySpeedup = r.f64();
            r.expectEnd();
        }
        {
            WireReader r(need(archive, kStreamGrid));
            entry.grid = decodeGridSpec(r);
            r.expectEnd();
        }
        {
            WireReader r(need(archive, kStreamKernelStats));
            entry.kernel = wire::decodeKernelStats(r);
            r.expectEnd();
        }
        entry.sampleIndices = decodeU64s(need(archive, kStreamSampleIdx));
        entry.sampleValues = decodeDoubles(need(archive, kStreamSampleVal));
        entry.reconstructed = decodeDoubles(need(archive, kStreamRecon));

        // The container must actually BE the entry its name claims:
        // a renamed or cross-linked file serving under the wrong key
        // would be a wrong value, the one failure mode worse than any
        // crash.
        if (gridHash(entry.grid) != key.gridHash ||
            configHash(entry.samplingFraction, entry.sampleSeed) !=
                key.cfgHash ||
            entry.reconstructed.size() != entry.grid.numPoints() ||
            entry.sampleValues.size() != entry.sampleIndices.size())
            throw ArchiveError("container does not match its key");
        // put() never writes a non-finite value, so one here means the
        // container was not written by put().
        if (!allFinite(entry))
            throw ArchiveError("container holds a non-finite value");

        // LRU recency: a hit makes this container the newest.
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        stats_.hits++;
        return entry;
    } catch (const ArchiveError&) {
        // Damaged container: unlink so the rewrite starts clean, and
        // report a miss -- the caller recomputes.
        fs::remove(path, ec);
        stats_.misses++;
        stats_.corruptMisses++;
        return std::nullopt;
    } catch (const wire::WireError&) {
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
    ArchiveWriter writer;
    {
        WireWriter w;
        w.f64(entry.samplingFraction);
        w.u64(entry.sampleSeed);
        w.u64(entry.queriesUsed);
        w.f64(entry.querySpeedup);
        writer.add(kStreamMeta, w.take());
    }
    {
        WireWriter w;
        encodeGridSpec(w, entry.grid);
        writer.add(kStreamGrid, w.take());
    }
    {
        WireWriter w;
        wire::encodeKernelStats(w, entry.kernel);
        writer.add(kStreamKernelStats, w.take());
    }
    writer.add(kStreamSampleIdx, encodeU64s(entry.sampleIndices));
    writer.add(kStreamSampleVal, encodeDoubles(entry.sampleValues));
    writer.add(kStreamRecon, encodeDoubles(entry.reconstructed));

    std::lock_guard<std::mutex> lock(mutex_);
    writer.write(containerPath(key));
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
