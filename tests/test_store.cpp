/**
 * @file
 * Persistent landscape store tests:
 *
 *  - the container layout: the header documented in landscape_store.h
 *    followed by the Ok serve response's landscape body, byte for byte;
 *  - the robustness contract: a container that is truncated at ANY
 *    length, bit-flipped at ANY byte, version-stale, filed under
 *    another key, or half-written loads as a clean miss -- never a
 *    crash, never a wrong value;
 *  - LandscapeStore put/load bit-identity (doubles compared as
 *    IEEE-754 bit patterns, including subnormals and -0.0), LRU
 *    eviction under the byte budget, and the stats counters;
 *  - seeded mutation fuzzing (tests/mutation_fuzz.h) of a stored
 *    container: every mutant is rejected or decodes to the entry that
 *    was written under its key, and load() serves only that entry;
 *  - strict OSCAR_STORE_DIR / OSCAR_STORE_BUDGET_MB parsing in the
 *    strict-resolver style: malformed settings throw and list
 *    the valid form instead of silently disabling persistence.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/fnv1a.h"
#include "src/common/rng.h"
#include "src/cs/dct.h"
#include "src/cs/fista.h"
#include "src/serve/protocol.h"
#include "src/store/landscape_store.h"
#include "tests/mutation_fuzz.h"

namespace oscar {
namespace store {
namespace {

namespace fs = std::filesystem;

/** A unique scratch directory, removed on scope exit. */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/oscar-test-store-XXXXXX";
        if (!::mkdtemp(tmpl))
            throw std::runtime_error("mkdtemp failed");
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    std::string path;
};

/** Set (or clear, value == nullptr) an env var, restoring on exit. */
struct ScopedEnv
{
    ScopedEnv(const char* name_in, const char* value) : name(name_in)
    {
        const char* old = ::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldValue = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldValue.c_str(), 1);
        else
            ::unsetenv(name);
    }

    const char* name;
    bool hadOld = false;
    std::string oldValue;
};

void
writeFile(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::vector<std::uint8_t>
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
expectBitIdentical(const std::vector<double>& got,
                   const std::vector<double>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "value " << i;
}

/** A small but fully-populated entry (container ~1 KB). */
StoredLandscape
sampleEntry(std::uint64_t seed = 11)
{
    Rng rng(seed);
    StoredLandscape entry;
    entry.grid = GridSpec({{-0.785, 0.785, 4}, {-1.571, 1.571, 6}});
    for (std::size_t i = 0; i < 5; ++i) {
        entry.sampleIndices.push_back(rng.uniformInt(24));
        entry.sampleValues.push_back(rng.uniform(-4.0, 4.0));
    }
    entry.reconstructed.resize(entry.grid.numPoints());
    for (double& v : entry.reconstructed)
        v = rng.uniform(-4.0, 4.0);
    // The bit-identity contract covers the finite values that
    // operator== or a decimal round trip could blur: the smallest
    // subnormal and negative zero.
    entry.reconstructed[0] = std::numeric_limits<double>::denorm_min();
    entry.reconstructed[1] = -0.0;
    entry.kernel.cacheHits = 3;
    entry.kernel.cacheLookups = 5;
    entry.samplingFraction = 0.2;
    entry.sampleSeed = seed;
    entry.queriesUsed = 5;
    entry.querySpeedup = 4.8;
    return entry;
}

StoreKey
keyFor(const StoredLandscape& entry, std::uint64_t cost_id = 0x1234)
{
    StoreKey key;
    key.costId = cost_id;
    key.gridHash = gridHash(entry.grid);
    key.cfgHash = configHash(entry.samplingFraction, entry.sampleSeed);
    return key;
}

void
expectEntriesEqual(const StoredLandscape& got, const StoredLandscape& want)
{
    ASSERT_EQ(got.grid.rank(), want.grid.rank());
    for (std::size_t d = 0; d < got.grid.rank(); ++d) {
        EXPECT_EQ(got.grid.axis(d).lo, want.grid.axis(d).lo);
        EXPECT_EQ(got.grid.axis(d).hi, want.grid.axis(d).hi);
        EXPECT_EQ(got.grid.axis(d).count, want.grid.axis(d).count);
    }
    EXPECT_EQ(got.sampleIndices, want.sampleIndices);
    expectBitIdentical(got.sampleValues, want.sampleValues);
    expectBitIdentical(got.reconstructed, want.reconstructed);
    EXPECT_EQ(got.kernel.cacheHits, want.kernel.cacheHits);
    EXPECT_EQ(got.kernel.cacheLookups, want.kernel.cacheLookups);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.samplingFraction),
              std::bit_cast<std::uint64_t>(want.samplingFraction));
    EXPECT_EQ(got.sampleSeed, want.sampleSeed);
    EXPECT_EQ(got.queriesUsed, want.queriesUsed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.querySpeedup),
              std::bit_cast<std::uint64_t>(want.querySpeedup));
}

/** Container header bytes: magic, version, three key fields, CRC. */
constexpr std::size_t kHeaderBytes = 4 + 2 + 3 * 8 + 4;

/**
 * A container assembled by hand from the layout documented in
 * landscape_store.h, independently of encodeContainer().
 */
std::vector<std::uint8_t>
layoutContainer(const StoreKey& key, const StoredLandscape& entry)
{
    wire::WireWriter key_fields;
    key_fields.u64(key.costId);
    key_fields.u64(key.gridHash);
    key_fields.u64(key.cfgHash);
    wire::WireWriter body;
    encodeStoredLandscape(body, entry);

    wire::WireWriter w;
    w.u32(0x4143534Fu); // "OSCA"
    w.u16(4);
    for (std::uint8_t b : key_fields.bytes())
        w.u8(b);
    w.u32(::oscar::crc32(key_fields.bytes(), body.bytes()));
    for (std::uint8_t b : body.bytes())
        w.u8(b);
    return w.take();
}

/** The body's sample-count and point-count fields in a container. */
std::array<fuzz::LengthField, 2>
bodyCountFields(const StoredLandscape& entry)
{
    wire::WireWriter w;
    encodeGridSpec(w, entry.grid);
    w.f64(entry.samplingFraction);
    w.u64(entry.sampleSeed);
    w.u64(entry.queriesUsed);
    w.f64(entry.querySpeedup);
    wire::encodeKernelStats(w, entry.kernel);
    const std::size_t samples_at = kHeaderBytes + w.bytes().size();
    const std::size_t points_at =
        samples_at + 8 + 16 * entry.sampleIndices.size();
    return {{{samples_at, 8}, {points_at, 8}}};
}

// ---------------------------------------------------------------------
// LandscapeStore
// ---------------------------------------------------------------------

TEST(LandscapeStoreTest, PutThenLoadIsBitIdentical)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);

    EXPECT_FALSE(store.load(key).has_value()); // cold miss
    store.put(key, entry);
    EXPECT_TRUE(fs::exists(store.containerPath(key)));

    const std::optional<StoredLandscape> loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    expectEntriesEqual(*loaded, entry);

    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.corruptMisses, 0u);
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_GT(store.totalBytes(), 0u);
}

TEST(LandscapeStoreTest, ContainerIsTheHeaderAndTheResponseBody)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);
    store.put(key, entry);
    const std::vector<std::uint8_t> container =
        readFile(store.containerPath(key));
    EXPECT_EQ(container, layoutContainer(key, entry));
    EXPECT_EQ(container, encodeContainer(key, entry));

    // The body is the landscape of an Ok serve response, byte for
    // byte: status u8, tag u64 and served-from u8 precede it there.
    serve::ResponseMsg ok;
    ok.status = serve::ResponseStatus::Ok;
    ok.landscape = entry;
    const std::vector<std::uint8_t> response = serve::encodeResponse(ok);
    ASSERT_GE(response.size(), 10u);
    EXPECT_EQ(std::vector<std::uint8_t>(container.begin() + kHeaderBytes,
                                        container.end()),
              std::vector<std::uint8_t>(response.begin() + 10,
                                        response.end()));
}

TEST(LandscapeStoreTest, DistinctKeysAreIndependent)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();

    // Same bits, three distinct addresses: cost, grid, and sampling
    // config each contribute to the key.
    const StoreKey a = keyFor(entry, 1);
    const StoreKey b = keyFor(entry, 2);
    StoreKey c = keyFor(entry, 1);
    c.cfgHash = configHash(entry.samplingFraction, entry.sampleSeed + 1);

    store.put(a, entry);
    EXPECT_TRUE(store.load(a).has_value());
    EXPECT_FALSE(store.load(b).has_value());
    EXPECT_FALSE(store.load(c).has_value());
}

TEST(LandscapeStoreTest, EveryBitFlipLoadsAsCleanMiss)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);
    store.put(key, entry);
    const std::string path = store.containerPath(key);
    const std::vector<std::uint8_t> good = readFile(path);
    ASSERT_FALSE(good.empty());

    for (std::size_t i = 0; i < good.size(); ++i) {
        std::vector<std::uint8_t> bad = good;
        bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
        writeFile(path, bad);
        std::optional<StoredLandscape> loaded;
        ASSERT_NO_THROW(loaded = store.load(key)) << "byte " << i;
        EXPECT_FALSE(loaded.has_value()) << "byte " << i;
        // The corrupt container was unlinked so the rewrite is clean.
        EXPECT_FALSE(fs::exists(path)) << "byte " << i;
    }
    EXPECT_EQ(store.stats().corruptMisses, good.size());

    // After all that damage, the store still works.
    store.put(key, entry);
    ASSERT_TRUE(store.load(key).has_value());
}

TEST(LandscapeStoreTest, EveryTruncationLoadsAsCleanMiss)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);
    store.put(key, entry);
    const std::string path = store.containerPath(key);
    const std::vector<std::uint8_t> good = readFile(path);

    for (std::size_t len = 0; len < good.size(); ++len) {
        writeFile(path, {good.begin(), good.begin() +
                                           static_cast<long>(len)});
        std::optional<StoredLandscape> loaded;
        ASSERT_NO_THROW(loaded = store.load(key)) << "prefix " << len;
        EXPECT_FALSE(loaded.has_value()) << "prefix " << len;
    }
}

TEST(StoreFuzzTest, ContainerMutantsAreRejectedOrDecodeToAStoredEntry)
{
    // Seeded flips, truncations, splices (from a second container) and
    // length-field edits of a real stored container: decodeContainer
    // either throws StoreError or returns exactly the entry that was
    // written under the key it is asked for.
    constexpr int kMutantsPerSeed = 512;
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry(11);
    const StoredLandscape other = sampleEntry(12);
    store.put(keyFor(entry), entry);
    store.put(keyFor(other), other);
    const std::vector<std::uint8_t> good =
        readFile(store.containerPath(keyFor(entry)));
    const std::vector<std::uint8_t> donor =
        readFile(store.containerPath(keyFor(other)));
    const auto counts = bodyCountFields(entry);

    std::size_t rejected = 0;
    for (const std::uint64_t seed : fuzz::kSeeds) {
        Rng rng(seed);
        for (int it = 0; it < kMutantsPerSeed; ++it) {
            const std::vector<std::uint8_t> mutant =
                fuzz::mutate(rng, good, donor, counts);
            for (const StoredLandscape* want : {&entry, &other}) {
                try {
                    expectEntriesEqual(
                        decodeContainer(mutant, keyFor(*want)), *want);
                } catch (const StoreError&) {
                    ++rejected;
                }
            }
        }
    }
    EXPECT_GT(rejected, 0u);
}

TEST(StoreFuzzTest, LoadOfAMutantIsAMissOrTheStoredEntry)
{
    // The same mutants through the store itself: load() never throws
    // and never serves anything but the entry put under the key.
    constexpr int kMutantsPerSeed = 48;
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry(11);
    const StoredLandscape other = sampleEntry(12);
    const StoreKey key = keyFor(entry);
    store.put(key, entry);
    store.put(keyFor(other), other);
    const std::string path = store.containerPath(key);
    const std::vector<std::uint8_t> good = readFile(path);
    const std::vector<std::uint8_t> donor =
        readFile(store.containerPath(keyFor(other)));
    const auto counts = bodyCountFields(entry);

    for (const std::uint64_t seed : fuzz::kSeeds) {
        Rng rng(seed);
        for (int it = 0; it < kMutantsPerSeed; ++it) {
            writeFile(path, fuzz::mutate(rng, good, donor, counts));
            std::optional<StoredLandscape> loaded;
            ASSERT_NO_THROW(loaded = store.load(key))
                << "seed " << seed << " mutant " << it;
            if (loaded)
                expectEntriesEqual(*loaded, entry);
        }
    }
}

TEST(LandscapeStoreTest, HalfWrittenTempFileIsIgnored)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);

    // A crash mid-write leaves `<container>.tmp.<pid>` behind; the
    // final path never existed, so the key is a plain miss and the
    // stray temp file must not disturb put/load/gc.
    std::vector<std::uint8_t> half = encodeContainer(key, entry);
    half.resize(half.size() / 2);
    writeFile(store.containerPath(key) + ".tmp.9999", half);

    EXPECT_FALSE(store.load(key).has_value());
    store.put(key, entry);
    ASSERT_TRUE(store.load(key).has_value());
    EXPECT_EQ(store.gc(), 0u);
}

TEST(LandscapeStoreTest, RenamedContainerFailsKeyValidation)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();

    // Move the (internally consistent) container to a key addressing a
    // different sampling config, then to one addressing a different
    // cost: the content no longer matches the address, so serving it
    // would hand one cost's landscape to another.
    const StoreKey key = keyFor(entry, 111);
    StoreKey other_config = key;
    other_config.cfgHash =
        configHash(entry.samplingFraction, entry.sampleSeed + 1);
    const StoreKey other_cost = keyFor(entry, 222);

    std::uint64_t corrupt = 0;
    for (const StoreKey& wrong : {other_config, other_cost}) {
        store.put(key, entry);
        fs::rename(store.containerPath(key), store.containerPath(wrong));
        EXPECT_FALSE(store.load(wrong).has_value());
        EXPECT_EQ(store.stats().corruptMisses, ++corrupt);
        EXPECT_FALSE(fs::exists(store.containerPath(wrong)));
    }
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, StaleVersionLoadsAsCorruptMiss)
{
    // A container of another format version -- version 2 was the
    // six-stream archive, version 3 the wider kernel stats -- is
    // dropped like a damaged one.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);
    const std::string path = store.containerPath(key);
    std::uint64_t corrupt = 0;
    for (int version : {2, 3, 5}) {
        std::vector<std::uint8_t> bytes = layoutContainer(key, entry);
        bytes[4] = static_cast<std::uint8_t>(version); // u16 LE at 4
        writeFile(path, bytes);
        EXPECT_FALSE(store.load(key).has_value()) << version;
        EXPECT_EQ(store.stats().corruptMisses, ++corrupt);
        EXPECT_FALSE(fs::exists(path));
    }
}

TEST(LandscapeStoreTest, PutRefusesNonFiniteValues)
{
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double bad : {nan, inf, -inf}) {
        for (bool in_samples : {true, false}) {
            StoredLandscape entry = sampleEntry();
            (in_samples ? entry.sampleValues : entry.reconstructed)[3] = bad;
            EXPECT_THROW(store.put(keyFor(entry), entry),
                         std::invalid_argument)
                << bad << (in_samples ? " in samples" : " in landscape");
        }
    }
    // Nothing was written, not even a temp file.
    EXPECT_TRUE(fs::is_empty(store.dir()));
    EXPECT_EQ(store.stats().puts, 0u);
}

TEST(LandscapeStoreTest, NonFiniteContainerLoadsAsCorruptMiss)
{
    // A well-formed container (valid CRC, matching key) that holds a
    // NaN or +-inf was not written by put(); load() must drop it like
    // a damaged one instead of serving it.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoreKey key = keyFor(sampleEntry());
    const std::string path = store.containerPath(key);
    std::uint64_t corrupt = 0;
    for (bool in_samples : {true, false}) {
        for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
            StoredLandscape entry = sampleEntry();
            (in_samples ? entry.sampleValues : entry.reconstructed)[0] = bad;
            writeFile(path, layoutContainer(key, entry));

            std::optional<StoredLandscape> loaded;
            ASSERT_NO_THROW(loaded = store.load(key)) << bad;
            EXPECT_FALSE(loaded.has_value()) << in_samples << " " << bad;
            EXPECT_FALSE(fs::exists(path)) << in_samples << " " << bad;
            EXPECT_EQ(store.stats().corruptMisses, ++corrupt);
        }
    }
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, OffGridSampleIndexLoadsAsCorruptMiss)
{
    // A well-formed container (valid CRC, matching key) whose sample
    // index is off the grid was not written by put(); load() drops it.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    StoredLandscape entry = sampleEntry();
    const StoreKey key = keyFor(entry);
    const std::string path = store.containerPath(key);
    entry.sampleIndices[0] = entry.grid.numPoints();
    writeFile(path, layoutContainer(key, entry));

    std::optional<StoredLandscape> loaded;
    ASSERT_NO_THROW(loaded = store.load(key));
    EXPECT_FALSE(loaded.has_value());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(store.stats().corruptMisses, 1u);
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, EntryKeyedBeforeTransformRevisionIsAMiss)
{
    // The sampling-config hash before the CS transform revision joined
    // it: FNV-1a over the fraction's bits and the seed only. Such an
    // entry was reconstructed by an older transform whose last bits
    // differ from a fresh reconstruct, so it must never be served.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    StoreKey old_key = keyFor(entry);
    old_key.cfgHash = fnv1aAppendU64(
        fnv1aAppendU64(kFnv1aOffsetBasis,
                       std::bit_cast<std::uint64_t>(entry.samplingFraction)),
        entry.sampleSeed);
    ASSERT_NE(old_key.cfgHash, keyFor(entry).cfgHash);
    store.put(old_key, entry);

    EXPECT_FALSE(store.load(keyFor(entry)).has_value());
    // Nor under its own stale key: the content no longer hashes to it.
    EXPECT_FALSE(store.load(old_key).has_value());
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, EntryKeyedBeforeSolverRevisionIsAMiss)
{
    // The sampling-config hash before the solver revision joined it:
    // fraction, seed and transform revision. Such an entry was solved
    // with the old FISTA defaults, so it must never be served.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    StoreKey old_key = keyFor(entry);
    old_key.cfgHash = fnv1aAppendU64(
        fnv1aAppendU64(
            fnv1aAppendU64(kFnv1aOffsetBasis, std::bit_cast<std::uint64_t>(
                                                  entry.samplingFraction)),
            entry.sampleSeed),
        kCsTransformRevision);
    ASSERT_NE(old_key.cfgHash, keyFor(entry).cfgHash);
    store.put(old_key, entry);

    EXPECT_FALSE(store.load(keyFor(entry)).has_value());
    EXPECT_FALSE(store.load(old_key).has_value());
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, EntryKeyedBeforePlanRevisionIsAMiss)
{
    // The sampling-config hash before the statevector plan revision
    // joined it: fraction, seed and the two CS revisions. Such an
    // entry was sampled by the RZZ gate replay, whose values differ by
    // rounding from the phase-op plan's, so it must never be served.
    TempDir dir;
    LandscapeStore store({dir.path + "/store", std::size_t{64} << 20});
    const StoredLandscape entry = sampleEntry();
    StoreKey old_key = keyFor(entry);
    old_key.cfgHash = fnv1aAppendU64(
        fnv1aAppendU64(
            fnv1aAppendU64(
                fnv1aAppendU64(kFnv1aOffsetBasis,
                               std::bit_cast<std::uint64_t>(
                                   entry.samplingFraction)),
                entry.sampleSeed),
            kCsTransformRevision),
        kCsSolverRevision);
    ASSERT_NE(old_key.cfgHash, keyFor(entry).cfgHash);
    store.put(old_key, entry);

    EXPECT_FALSE(store.load(keyFor(entry)).has_value());
    EXPECT_FALSE(store.load(old_key).has_value());
    EXPECT_EQ(store.stats().hits, 0u);
}

TEST(LandscapeStoreTest, GcEvictsLeastRecentlyUsed)
{
    TempDir dir;

    // Measure one container's size with an unbounded store first.
    std::size_t container_bytes = 0;
    {
        LandscapeStore probe(
            {dir.path + "/probe", std::size_t{64} << 20});
        const StoredLandscape entry = sampleEntry(1);
        probe.put(keyFor(entry, 1), entry);
        container_bytes = probe.totalBytes();
    }
    ASSERT_GT(container_bytes, 0u);

    // Budget for two containers (plus slack), then store three.
    LandscapeStore store(
        {dir.path + "/store", 2 * container_bytes + container_bytes / 2});
    const StoredLandscape a = sampleEntry(1);
    const StoredLandscape b = sampleEntry(2);
    const StoredLandscape c = sampleEntry(3);
    store.put(keyFor(a, 1), a);
    store.put(keyFor(b, 2), b);
    // Spread LRU recency out explicitly: mtime ties would make the
    // eviction order depend on filesystem timestamp granularity.
    using namespace std::chrono_literals;
    fs::last_write_time(store.containerPath(keyFor(a, 1)),
                        fs::file_time_type::clock::now() - 2h);
    fs::last_write_time(store.containerPath(keyFor(b, 2)),
                        fs::file_time_type::clock::now() - 1h);
    store.put(keyFor(c, 3), c); // runs gc() past the budget

    EXPECT_FALSE(fs::exists(store.containerPath(keyFor(a, 1))));
    EXPECT_TRUE(fs::exists(store.containerPath(keyFor(b, 2))));
    EXPECT_TRUE(fs::exists(store.containerPath(keyFor(c, 3))));
    EXPECT_EQ(store.stats().containersRemoved, 1u);
    EXPECT_LE(store.totalBytes(), store.budgetBytes());

    // A hit refreshes recency: touch b, add d, and now c (stale) goes.
    fs::last_write_time(store.containerPath(keyFor(c, 3)),
                        fs::file_time_type::clock::now() - 1h);
    ASSERT_TRUE(store.load(keyFor(b, 2)).has_value());
    const StoredLandscape d = sampleEntry(4);
    store.put(keyFor(d, 4), d);
    EXPECT_TRUE(fs::exists(store.containerPath(keyFor(b, 2))));
    EXPECT_FALSE(fs::exists(store.containerPath(keyFor(c, 3))));
}

// ---------------------------------------------------------------------
// Grid canonicalization
// ---------------------------------------------------------------------

TEST(LandscapeStoreTest, GridSpecRoundTripsAndHashesCanonically)
{
    const GridSpec grid({{-0.785, 0.785, 50}, {-1.571, 1.571, 100}});
    wire::WireWriter w;
    encodeGridSpec(w, grid);
    std::vector<std::uint8_t> bytes = w.take();
    wire::WireReader r(bytes);
    const GridSpec decoded = decodeGridSpec(r);
    ASSERT_EQ(decoded.rank(), grid.rank());
    EXPECT_EQ(decoded.numPoints(), grid.numPoints());
    EXPECT_EQ(gridHash(decoded), gridHash(grid));

    // Any axis change moves the hash.
    EXPECT_NE(gridHash(grid),
              gridHash(GridSpec({{-0.785, 0.785, 50},
                                 {-1.571, 1.571, 101}})));
    EXPECT_NE(gridHash(grid),
              gridHash(GridSpec({{-0.786, 0.785, 50},
                                 {-1.571, 1.571, 100}})));

    // Sampling config: fraction and seed both address.
    EXPECT_NE(configHash(0.1, 42), configHash(0.1, 43));
    EXPECT_NE(configHash(0.1, 42), configHash(0.2, 42));

    // A rank-0 grid encoding is rejected.
    wire::WireWriter bad;
    bad.u32(0);
    std::vector<std::uint8_t> bad_bytes = bad.take();
    wire::WireReader bad_reader(bad_bytes);
    EXPECT_THROW(decodeGridSpec(bad_reader), wire::WireError);

    // So is an inverted axis: GridSpec's own invalid_argument must not
    // escape the decoder (the serve daemon only catches WireError).
    wire::WireWriter inverted;
    inverted.u32(1);
    inverted.f64(1.0);
    inverted.f64(-1.0);
    inverted.u64(4);
    std::vector<std::uint8_t> inverted_bytes = inverted.take();
    wire::WireReader inverted_reader(inverted_bytes);
    EXPECT_THROW(decodeGridSpec(inverted_reader), wire::WireError);

    // And a NaN bound, which no ordering comparison catches.
    wire::WireWriter nan_lo;
    nan_lo.u32(1);
    nan_lo.f64(std::numeric_limits<double>::quiet_NaN());
    nan_lo.f64(1.0);
    nan_lo.u64(4);
    std::vector<std::uint8_t> nan_bytes = nan_lo.take();
    wire::WireReader nan_reader(nan_bytes);
    EXPECT_THROW(decodeGridSpec(nan_reader), wire::WireError);
}

// ---------------------------------------------------------------------
// Environment resolvers
// ---------------------------------------------------------------------

TEST(LandscapeStoreTest, ResolveStoreDir)
{
    {
        ScopedEnv env("OSCAR_STORE_DIR", nullptr);
        EXPECT_EQ(resolveStoreDir(""), "");          // store disabled
        EXPECT_EQ(resolveStoreDir("/a/b"), "/a/b");  // explicit config
    }
    {
        ScopedEnv env("OSCAR_STORE_DIR", "/from/env");
        EXPECT_EQ(resolveStoreDir(""), "/from/env");
        EXPECT_EQ(resolveStoreDir("/explicit"), "/explicit"); // wins
    }
    {
        // Set-but-empty is malformed, not "disabled": fail loudly.
        ScopedEnv env("OSCAR_STORE_DIR", "");
        EXPECT_THROW(resolveStoreDir(""), std::runtime_error);
    }
}

TEST(LandscapeStoreTest, ResolveStoreBudgetBytes)
{
    {
        ScopedEnv env("OSCAR_STORE_BUDGET_MB", nullptr);
        EXPECT_EQ(resolveStoreBudgetBytes(-1), std::size_t{1024} << 20);
        EXPECT_EQ(resolveStoreBudgetBytes(7), std::size_t{7} << 20);
    }
    {
        ScopedEnv env("OSCAR_STORE_BUDGET_MB", "256");
        EXPECT_EQ(resolveStoreBudgetBytes(-1), std::size_t{256} << 20);
        EXPECT_EQ(resolveStoreBudgetBytes(2), std::size_t{2} << 20);
    }
    for (const char* bad : {"", "abc", "12abc", "0", "-3", "1048577"}) {
        ScopedEnv env("OSCAR_STORE_BUDGET_MB", bad);
        EXPECT_THROW(resolveStoreBudgetBytes(-1), std::runtime_error)
            << "OSCAR_STORE_BUDGET_MB=" << bad;
    }
}

} // namespace
} // namespace store
} // namespace oscar
