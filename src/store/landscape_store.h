/**
 * @file
 * Persistent, content-addressed landscape store.
 *
 * Every OSCAR reconstruction is a pure function of (cost spec, grid
 * spec, sampling config) per fixed kernel ISA and CS transform and
 * solver revisions -- so a finished reconstruction can be memoized on
 * disk and served again bit-identically, without touching the
 * execution pool. The store keeps one container file per key:
 *
 *   key = (CostSpec FNV-1a content hash      -- src/serve/wire.h,
 *          canonical GridSpec FNV-1a hash,
 *          sampling-config FNV-1a hash        -- fraction + seed +
 *                                                kCsTransformRevision +
 *                                                kCsSolverRevision +
 *                                                kStatevectorPlanRevision)
 *
 * A container is, all integers little-endian and uncompressed:
 *
 *   [magic u32 "OSCA"][version u16][costId u64][gridHash u64]
 *   [cfgHash u64][crc32 u32][body]
 *
 * where the body is encodeStoredLandscape() -- the very bytes an Ok
 * serve response carries -- and the CRC-32 covers the three key fields
 * and the body. All doubles are raw IEEE-754 bit patterns, so a warm
 * hit returns exactly the bytes a fresh computation would produce.
 *
 * Robustness contract: a container that is truncated, bit-flipped,
 * version-stale, filed under another key, or mid-write (temp file)
 * NEVER crashes the caller or yields a wrong value -- load() reports
 * a miss (corrupt containers are additionally unlinked so the rewrite
 * is clean), and the caller recomputes and rewrites. Non-finite
 * landscapes are never stored or served: put() refuses a NaN or +-inf
 * value, and load() treats a container holding one as corrupt.
 *
 * The store is bounded by an LRU byte budget: load() touches the
 * container's mtime, and gc() (run after every put) deletes
 * least-recently-used containers until the directory fits the budget.
 */

#ifndef OSCAR_STORE_LANDSCAPE_STORE_H
#define OSCAR_STORE_LANDSCAPE_STORE_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/backend/executor.h"
#include "src/serve/wire.h"
#include "src/landscape/grid.h"

namespace oscar {
namespace store {

/** Malformed, mis-keyed or unwritable container. */
class StoreError : public std::runtime_error
{
  public:
    explicit StoreError(const std::string& what)
        : std::runtime_error("store: " + what)
    {
    }
};

constexpr std::uint32_t kContainerMagic = 0x4143534Fu; // "OSCA"

/**
 * Container format version. load() rejects any other value, so a
 * container written in another format (version 2 was a six-stream
 * archive; version 3 carried four more KernelStats counters) is a
 * corrupt miss instead of being misparsed.
 */
constexpr std::uint16_t kContainerVersion = 4;

/** Content address of one stored reconstruction. */
struct StoreKey
{
    std::uint64_t costId = 0;   ///< CostSpec content hash (OSCW wire)
    std::uint64_t gridHash = 0; ///< canonical GridSpec hash
    std::uint64_t cfgHash = 0;  ///< configHash(): sampling config
                                ///< and CS transform/solver revisions

    bool operator==(const StoreKey&) const = default;
};

/** One memoized reconstruction (a container's body). */
struct StoredLandscape
{
    GridSpec grid;
    std::vector<std::uint64_t> sampleIndices;
    std::vector<double> sampleValues;
    /** Reconstructed value at every grid point (row-major). */
    std::vector<double> reconstructed;
    KernelStats kernel;
    double samplingFraction = 0.0;
    std::uint64_t sampleSeed = 0;
    std::uint64_t queriesUsed = 0;
    double querySpeedup = 0.0;
};

/** Monotonic store counters (safe to poll anytime). */
struct StoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        ///< includes corruptMisses
    std::uint64_t corruptMisses = 0; ///< load found a damaged container
    std::uint64_t puts = 0;
    std::uint64_t containersRemoved = 0; ///< by gc()
};

struct StoreOptions
{
    /** Container directory (created on demand). Must be non-empty. */
    std::string dir;

    /**
     * LRU byte budget over all containers; gc() evicts
     * least-recently-used containers beyond it.
     */
    std::size_t budgetBytes = std::size_t{1024} << 20;
};

/** Content-addressed on-disk store of finished reconstructions. */
class LandscapeStore
{
  public:
    /**
     * Opens (and creates, if needed) the store directory.
     * @throws std::runtime_error when the directory cannot be created
     */
    explicit LandscapeStore(StoreOptions options);

    const std::string& dir() const { return options_.dir; }
    std::size_t budgetBytes() const { return options_.budgetBytes; }

    /**
     * Load the entry for `key`, or nullopt on a miss -- where "miss"
     * includes every form of container damage (see file comment), and
     * a container holding a non-finite sample or reconstructed value.
     * A hit bumps the container's LRU recency.
     */
    std::optional<StoredLandscape> load(const StoreKey& key);

    /**
     * Publish an entry atomically (write-then-rename), then enforce
     * the byte budget via gc().
     * @throws std::invalid_argument when a sample or reconstructed
     *         value is NaN or +-inf (nothing is written)
     * @throws StoreError when the container cannot be written
     */
    void put(const StoreKey& key, const StoredLandscape& entry);

    /**
     * Delete least-recently-used containers until the store fits the
     * byte budget; returns the number removed. Runs automatically
     * after every put(); public for explicit maintenance.
     */
    std::size_t gc();

    /** Bytes currently used by containers (directory scan). */
    std::size_t totalBytes() const;

    StoreStats stats() const;

    /** Container path of a key (for tests and tooling). */
    std::string containerPath(const StoreKey& key) const;

  private:
    std::size_t gcLocked();

    mutable std::mutex mutex_; ///< serializes directory access + stats

    StoreOptions options_;
    StoreStats stats_;
};

/** Canonical FNV-1a hash of a grid spec (axis bounds bits + counts). */
std::uint64_t gridHash(const GridSpec& grid);

/**
 * FNV-1a hash of the sampling config, kCsTransformRevision
 * (src/cs/dct.h), kCsSolverRevision (src/cs/fista.h) and
 * kStatevectorPlanRevision (src/backend/statevector_backend.h),
 * StoreKey::cfgHash: a landscape reconstructed by an older transform,
 * with older solver defaults or from an older replay plan differs from
 * a fresh reconstruct, so it must miss.
 */
std::uint64_t configHash(double sampling_fraction, std::uint64_t seed);

/** Canonical GridSpec encoding (shared with the serve protocol). */
void encodeGridSpec(wire::WireWriter& w, const GridSpec& grid);

/**
 * Inverse of encodeGridSpec.
 * @throws wire::WireError on out-of-range axes
 */
GridSpec decodeGridSpec(wire::WireReader& r);

/**
 * The stored-landscape body: a container's body and an Ok serve
 * response's landscape (src/serve/protocol.h), byte for byte.
 */
void encodeStoredLandscape(wire::WireWriter& w, const StoredLandscape& entry);

/**
 * Inverse of encodeStoredLandscape.
 * @throws wire::WireError on a malformed body, an unknown kernel ISA
 *         or a sample index off the grid
 */
StoredLandscape decodeStoredLandscape(wire::WireReader& r);

/** Serialize the container of `entry` under `key` (see file comment). */
std::vector<std::uint8_t> encodeContainer(const StoreKey& key,
                                          const StoredLandscape& entry);

/**
 * Decode a container and check that it is `key`'s entry: magic,
 * version, the header key, the CRC, a body that ends with the
 * container, grid and config hashes that match the key, and only
 * finite values.
 * @throws StoreError on any failed check
 */
StoredLandscape decodeContainer(std::span<const std::uint8_t> bytes,
                                const StoreKey& key);

/**
 * Resolve a store directory: a non-empty `configured` wins, else the
 * OSCAR_STORE_DIR environment variable, else "" (store disabled). An
 * OSCAR_STORE_DIR that is set but empty throws std::runtime_error
 * listing the valid form -- like OSCAR_KERNEL_ISA, a malformed
 * setting must fail loudly, never silently disable persistence.
 */
std::string resolveStoreDir(const std::string& configured);

/**
 * Resolve the LRU budget in bytes: `configured_mb` >= 1 wins; -1
 * consults OSCAR_STORE_BUDGET_MB (unset = 1024 MB). Malformed or
 * out-of-range values (valid: 1..1048576 MB) throw
 * std::runtime_error listing the valid form.
 */
std::size_t resolveStoreBudgetBytes(long long configured_mb);

} // namespace store
} // namespace oscar

#endif // OSCAR_STORE_LANDSCAPE_STORE_H
