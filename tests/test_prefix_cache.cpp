/**
 * @file
 * Tests of the lock-free fixed-slot PrefixCache:
 *
 *  - semantics: a hit returns the bit-exact checkpoint for exactly the
 *    queried key (full-key verification, not just the hash tag);
 *    eviction accounting under a tiny budget; budgets too small for
 *    one slot disable the cache; clear() drops entries but keeps the
 *    cumulative counters; reconfiguring with an unchanged shape keeps
 *    entries while a shape change drops them;
 *  - concurrency: threads hammering insert/find/reclaim over a key
 *    universe larger than the table never observe a wrong value --
 *    every hit's payload must match the value deterministically
 *    derived from its key. Run under ThreadSanitizer in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/backend/prefix_cache.h"

namespace oscar {
namespace {

/** The unique checkpoint payload for a key: derived, so verifiable. */
AlignedVector<cplx>
payloadFor(const PrefixKey& key, std::size_t amp_count)
{
    AlignedVector<cplx> amps(amp_count);
    double seed = static_cast<double>(key.depth) * 1e3;
    for (std::uint64_t w : key.paramBits)
        seed += static_cast<double>(w % 9973);
    for (std::size_t j = 0; j < amp_count; ++j)
        amps[j] = cplx(seed + static_cast<double>(j), -seed);
    return amps;
}

bool
bitIdentical(const AlignedVector<cplx>& a, const AlignedVector<cplx>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

PrefixKey
keyOf(std::size_t depth, std::initializer_list<std::uint64_t> bits)
{
    PrefixKey key;
    key.depth = depth;
    key.paramBits.assign(bits);
    return key;
}

TEST(PrefixCacheTest, InsertThenFindReturnsExactAmplitudes)
{
    PrefixCache cache(1 << 20);
    cache.configure(16, 2);
    ASSERT_GT(cache.numSlots(), 0u);

    const PrefixKey key = keyOf(3, {0x3ff0000000000000ull, 42});
    const AlignedVector<cplx> amps = payloadFor(key, 16);
    const PrefixInsertResult ins = cache.insert(key, amps);
    EXPECT_TRUE(ins.inserted);
    EXPECT_FALSE(ins.reclaimed);
    EXPECT_EQ(cache.numEntries(), 1u);

    AlignedVector<cplx> out;
    ASSERT_TRUE(cache.find(key, out));
    EXPECT_TRUE(bitIdentical(out, amps));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.lookups(), 1u);

    // A re-insert of a present key is dropped, not duplicated.
    const PrefixInsertResult dup = cache.insert(key, amps);
    EXPECT_FALSE(dup.inserted);
    EXPECT_EQ(cache.numEntries(), 1u);
}

TEST(PrefixCacheTest, MissOnDifferentDepthOrBits)
{
    PrefixCache cache(1 << 20);
    cache.configure(8, 1);
    const PrefixKey key = keyOf(5, {123});
    cache.insert(key, payloadFor(key, 8));

    AlignedVector<cplx> out;
    EXPECT_FALSE(cache.find(keyOf(4, {123}), out));
    EXPECT_FALSE(cache.find(keyOf(5, {124}), out));
    EXPECT_FALSE(cache.find(keyOf(5, {123, 7}), out));
    EXPECT_TRUE(cache.find(key, out));
}

TEST(PrefixCacheTest, TinyBudgetEvictsAndCounts)
{
    // A 4096-byte budget over 64-amplitude checkpoints leaves only a
    // few slots; pushing many distinct keys through must reclaim.
    PrefixCache cache(4096);
    cache.configure(64, 1);
    ASSERT_GT(cache.numSlots(), 0u);
    ASSERT_LT(cache.numSlots(), 8u);
    EXPECT_LE(cache.sizeBytes(), cache.budgetBytes());

    bool saw_reclaim = false;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const PrefixKey key = keyOf(2, {i});
        saw_reclaim |= cache.insert(key, payloadFor(key, 64)).reclaimed;
    }
    EXPECT_TRUE(saw_reclaim);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.numEntries(), cache.numSlots());

    // Whatever survived must still be exact.
    for (std::uint64_t i = 0; i < 64; ++i) {
        const PrefixKey key = keyOf(2, {i});
        AlignedVector<cplx> out;
        if (cache.find(key, out)) {
            EXPECT_TRUE(bitIdentical(out, payloadFor(key, 64)));
        }
    }
}

TEST(PrefixCacheTest, BudgetTooSmallForOneSlotDisables)
{
    PrefixCache cache(64); // far below one 64-amplitude slot
    cache.configure(64, 1);
    EXPECT_EQ(cache.numSlots(), 0u);
    const PrefixKey key = keyOf(1, {9});
    const PrefixInsertResult ins = cache.insert(key, payloadFor(key, 64));
    EXPECT_FALSE(ins.inserted);
    AlignedVector<cplx> out;
    EXPECT_FALSE(cache.find(key, out));
}

TEST(PrefixCacheTest, ClearDropsEntriesKeepsCounters)
{
    PrefixCache cache(1 << 20);
    cache.configure(8, 1);
    const PrefixKey key = keyOf(2, {11});
    cache.insert(key, payloadFor(key, 8));
    AlignedVector<cplx> out;
    ASSERT_TRUE(cache.find(key, out));
    const std::size_t hits = cache.hits();
    const std::size_t lookups = cache.lookups();

    cache.clear();
    EXPECT_EQ(cache.numEntries(), 0u);
    EXPECT_FALSE(cache.find(key, out));
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.lookups(), lookups + 1);
}

TEST(PrefixCacheTest, ReconfigureSameShapeKeepsEntries)
{
    PrefixCache cache(1 << 20);
    cache.configure(8, 2);
    const PrefixKey key = keyOf(2, {21, 22});
    cache.insert(key, payloadFor(key, 8));

    cache.configure(8, 2); // identical shape: a no-op
    AlignedVector<cplx> out;
    EXPECT_TRUE(cache.find(key, out));

    cache.configure(16, 2); // shape change: entries dropped
    EXPECT_EQ(cache.numEntries(), 0u);
    EXPECT_FALSE(cache.find(key, out));
}

TEST(PrefixCacheTest, KeysWiderThanConfiguredAreIgnored)
{
    PrefixCache cache(1 << 20);
    cache.configure(8, 1);
    const PrefixKey wide = keyOf(2, {1, 2, 3});
    EXPECT_FALSE(cache.insert(wide, payloadFor(wide, 8)).inserted);
    AlignedVector<cplx> out;
    EXPECT_FALSE(cache.find(wide, out));
}

/**
 * The determinism contract's load-bearing property: under concurrent
 * insert / lookup / reclamation pressure, a hit NEVER yields a value
 * other than the one deterministically derived from its key. Torn or
 * raced reads must surface as misses. TSan-clean by construction
 * (every shared word goes through atomics); this test is part of the
 * thread-sanitize CI leg.
 */
TEST(PrefixCacheTest, ConcurrentInsertFindReclaimNeverWrongValue)
{
    constexpr std::size_t kAmps = 32;
    constexpr std::size_t kKeys = 512; // universe >> table
    PrefixCache cache(16 * 1024);      // a handful of slots: reclaim-heavy
    cache.configure(kAmps, 1);
    ASSERT_GT(cache.numSlots(), 0u);

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t num_threads = hw > 4 ? 4 : (hw > 0 ? hw + 1 : 2);
    std::atomic<std::size_t> wrong{0};
    std::atomic<std::size_t> total_hits{0};

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            AlignedVector<cplx> out;
            std::uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
            for (int iter = 0; iter < 20000; ++iter) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                PrefixKey key;
                key.depth = 1 + (state % 7);
                key.paramBits = {state % kKeys};
                const AlignedVector<cplx> expect =
                    payloadFor(key, kAmps);
                // Branch on a high bit: the low bits feed the key, and
                // reusing one for the insert/find split would make the
                // two populations disjoint.
                if ((state >> 60) & 1) {
                    cache.insert(key, expect);
                } else if (cache.find(key, out)) {
                    total_hits.fetch_add(1,
                                         std::memory_order_relaxed);
                    if (!bitIdentical(out, expect))
                        wrong.fetch_add(1,
                                        std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_GT(total_hits.load(), 0u);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.numEntries(), cache.numSlots());

    // The table must still be coherent after the storm.
    const PrefixKey key = keyOf(1, {kKeys + 1});
    ASSERT_TRUE(cache.insert(key, payloadFor(key, kAmps)).inserted);
    AlignedVector<cplx> out;
    ASSERT_TRUE(cache.find(key, out));
    EXPECT_TRUE(bitIdentical(out, payloadFor(key, kAmps)));
}

} // namespace
} // namespace oscar
