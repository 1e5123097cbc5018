/**
 * @file
 * Lock-free fixed-slot store of statevector checkpoints keyed by
 * resolved prefix angles.
 *
 * A checkpoint is the exact amplitude vector produced by replaying a
 * compiled schedule's ops [0, depth) under some parameter binding. The
 * key is (depth, bit patterns of the parameter values the prefix
 * depends on), so two bindings that agree bitwise on the prefix
 * parameters share the checkpoint — the axis-major sweeps emitted by
 * the landscape sampler then hit the cache both within a batch and
 * across batches of the same sweep.
 *
 * Checkpoints are bit-exact, never approximate: replaying from a
 * checkpoint executes the identical kernel sequence a from-scratch run
 * would, so cache state can change performance but never values (the
 * determinism argument of the batched — and now hybrid
 * process × thread — backends rests on this).
 *
 * Concurrency model (in the style of LTSmin's lock-free state storage,
 * dbs-ll.c): the cache is one fixed array of slots sized from the byte
 * budget at configure() time, and the hot path takes no mutex.
 *
 *  - A slot is claimed or reclaimed by CAS-locking its *sequence
 *    counter* (even = stable, odd = writer inside). Exactly one writer
 *    can own a slot at a time; losers move on (dropping an insert is
 *    always safe — a checkpoint is a pure accelerator).
 *  - Payloads are published seqlock-style: the writer bumps the
 *    sequence odd, fills tag + key + amplitudes with relaxed atomic
 *    stores, then bumps it even with a release store. A reader snapshots
 *    the sequence, copies the payload out, and accepts the copy only if
 *    the sequence is unchanged and even — a torn read is a miss, never
 *    a wrong value. All shared words are accessed through atomics
 *    (std::atomic_ref), so the scheme is clean under ThreadSanitizer.
 *  - When the probe window holds no empty slot, a clock hand picks the
 *    victim within that window (where lookups can still reach it):
 *    reclamation overwrites in place, so the table never grows past
 *    the slot count implied by the byte budget.
 *
 * Because a lookup verifies the *full* key (depth + every parameter
 * bit pattern) under the sequence check, a hit always returns the
 * bit-exact checkpoint for exactly that prefix: hash collisions and
 * races degrade hit rate, never values. Clones of an evaluator share
 * one cache through a shared_ptr (statevector_backend.h), which is
 * what makes a multi-threaded worker's checkpoint reuse compose across
 * its evaluator replicas.
 *
 * find()/insert() are safe to call concurrently with each other;
 * configure()/setBudget()/clear() are not — callers reconfigure only
 * while no evaluation is in flight (the engine configures evaluators
 * before submitting batches).
 */

#ifndef OSCAR_BACKEND_PREFIX_CACHE_H
#define OSCAR_BACKEND_PREFIX_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/aligned.h"
#include "src/quantum/gate.h"

namespace oscar {

/** Identifies a checkpoint: prefix depth + prefix parameter bits. */
struct PrefixKey
{
    std::size_t depth = 0;
    std::vector<std::uint64_t> paramBits;

    bool operator==(const PrefixKey& other) const
    {
        return depth == other.depth && paramBits == other.paramBits;
    }
};

/** Outcome of one PrefixCache::insert (per-evaluator accounting). */
struct PrefixInsertResult
{
    bool inserted = false;   ///< a new checkpoint was published
    bool reclaimed = false;  ///< it displaced a live checkpoint
};

/** Lock-free fixed-slot checkpoint store under a byte budget. */
class PrefixCache
{
  public:
    explicit PrefixCache(std::size_t budget_bytes);
    ~PrefixCache();

    PrefixCache(const PrefixCache&) = delete;
    PrefixCache& operator=(const PrefixCache&) = delete;

    /**
     * Size the slot table for checkpoints of `amp_count` amplitudes
     * whose keys hold at most `max_key_words` parameter-bit words.
     * Idempotent for unchanged shape; a shape change drops all
     * entries. NOT safe concurrently with find/insert.
     */
    void configure(std::size_t amp_count, std::size_t max_key_words);

    /** Drop everything and set a new budget. */
    void setBudget(std::size_t budget_bytes);

    std::size_t budgetBytes() const { return budgetBytes_; }

    /** Bytes the slot table occupies (0 until configured). */
    std::size_t sizeBytes() const;

    /** Slots in the table (0 until configured). */
    std::size_t numSlots() const { return numSlots_; }

    /** Occupied slots (approximate under concurrency). */
    std::size_t numEntries() const
    {
        return occupied_.load(std::memory_order_relaxed);
    }

    /**
     * Cache effectiveness counters, cumulative over every sharer since
     * construction (clear() drops entries, not counters). Per-evaluator
     * attribution lives in the evaluator itself (the return values of
     * find/insert), so per-replica deltas never double-count shared
     * traffic.
     */
    std::size_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    std::size_t lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }
    std::size_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /**
     * Look up a checkpoint; on a hit copies the amplitudes into `out`
     * (resized to the configured amplitude count) and returns true.
     * On a miss returns false; `out` may then hold garbage from a
     * torn copy and must not be interpreted. Lock-free.
     */
    bool find(const PrefixKey& key, AlignedVector<cplx>& out);

    /**
     * Publish a checkpoint (dropped when the key is already present,
     * the table is unconfigured, the key exceeds the configured word
     * count, or every candidate slot is writer-locked). Reclaims a
     * clock-hand victim when the probe window is full. Lock-free.
     */
    PrefixInsertResult insert(const PrefixKey& key,
                              const AlignedVector<cplx>& amps);

    /** Drop all entries. NOT safe concurrently with find/insert. */
    void clear();

  private:
    /** Slots probed around the hash before falling back to the hand. */
    static constexpr std::size_t kProbeWindow = 8;

    /**
     * Per-slot header; key words live in the flat keyWords_ array.
     * Plain words, all shared accesses through std::atomic_ref, so
     * that an all-zero slot (an untouched page of the table) is an
     * empty one.
     */
    struct Slot
    {
        /** Seqlock word: even = stable, odd = writer inside. */
        std::atomic_ref<std::uint32_t> seq()
        {
            return std::atomic_ref(seqWord);
        }
        /** Key fingerprint; 0 = empty (fingerprints are forced != 0). */
        std::atomic_ref<std::uint64_t> tag()
        {
            return std::atomic_ref(tagWord);
        }
        /**
         * Checkpoint amplitudes (2*ampCount_ doubles, 64-byte
         * aligned), allocated the first time the slot is claimed and
         * reused across reclamations, so resident bytes track slots
         * *used* rather than the full budget. Install-once: set under
         * the slot's seq lock, freed only by non-concurrent ops.
         */
        std::atomic_ref<double*> payload()
        {
            return std::atomic_ref(payloadWord);
        }

        std::uint32_t seqWord;
        std::uint64_t tagWord;
        double* payloadWord;
    };

    static std::uint64_t fingerprint(const PrefixKey& key);

    std::uint64_t* keyWordsAt(std::size_t slot)
    {
        return keyWords_.data() + slot * keyStride_;
    }

    /**
     * Verify slot `s` holds exactly `key` (relaxed atomic reads; only
     * meaningful under a seq validation or the slot's seq lock).
     */
    bool keyMatches(std::size_t s, const PrefixKey& key);

    /**
     * Fill slot `s` (whose seq the caller CAS-locked to the odd value
     * `locked_seq`) with (tag, key, amps) and release it. Relaxed
     * atomic stores made visible by the final release store of the
     * sequence. Allocates the slot's payload buffer on first use.
     */
    void publishLocked(std::size_t s, std::uint32_t locked_seq,
                       std::uint64_t tag, const PrefixKey& key,
                       const AlignedVector<cplx>& amps);

    void releaseTable();

    std::size_t budgetBytes_;
    std::size_t ampCount_ = 0;      ///< amplitudes per checkpoint
    std::size_t keyStride_ = 0;     ///< u64 words per slot key region
    std::size_t payloadDoubles_ = 0; ///< doubles per slot payload
    std::size_t numSlots_ = 0;

    // Both tables sit in page mappings: a table sized for the budget
    // is mostly never probed, and its untouched pages cost nothing.
    PageArray<Slot> slots_;
    PageArray<std::uint64_t> keyWords_; ///< [depth, len, bits...]/slot

    std::atomic<std::size_t> clockHand_{0};
    std::atomic<std::size_t> occupied_{0};
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> lookups_{0};
    std::atomic<std::size_t> evictions_{0};
};

} // namespace oscar

#endif // OSCAR_BACKEND_PREFIX_CACHE_H
