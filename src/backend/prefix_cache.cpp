#include "src/backend/prefix_cache.h"

#include <new>

namespace oscar {

namespace {

/**
 * Ceiling on the slot table: below this the budget alone sizes the
 * table; above it extra budget buys nothing (a sweep's distinct
 * prefixes number in the hundreds; header pages, like payloads, cost
 * memory only once used).
 */
constexpr std::size_t kMaxSlots = 65536;

/** Relaxed atomic load of one shared 64-bit key word. */
inline std::uint64_t
loadWord(const std::uint64_t& word)
{
    return std::atomic_ref<const std::uint64_t>(word).load(
        std::memory_order_relaxed);
}

/** Relaxed atomic store of one shared 64-bit key word. */
inline void
storeWord(std::uint64_t& word, std::uint64_t value)
{
    std::atomic_ref<std::uint64_t>(word).store(value,
                                               std::memory_order_relaxed);
}

} // namespace

PrefixCache::PrefixCache(std::size_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
}

PrefixCache::~PrefixCache()
{
    releaseTable();
}

void
PrefixCache::releaseTable()
{
    for (Slot& slot : slots_) {
        double* buf = slot.payload().load(std::memory_order_relaxed);
        if (buf != nullptr)
            ::operator delete(buf, std::align_val_t{64});
    }
    slots_ = {};
    keyWords_ = {};
    numSlots_ = 0;
    ampCount_ = 0;
    keyStride_ = 0;
    payloadDoubles_ = 0;
    occupied_.store(0, std::memory_order_relaxed);
    clockHand_.store(0, std::memory_order_relaxed);
}

void
PrefixCache::configure(std::size_t amp_count, std::size_t max_key_words)
{
    const std::size_t key_stride = 2 + max_key_words; // depth, len, bits
    if (ampCount_ == amp_count && keyStride_ == key_stride)
        return;
    releaseTable();
    if (amp_count == 0)
        return;
    // Budget accounting charges each slot its full checkpoint weight
    // up front, so the table can never hold more live bytes than the
    // budget even when every slot is occupied.
    const std::size_t slot_bytes = sizeof(Slot) +
                                   key_stride * sizeof(std::uint64_t) +
                                   amp_count * sizeof(cplx);
    const std::size_t slots = budgetBytes_ / slot_bytes;
    if (slots == 0)
        return; // one checkpoint alone busts the budget: cache stays off
    ampCount_ = amp_count;
    keyStride_ = key_stride;
    payloadDoubles_ = 2 * amp_count;
    numSlots_ = slots < kMaxSlots ? slots : kMaxSlots;
    slots_ = PageArray<Slot>(numSlots_);
    keyWords_ = PageArray<std::uint64_t>(numSlots_ * keyStride_);
}

void
PrefixCache::setBudget(std::size_t budget_bytes)
{
    releaseTable();
    budgetBytes_ = budget_bytes;
}

std::size_t
PrefixCache::sizeBytes() const
{
    return numSlots_ * (sizeof(Slot) + keyStride_ * sizeof(std::uint64_t) +
                        ampCount_ * sizeof(cplx));
}

std::uint64_t
PrefixCache::fingerprint(const PrefixKey& key)
{
    std::uint64_t h = 14695981039346656037ULL; // FNV-1a offset basis
    const auto mix = [&h](std::uint64_t word) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xffULL;
            h *= 1099511628211ULL; // FNV prime
        }
    };
    mix(static_cast<std::uint64_t>(key.depth));
    mix(static_cast<std::uint64_t>(key.paramBits.size()));
    for (std::uint64_t bits : key.paramBits)
        mix(bits);
    return h == 0 ? 1 : h; // 0 is the empty-slot sentinel
}

bool
PrefixCache::keyMatches(std::size_t s, const PrefixKey& key)
{
    const std::uint64_t* kw = keyWordsAt(s);
    if (loadWord(kw[0]) != static_cast<std::uint64_t>(key.depth))
        return false;
    if (loadWord(kw[1]) != static_cast<std::uint64_t>(key.paramBits.size()))
        return false;
    for (std::size_t j = 0; j < key.paramBits.size(); ++j)
        if (loadWord(kw[2 + j]) != key.paramBits[j])
            return false;
    return true;
}

bool
PrefixCache::find(const PrefixKey& key, AlignedVector<cplx>& out)
{
    lookups_.fetch_add(1, std::memory_order_relaxed);
    if (numSlots_ == 0 || key.paramBits.size() + 2 > keyStride_)
        return false;
    const std::uint64_t tag = fingerprint(key);
    const std::size_t probes =
        kProbeWindow < numSlots_ ? kProbeWindow : numSlots_;
    const std::size_t home = static_cast<std::size_t>(tag % numSlots_);
    for (std::size_t i = 0; i < probes; ++i) {
        const std::size_t s = (home + i) % numSlots_;
        Slot& slot = slots_[s];
        if (slot.tag().load(std::memory_order_relaxed) != tag)
            continue;
        // Seqlock read: snapshot an even sequence, copy everything
        // out, and accept the copy only if the sequence is unchanged.
        const std::uint32_t seq1 = slot.seq().load(std::memory_order_acquire);
        if (seq1 & 1u)
            continue;
        if (!keyMatches(s, key))
            continue;
        const double* src = slot.payload().load(std::memory_order_relaxed);
        if (src == nullptr)
            continue;
        out.resize(ampCount_);
        double* dst = reinterpret_cast<double*>(out.data());
        for (std::size_t j = 0; j < payloadDoubles_; ++j)
            dst[j] = std::atomic_ref<const double>(src[j]).load(
                std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq().load(std::memory_order_relaxed) == seq1) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        // Torn by a concurrent reclaim: a miss, never a wrong value.
    }
    return false;
}

void
PrefixCache::publishLocked(std::size_t s, std::uint32_t locked_seq,
                           std::uint64_t tag, const PrefixKey& key,
                           const AlignedVector<cplx>& amps)
{
    Slot& slot = slots_[s];
    double* buf = slot.payload().load(std::memory_order_relaxed);
    if (buf == nullptr) {
        buf = static_cast<double*>(::operator new(
            payloadDoubles_ * sizeof(double), std::align_val_t{64}));
        slot.payload().store(buf, std::memory_order_relaxed);
    }
    slot.tag().store(tag, std::memory_order_relaxed);
    std::uint64_t* kw = keyWordsAt(s);
    storeWord(kw[0], static_cast<std::uint64_t>(key.depth));
    storeWord(kw[1], static_cast<std::uint64_t>(key.paramBits.size()));
    for (std::size_t j = 0; j < key.paramBits.size(); ++j)
        storeWord(kw[2 + j], key.paramBits[j]);
    const double* src = reinterpret_cast<const double*>(amps.data());
    for (std::size_t j = 0; j < payloadDoubles_; ++j)
        std::atomic_ref<double>(buf[j]).store(src[j],
                                              std::memory_order_relaxed);
    slot.seq().store(locked_seq + 1, std::memory_order_release);
}

PrefixInsertResult
PrefixCache::insert(const PrefixKey& key, const AlignedVector<cplx>& amps)
{
    PrefixInsertResult result;
    if (numSlots_ == 0 || key.paramBits.size() + 2 > keyStride_ ||
        amps.size() != ampCount_)
        return result;
    const std::uint64_t tag = fingerprint(key);
    const std::size_t probes =
        kProbeWindow < numSlots_ ? kProbeWindow : numSlots_;
    const std::size_t home = static_cast<std::size_t>(tag % numSlots_);

    // Pass 1 over the probe window: bail on a duplicate, or claim the
    // first empty slot by CAS-locking its sequence.
    for (std::size_t i = 0; i < probes; ++i) {
        const std::size_t s = (home + i) % numSlots_;
        Slot& slot = slots_[s];
        const std::uint64_t seen = slot.tag().load(std::memory_order_relaxed);
        if (seen == tag) {
            const std::uint32_t seq1 =
                slot.seq().load(std::memory_order_acquire);
            if (!(seq1 & 1u) && keyMatches(s, key) &&
                slot.seq().load(std::memory_order_relaxed) == seq1)
                return result; // already published (racy-OK: dup is benign)
        }
        if (seen != 0)
            continue;
        std::uint32_t seq = slot.seq().load(std::memory_order_relaxed);
        if (seq & 1u)
            continue; // writer inside
        if (!slot.seq().compare_exchange_strong(seq, seq + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed))
            continue; // lost the race for this slot
        // We own the slot; re-read the tag now that no writer can be
        // inside. Another insert may have filled it before our CAS.
        const std::uint64_t now = slot.tag().load(std::memory_order_relaxed);
        if (now != 0) {
            slot.seq().store(seq + 2, std::memory_order_release);
            if (now == tag && keyMatches(s, key))
                return result; // our key won the race elsewhere
            continue;          // someone else's entry landed here
        }
        publishLocked(s, seq + 1, tag, key, amps);
        occupied_.fetch_add(1, std::memory_order_relaxed);
        result.inserted = true;
        return result;
    }

    // Probe window full of live entries: reclaim a victim *within the
    // window* (anywhere else and find(), which probes only the window,
    // could never see the entry again). The shared clock hand rotates
    // which window position gets displaced, so a hot window ages out
    // round-robin instead of thrashing one slot.
    for (std::size_t attempt = 0; attempt < kProbeWindow; ++attempt) {
        const std::size_t v =
            (home +
             clockHand_.fetch_add(1, std::memory_order_relaxed) % probes) %
            numSlots_;
        Slot& slot = slots_[v];
        std::uint32_t seq = slot.seq().load(std::memory_order_relaxed);
        if (seq & 1u)
            continue;
        if (!slot.seq().compare_exchange_strong(seq, seq + 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed))
            continue;
        const std::uint64_t old = slot.tag().load(std::memory_order_relaxed);
        if (old == tag && keyMatches(v, key)) {
            // The hand landed on our own key: nothing to do.
            slot.seq().store(seq + 2, std::memory_order_release);
            return result;
        }
        publishLocked(v, seq + 1, tag, key, amps);
        if (old == 0) {
            occupied_.fetch_add(1, std::memory_order_relaxed);
        } else {
            evictions_.fetch_add(1, std::memory_order_relaxed);
            result.reclaimed = true;
        }
        result.inserted = true;
        return result;
    }
    return result; // every candidate writer-locked: drop the insert
}

void
PrefixCache::clear()
{
    // Non-concurrent by contract: plain sequential resets, payload
    // buffers retained for reuse. Only nonzero words are written, so
    // table pages never used stay out of the resident set.
    for (Slot& slot : slots_) {
        if (slot.tag().load(std::memory_order_relaxed) != 0)
            slot.tag().store(0, std::memory_order_relaxed);
    }
    for (std::uint64_t& word : keyWords_) {
        if (word != 0)
            word = 0;
    }
    occupied_.store(0, std::memory_order_relaxed);
    clockHand_.store(0, std::memory_order_relaxed);
}

} // namespace oscar
