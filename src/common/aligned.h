/**
 * @file
 * Cache-line-aligned storage for hot numeric arrays.
 *
 * The SIMD kernel layer (quantum/kernels.h) streams amplitude arrays
 * with 256-bit loads; when the base pointer is 64-byte aligned, no
 * vector load ever splits a cache line and the hardware prefetcher
 * sees clean sequential lines. `std::vector`'s default allocator only
 * guarantees alignof(std::max_align_t) (16 on x86-64), so the dense
 * simulators store their amplitudes in an AlignedVector instead.
 *
 * The allocator is a drop-in standard allocator (C++17 aligned
 * operator new); AlignedVector<T> behaves exactly like std::vector<T>
 * except for the stronger base-pointer alignment, and vectors of the
 * same element type and alignment are assignable / swappable as usual.
 * Blocks of kMappedBytes or more get their own anonymous page mapping
 * and go back to the OS when freed. From malloc, the 8 MiB states that
 * engine replicas allocate on worker threads stayed in glibc's
 * per-thread arenas once freed, and the resident set grew with every
 * batch (the 20-qubit p1_exec benchmark peaked at 380 MB, not 46 MB).
 *
 * PageArray is the storage for large, sparsely used tables: an array
 * in its own anonymous page mapping whose pages become resident only
 * when first written.
 */

#ifndef OSCAR_COMMON_ALIGNED_H
#define OSCAR_COMMON_ALIGNED_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>

namespace oscar {

/** AlignedAllocator blocks this large are page mappings of their own. */
inline constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

/** Minimal standard allocator with a fixed over-alignment. */
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator
{
    static_assert((Alignment & (Alignment - 1)) == 0,
                  "Alignment must be a power of two");
    static_assert(Alignment <= 4096, "page mappings are 4 KiB aligned");
    static_assert(Alignment >= alignof(T),
                  "Alignment must not weaken the natural alignment");

    using value_type = T;

    AlignedAllocator() = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Alignment>;
    };

    T*
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kMappedBytes)
            return static_cast<T*>(
                ::operator new(bytes, std::align_val_t{Alignment}));
        void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T*>(p);
    }

    void
    deallocate(T* p, std::size_t n) noexcept
    {
        if (n * sizeof(T) < kMappedBytes)
            ::operator delete(p, std::align_val_t{Alignment});
        else
            ::munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, Alignment>&) const noexcept
    {
        return true;
    }

    template <typename U>
    bool
    operator!=(const AlignedAllocator<U, Alignment>&) const noexcept
    {
        return false;
    }
};

/** std::vector whose data() is 64-byte (cache-line) aligned. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/**
 * Fixed-size array in its own anonymous page mapping. Every element
 * starts as all-zero bytes and is never constructed, so T must be a
 * trivial type whose zero bytes are its empty state. Pages become
 * resident only when first written and go back to the OS when the
 * array is destroyed. A std::vector would zero-fill every page up
 * front, and freeing a block that large raises glibc's mmap
 * threshold, after which later large blocks stay resident in malloc's
 * arenas once freed.
 */
template <typename T>
class PageArray
{
    static_assert(std::is_trivially_default_constructible_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "PageArray elements start as zero bytes, unconstructed");

  public:
    PageArray() = default;

    explicit PageArray(std::size_t n)
    {
        if (n == 0)
            return;
        void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T*>(p);
        size_ = n;
    }

    PageArray(PageArray&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    PageArray&
    operator=(PageArray&& other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ~PageArray() { release(); }

    T* data() { return data_; }
    std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return data_[i]; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }

  private:
    void
    release() noexcept
    {
        if (data_ != nullptr)
            ::munmap(data_, size_ * sizeof(T));
        data_ = nullptr;
        size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace oscar

#endif // OSCAR_COMMON_ALIGNED_H
