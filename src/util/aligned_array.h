/**
 * @file
 * Cache-line-aligned array.
 *
 * PB's coalescing buffers must be cacheline-sized and cacheline-aligned —
 * a buffer straddling two lines would defeat the bulk-transfer trick and
 * would distort the cache model. std::vector gives no alignment
 * guarantee beyond alignof(T), so this wrapper over-aligns its storage.
 *
 * Both allocators here are also the PB runtime's memory-budget choke
 * point: every bin layout, staging buffer, and coarse run goes through
 * them, so charging the active MemoryBudget (src/resilience/
 * memory_budget.h) right before each allocation turns an over-budget
 * plan into a recoverable kResourceExhausted instead of an OOM. With no
 * budget installed the hook is one null check per allocation.
 *
 * Blocks of kMapBytes or more are mapped from the kernel directly and
 * unmapped on release (allocateAligned below), so a PB run's bin
 * layouts never enter the malloc heap.
 */

#ifndef COBRA_UTIL_ALIGNED_ARRAY_H
#define COBRA_UTIL_ALIGNED_ARRAY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include <sys/mman.h>

#include "src/resilience/memory_budget.h"
#include "src/util/error.h"

namespace cobra {

/**
 * Blocks at least this large are mmap'd rather than malloc'd. Through
 * malloc, freeing a block over glibc's mmap threshold (128 KiB at
 * first) raises the threshold to its size, so later blocks of that size
 * come from the brk heap instead, where the small allocations made
 * between two PB runs fragment it. A server's heap then grows by as much
 * as the order of its pool threads' allocations dictates: run_large's
 * peak RSS ranged over 158-276 MiB from one run to the next, and
 * 149-151 MiB with its 8.5 MiB bin layouts mapped. Smaller blocks stay
 * in malloc, whose reuse across short runs is cheaper than a fresh map.
 * ASan builds keep every block in the heap, where its redzones are.
 */
#if defined(__SANITIZE_ADDRESS__)
inline constexpr size_t kMapBytes = SIZE_MAX;
#else
inline constexpr size_t kMapBytes = size_t{1} << 20;
#endif

/** mmap's alignment on every Linux page size. */
inline constexpr size_t kMapAlign = 4096;

/** @p bytes of storage aligned to @p align (operator new semantics). */
inline void *
allocateAligned(size_t bytes, size_t align)
{
    if (bytes < kMapBytes || align > kMapAlign)
        return ::operator new(bytes, std::align_val_t{align});
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

/** Free what allocateAligned(@p bytes, @p align) returned. */
inline void
freeAligned(void *p, size_t bytes, size_t align)
{
    if (bytes < kMapBytes || align > kMapAlign)
        ::operator delete(p, std::align_val_t{align});
    else
        ::munmap(p, bytes);
}

/** Fixed-size array of trivially-destructible T, aligned to @p Align. */
template <typename T, size_t Align = 64>
class AlignedArray
{
    // The native PB engines drain C-Buffers with aligned non-temporal
    // bursts (_mm_stream_si128 over full 64B lines), so anything below
    // cacheline alignment is a silent correctness/perf trap.
    static_assert(Align >= 64 && (Align & (Align - 1)) == 0,
                  "AlignedArray alignment must be a power of two >= the "
                  "64B cache line");
    static_assert(Align % alignof(T) == 0,
                  "alignment must satisfy the element type");

  public:
    AlignedArray() = default;

    explicit AlignedArray(size_t n) : size_(n)
    {
        if (n) {
            budget_ = chargeActiveBudget(n * sizeof(T));
            data_ = static_cast<T *>(allocateAligned(n * sizeof(T), Align));
            for (size_t i = 0; i < n; ++i)
                new (data_ + i) T{};
        }
    }

    ~AlignedArray() { release(); }

    AlignedArray(const AlignedArray &) = delete;
    AlignedArray &operator=(const AlignedArray &) = delete;

    AlignedArray(AlignedArray &&o) noexcept
        : data_(o.data_), size_(o.size_), budget_(o.budget_)
    {
        o.data_ = nullptr;
        o.size_ = 0;
        o.budget_ = nullptr;
    }

    AlignedArray &
    operator=(AlignedArray &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = o.data_;
            size_ = o.size_;
            budget_ = o.budget_;
            o.data_ = nullptr;
            o.size_ = 0;
            o.budget_ = nullptr;
        }
        return *this;
    }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    size_t size() const { return size_; }

  private:
    void
    release()
    {
        if (data_) {
            for (size_t i = 0; i < size_; ++i)
                data_[i].~T();
            freeAligned(data_, size_ * sizeof(T), Align);
            // Credit the budget that was charged at allocation time
            // (which must outlive the allocation; see memory_budget.h).
            if (budget_) [[unlikely]]
                budget_->release(size_ * sizeof(T));
        }
    }

    T *data_ = nullptr;
    size_t size_ = 0;
    MemoryBudget *budget_ = nullptr; ///< charged at construction, if any
};

/** Deleter matching alignedAlloc (freeing needs the size and alignment). */
struct AlignedDeleter
{
    size_t align = 64;
    MemoryBudget *budget = nullptr; ///< budget charged for this block
    uint64_t bytes = 0;             ///< block size and charge to return

    void
    operator()(void *p) const
    {
        freeAligned(p, bytes, align);
        if (budget) [[unlikely]]
            budget->release(bytes);
    }
};

/** Owning pointer to an alignedAlloc'd buffer of T. */
template <typename T>
using AlignedBuffer = std::unique_ptr<T[], AlignedDeleter>;

/**
 * Raw @p Align-aligned storage for @p n elements of trivial T —
 * *uninitialized*, unlike AlignedArray, which value-initializes. This is
 * the allocator for write-combining staging buffers: they are written
 * before they are read by construction, and zero-filling hundreds of KB
 * of per-thread staging lines on every run would be pure overhead.
 */
template <typename T>
AlignedBuffer<T>
alignedAlloc(size_t n, size_t align = 64)
{
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_copyable_v<T>,
                  "alignedAlloc is for raw staging storage only");
    COBRA_FATAL_IF(align < 64 || (align & (align - 1)) != 0 ||
                       align % alignof(T) != 0,
                   "alignedAlloc needs a power-of-two alignment >= 64 "
                   "compatible with the element type");
    if (n == 0)
        return AlignedBuffer<T>(nullptr, AlignedDeleter{align});
    MemoryBudget *budget = chargeActiveBudget(n * sizeof(T));
    T *p = static_cast<T *>(allocateAligned(n * sizeof(T), align));
    return AlignedBuffer<T>(p, AlignedDeleter{align, budget,
                                              n * sizeof(T)});
}

} // namespace cobra

#endif // COBRA_UTIL_ALIGNED_ARRAY_H
