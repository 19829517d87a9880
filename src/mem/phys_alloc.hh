/**
 * @file
 * Simulated physical memory allocation.
 *
 * The models need distinct, stable physical addresses for descriptor
 * rings, DMA buffers, and application working sets. PhysAllocator is a
 * bump allocator over the simulated physical address space with an
 * "Invalidatable" page attribute, modelling the kernel-allocated buffers
 * required by the self-invalidating-I/O-buffer instruction (Sec. V-D of
 * the paper: a PTE bit marks pages whose lines may be dropped without
 * writeback).
 */

#ifndef IDIO_MEM_PHYS_ALLOC_HH
#define IDIO_MEM_PHYS_ALLOC_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace mem
{

/** 4 KiB pages, as in the paper's PTE-bit scheme. */
constexpr std::uint64_t pageSize = 4096;

/** Align an address down to its page base. */
constexpr sim::Addr
pageAlign(sim::Addr a)
{
    return a & ~sim::Addr(pageSize - 1);
}

/**
 * Bump allocator with page attributes for one simulated system.
 */
class PhysAllocator
{
  public:
    /**
     * @param base First allocatable address (default leaves the low
     *        16 MiB for "firmware/MMIO" so address 0 is never handed
     *        out).
     * @param size Size of the allocatable region in bytes.
     */
    explicit PhysAllocator(sim::Addr base = 16ull << 20,
                           std::uint64_t size = 4ull << 30)
        : base(base), limit(base + size), next(base)
    {
    }

    /**
     * Allocate @p bytes aligned to @p align (power of two, >= 64).
     * fatal()s when the simulated memory is exhausted.
     */
    sim::Addr
    allocate(std::uint64_t bytes, std::uint64_t align = lineSize)
    {
        sim::Addr a = (next + align - 1) & ~(align - 1);
        if (a + bytes > limit)
            sim::fatal("simulated physical memory exhausted");
        next = a + bytes;
        return a;
    }

    /**
     * Allocate an Invalidatable buffer: page aligned, with every
     * covered page marked invalidatable. Models the kernel API that
     * flushes and tags pages before handing them to userspace.
     */
    sim::Addr
    allocateInvalidatable(std::uint64_t bytes)
    {
        const std::uint64_t span = (bytes + pageSize - 1) & ~(pageSize - 1);
        const sim::Addr a = allocate(span, pageSize);
        if (span == 0)
            return a;
        // The bump pointer only grows, so the ranges stay sorted; one
        // that starts where the last ends extends it.
        if (!invalidatable.empty() && invalidatable.back().end == a)
            invalidatable.back().end = a + span;
        else
            invalidatable.push_back({a, a + span});
        return a;
    }

    /**
     * True when the page containing @p a is marked invalidatable: a
     * binary search of the marked ranges, which cover whole pages.
     */
    bool
    isInvalidatable(sim::Addr a) const
    {
        auto it = std::upper_bound(
            invalidatable.begin(), invalidatable.end(), a,
            [](sim::Addr x, const PageRange &r) { return x < r.begin; });
        return it != invalidatable.begin() && a < std::prev(it)->end;
    }

    /** Bytes allocated so far. */
    std::uint64_t allocatedBytes() const { return next - base; }

  private:
    sim::Addr base;
    sim::Addr limit;
    sim::Addr next;

    /** Invalidatable pages [begin, end), page aligned. */
    struct PageRange
    {
        sim::Addr begin;
        sim::Addr end;
    };
    std::vector<PageRange> invalidatable; ///< sorted, disjoint
};

} // namespace mem

#endif // IDIO_MEM_PHYS_ALLOC_HH
