/**
 * @file
 * Model of the RIME kernel driver's physical-memory management
 * (paper section V, "Memory Allocation for RIME").
 *
 * The tree-based index reduction requires every rime_malloc to occupy
 * physically *contiguous* pages.  The driver reserves a configurable
 * number of pages at startup, grows the reservation by a configurable
 * increment when exhausted, allocates first-fit within the reserved
 * region, and returns failure (a null pointer at the API level) when
 * fragmentation leaves no contiguous extent large enough.
 */

#ifndef RIME_RIME_DRIVER_HH
#define RIME_RIME_DRIVER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "common/bitio.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace rime
{

/** Tunable driver parameters (section V). */
struct DriverParams
{
    /** Bytes of one physical page. */
    std::uint64_t pageBytes = 4096;
    /** Pages reserved when the region is mmap'ed. */
    std::uint64_t startupPages = 1024;
    /** Additional pages reserved when the current reservation fills. */
    std::uint64_t growthPages = 1024;
};

/** Contiguous-physical-page allocator for one RIME region. */
class RimeDriver
{
  public:
    /**
     * @param region_bytes capacity of the RIME address region
     * @param params       reservation policy
     */
    RimeDriver(std::uint64_t region_bytes,
               const DriverParams &params = DriverParams{});

    /** Not copyable: allocPages_ points into this driver's stats_. */
    RimeDriver(const RimeDriver &) = delete;
    RimeDriver &operator=(const RimeDriver &) = delete;

    /**
     * Allocate a physically contiguous extent of at least `bytes`
     * bytes (rounded up to pages).  Grows the reservation when needed.
     *
     * @return the byte offset of the extent, or nullopt when no
     *         contiguous space exists (the API returns NULL)
     */
    std::optional<Addr> allocate(std::uint64_t bytes);

    /** Free a previously allocated extent (coalesces neighbours). */
    void release(Addr addr);

    /**
     * Permanently remove a byte extent from the allocatable pool
     * (a chip reported the backing mats dead).  Rounded outward to
     * page granularity.  Live allocations overlapping the extent are
     * unaffected -- the owner keeps its (possibly degraded) memory --
     * but once released, the retired pages never re-enter the free
     * list, so future rimeMalloc calls avoid the dead mats.
     */
    void retireExtent(Addr addr, std::uint64_t bytes);

    /** Bytes permanently retired from the pool. */
    std::uint64_t retiredBytes() const { return retiredBytes_; }

    /** Bytes currently reserved from the region. */
    std::uint64_t reservedBytes() const { return reservedBytes_; }
    /** Bytes currently handed out to allocations. */
    std::uint64_t allocatedBytes() const { return allocatedBytes_; }
    /** Size of the largest free contiguous extent (reservable space
     *  included). */
    std::uint64_t largestFreeExtent() const;
    /** Number of live allocations. */
    std::size_t liveAllocations() const { return allocations_.size(); }
    std::uint64_t regionBytes() const { return regionBytes_; }

    /** Size in bytes of the allocation at addr (0 if unknown). */
    std::uint64_t allocationSize(Addr addr) const;

    /** Allocator counters and extent-size distributions. */
    const StatGroup &stats() const { return stats_; }
    StatGroup &stats() { return stats_; }

    /**
     * Serialize the exact allocator state -- reservation counters,
     * free list, live allocations, retired extents, and the
     * double-free diagnostic set -- for a service snapshot.  Stats
     * are not included (snapshot recovery documents stat reset).
     */
    void dumpState(BitWriter &out) const;

    /**
     * Replace the allocator state with a dump.  Returns false (state
     * untouched) when the reader errors or the dump's region size
     * does not match this driver's.
     */
    bool restoreState(BitReader &in);

  private:
    void grow(std::uint64_t min_bytes);
    /** Insert a free extent, skipping the retired holes inside it. */
    void insertFree(Addr addr, std::uint64_t bytes);
    /** Insert + coalesce, no retirement filtering. */
    void insertFreeRaw(Addr addr, std::uint64_t bytes);
    /** Largest piece of [begin, end) not covered by retired spans. */
    std::uint64_t largestUsableRun(Addr begin, Addr end) const;

    std::uint64_t regionBytes_;
    DriverParams params_;
    std::uint64_t reservedBytes_ = 0;
    std::uint64_t allocatedBytes_ = 0;
    std::uint64_t retiredBytes_ = 0;
    /** Free extents within the reservation: offset -> size. */
    std::map<Addr, std::uint64_t> freeList_;
    /** Live allocations: offset -> size. */
    std::map<Addr, std::uint64_t> allocations_;
    /** Retired (dead) extents: offset -> size, coalesced. */
    std::map<Addr, std::uint64_t> retired_;
    /** Released start addresses (double-free diagnostics). */
    std::set<Addr> freed_;

    StatGroup stats_{"driver"};
    /** Allocation-size histogram, resolved on the first allocation. */
    StatHistogram *allocPages_ = nullptr;
};

} // namespace rime

#endif // RIME_RIME_DRIVER_HH
