#include "driver.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace rime
{

RimeDriver::RimeDriver(std::uint64_t region_bytes,
                       const DriverParams &params)
    : regionBytes_(region_bytes), params_(params)
{
    if (!isPowerOf2(params.pageBytes))
        fatal("driver page size must be a power of two");
    const std::uint64_t startup = std::min(
        regionBytes_, params_.startupPages * params_.pageBytes);
    if (startup > 0) {
        reservedBytes_ = startup;
        freeList_[0] = startup;
    }
}

void
RimeDriver::grow(std::uint64_t min_bytes)
{
    while (reservedBytes_ < regionBytes_) {
        const std::uint64_t grow_bytes = std::min(
            std::max(params_.growthPages * params_.pageBytes,
                     min_bytes),
            regionBytes_ - reservedBytes_);
        const Addr start = reservedBytes_;
        reservedBytes_ += grow_bytes;
        insertFree(start, grow_bytes);
        // The freshly reserved space extends the trailing free extent;
        // stop once a single extent is big enough.
        if (largestFreeExtent() >= min_bytes)
            return;
    }
}

void
RimeDriver::insertFreeRaw(Addr addr, std::uint64_t bytes)
{
    // Coalesce with the predecessor / successor extents.
    auto next = freeList_.lower_bound(addr);
    if (next != freeList_.begin()) {
        auto prev = std::prev(next);
        if (prev->first + prev->second == addr) {
            addr = prev->first;
            bytes += prev->second;
            freeList_.erase(prev);
        }
    }
    if (next != freeList_.end() && addr + bytes == next->first) {
        bytes += next->second;
        freeList_.erase(next);
    }
    freeList_[addr] = bytes;
}

void
RimeDriver::insertFree(Addr addr, std::uint64_t bytes)
{
    // Retired spans never re-enter the free list: insert only the
    // usable gaps around them.
    Addr cur = addr;
    const Addr end = addr + bytes;
    auto it = retired_.upper_bound(cur);
    if (it != retired_.begin())
        it = std::prev(it);
    for (; it != retired_.end() && it->first < end; ++it) {
        const Addr rb = it->first;
        const Addr re = it->first + it->second;
        if (re <= cur)
            continue;
        if (rb > cur)
            insertFreeRaw(cur, rb - cur);
        cur = std::max(cur, re);
        if (cur >= end)
            return;
    }
    if (cur < end)
        insertFreeRaw(cur, end - cur);
}

void
RimeDriver::retireExtent(Addr addr, std::uint64_t bytes)
{
    if (bytes == 0 || addr >= regionBytes_)
        return;
    // Page-align outward: the allocator hands out whole pages.
    Addr begin = (addr / params_.pageBytes) * params_.pageBytes;
    Addr end = roundUp(addr + bytes, params_.pageBytes);
    end = std::min<Addr>(end, regionBytes_);
    // Merge into the retired map (coalescing overlapping spans).
    auto it = retired_.upper_bound(begin);
    if (it != retired_.begin())
        it = std::prev(it);
    while (it != retired_.end() && it->first <= end) {
        const Addr rb = it->first;
        const Addr re = it->first + it->second;
        if (re < begin) {
            ++it;
            continue;
        }
        begin = std::min(begin, rb);
        end = std::max(end, re);
        retiredBytes_ -= it->second;
        it = retired_.erase(it);
    }
    retired_[begin] = end - begin;
    retiredBytes_ += end - begin;
    stats_.inc("retireCalls");
    stats_.inc("retiredPages",
               static_cast<double>((end - begin) / params_.pageBytes));
    if (Tracer::global().enabled()) {
        Tracer::global().instant(
            "driver", "retireExtent",
            traceArgs({{"addr", begin}, {"bytes", end - begin}}));
    }

    // Carve the retired span out of the current free extents.
    auto fit = freeList_.upper_bound(begin);
    if (fit != freeList_.begin())
        fit = std::prev(fit);
    while (fit != freeList_.end() && fit->first < end) {
        const Addr fb = fit->first;
        const Addr fe = fit->first + fit->second;
        if (fe <= begin) {
            ++fit;
            continue;
        }
        fit = freeList_.erase(fit);
        if (fb < begin)
            freeList_[fb] = begin - fb;
        if (fe > end)
            freeList_[end] = fe - end;
    }
}

std::optional<Addr>
RimeDriver::allocate(std::uint64_t bytes)
{
    TraceSpan span("driver", "alloc");
    span.arg("bytes", bytes);
    stats_.inc("allocCalls");
    if (bytes == 0) {
        stats_.inc("allocFailures");
        return std::nullopt;
    }
    const std::uint64_t size = roundUp(bytes, params_.pageBytes);

    auto find_fit = [this, size]() {
        for (auto it = freeList_.begin(); it != freeList_.end(); ++it)
            if (it->second >= size)
                return it;
        return freeList_.end();
    };

    auto it = find_fit();
    if (it == freeList_.end()) {
        stats_.inc("allocGrowths");
        grow(size);
        it = find_fit();
        if (it == freeList_.end()) {
            // Fragmentation: the API returns NULL.
            stats_.inc("allocFailures");
            span.arg("failed", true);
            return std::nullopt;
        }
    }

    const Addr addr = it->first;
    const std::uint64_t extent = it->second;
    freeList_.erase(it);
    if (extent > size)
        freeList_[addr + size] = extent - size;
    allocations_[addr] = size;
    allocatedBytes_ += size;
    freed_.erase(addr);
    stats_.cachedHist(allocPages_, "allocPages").record(
        static_cast<double>(size / params_.pageBytes));
    span.arg("addr", addr);
    span.arg("pages", size / params_.pageBytes);
    return addr;
}

void
RimeDriver::release(Addr addr)
{
    auto it = allocations_.find(addr);
    if (it == allocations_.end()) {
        if (freed_.count(addr))
            fatal("rime_free: double free of address %llu",
                  static_cast<unsigned long long>(addr));
        fatal("rime_free of address %llu, which is not the start of "
              "any live allocation",
              static_cast<unsigned long long>(addr));
    }
    allocatedBytes_ -= it->second;
    stats_.inc("releases");
    if (Tracer::global().enabled()) {
        Tracer::global().instant(
            "driver", "free",
            traceArgs({{"addr", addr}, {"bytes", it->second}}));
    }
    insertFree(it->first, it->second);
    allocations_.erase(it);
    freed_.insert(addr);
}

std::uint64_t
RimeDriver::largestUsableRun(Addr begin, Addr end) const
{
    // Longest sub-span of [begin, end) free of retired holes.
    std::uint64_t best = 0;
    Addr cur = begin;
    auto it = retired_.upper_bound(begin);
    if (it != retired_.begin())
        it = std::prev(it);
    for (; it != retired_.end() && it->first < end; ++it) {
        const Addr rb = it->first;
        const Addr re = it->first + it->second;
        if (re <= cur)
            continue;
        if (rb > cur)
            best = std::max<std::uint64_t>(best, rb - cur);
        cur = std::max(cur, re);
        if (cur >= end)
            return best;
    }
    if (cur < end)
        best = std::max<std::uint64_t>(best, end - cur);
    return best;
}

std::uint64_t
RimeDriver::largestFreeExtent() const
{
    std::uint64_t best = 0;
    for (const auto &kv : freeList_)
        best = std::max(best, kv.second);
    // Unreserved tail space is contiguous with a trailing free extent,
    // minus any retired holes inside it.
    Addr tail_start = reservedBytes_;
    if (!freeList_.empty()) {
        const auto &last = *freeList_.rbegin();
        if (last.first + last.second == reservedBytes_)
            tail_start = last.first;
    }
    return std::max(best, largestUsableRun(tail_start, regionBytes_));
}

std::uint64_t
RimeDriver::allocationSize(Addr addr) const
{
    auto it = allocations_.find(addr);
    return it == allocations_.end() ? 0 : it->second;
}

namespace
{

void
dumpExtentMap(BitWriter &out,
              const std::map<Addr, std::uint64_t> &extents)
{
    out.putVarint(extents.size());
    for (const auto &[addr, size] : extents) {
        out.putVarint(addr);
        out.putVarint(size);
    }
}

bool
restoreExtentMap(BitReader &in, std::map<Addr, std::uint64_t> &extents)
{
    extents.clear();
    const std::uint64_t n = in.getVarint();
    for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
        const Addr addr = in.getVarint();
        extents[addr] = in.getVarint();
    }
    return in.ok();
}

} // namespace

void
RimeDriver::dumpState(BitWriter &out) const
{
    out.putVarint(regionBytes_);
    out.putVarint(reservedBytes_);
    out.putVarint(allocatedBytes_);
    out.putVarint(retiredBytes_);
    dumpExtentMap(out, freeList_);
    dumpExtentMap(out, allocations_);
    dumpExtentMap(out, retired_);
    out.putVarint(freed_.size());
    for (Addr addr : freed_)
        out.putVarint(addr);
}

bool
RimeDriver::restoreState(BitReader &in)
{
    const std::uint64_t region = in.getVarint();
    if (!in.ok() || region != regionBytes_)
        return false;
    RimeDriver fresh(regionBytes_, params_);
    fresh.reservedBytes_ = in.getVarint();
    fresh.allocatedBytes_ = in.getVarint();
    fresh.retiredBytes_ = in.getVarint();
    if (!restoreExtentMap(in, fresh.freeList_) ||
        !restoreExtentMap(in, fresh.allocations_) ||
        !restoreExtentMap(in, fresh.retired_))
        return false;
    fresh.freed_.clear();
    const std::uint64_t n_freed = in.getVarint();
    for (std::uint64_t i = 0; i < n_freed && in.ok(); ++i)
        fresh.freed_.insert(in.getVarint());
    if (!in.ok())
        return false;
    reservedBytes_ = fresh.reservedBytes_;
    allocatedBytes_ = fresh.allocatedBytes_;
    retiredBytes_ = fresh.retiredBytes_;
    freeList_ = std::move(fresh.freeList_);
    allocations_ = std::move(fresh.allocations_);
    retired_ = std::move(fresh.retired_);
    freed_ = std::move(fresh.freed_);
    return true;
}

} // namespace rime
