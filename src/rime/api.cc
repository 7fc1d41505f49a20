#include "api.hh"

#include <chrono>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"

namespace rime
{

namespace
{

/** Nanoseconds of host wall time elapsed since `start`. */
double
hostNsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start).count());
}

} // namespace

const char *
rimeStatusName(RimeStatus status)
{
    switch (status) {
      case RimeStatus::Ok:
        return "ok";
      case RimeStatus::Empty:
        return "empty";
      case RimeStatus::VerifyFailed:
        return "verify-failed";
      case RimeStatus::DataLoss:
        return "data-loss";
    }
    return "unknown";
}

RimeLibrary::RimeLibrary(const LibraryConfig &config)
    : deviceConfig_(config.device), device_(config.device),
      driver_(device_.capacityBytes(), config.driver),
      autoPublishStats_(config.autoPublishStats),
      affinityChecks_(config.affinityChecks)
{
    wordBytes_ = device_.wordBits() / 8;
    initCalls_ = apiStats_.counter("initCalls");
    initTicks_ = apiStats_.counter("initTicks");
    initWallNs_ = apiStats_.counter("initWallNs");
    extractCalls_ = apiStats_.counter("extractCalls");
    extractTicks_ = apiStats_.counter("extractTicks");
    extractWallNs_ = apiStats_.counter("extractWallNs");
    bulkStoreCalls_ = apiStats_.counter("bulkStoreCalls");
    bulkStoreValues_ = apiStats_.counter("bulkStoreValues");
    bulkStoreTicks_ = apiStats_.counter("bulkStoreTicks");
    bulkStoreWallNs_ = apiStats_.counter("bulkStoreWallNs");
    // Attach every component's stat group live: the registry always
    // reflects current values, and detaching never copies.
    registry_.attach("api", apiStats_);
    registry_.attach("driver", driver_.stats());
    registry_.attach("device", device_.stats());
    for (unsigned c = 0; c < device_.totalChips(); ++c) {
        registry_.attach("chip." + std::to_string(c),
                         device_.chip(c).stats());
    }
}

RimeLibrary::~RimeLibrary()
{
    if (autoPublishStats_)
        publishStats();
}

void
RimeLibrary::publishStats()
{
    if (published_)
        return;
    published_ = true;
    StatRegistry::process().mergeRegistry(registry_);
}

void
RimeLibrary::checkAffinity(const char *entry) const
{
    if (!affinityChecks_)
        return;
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id bound = boundThread_.load(std::memory_order_acquire);
    if (bound == std::thread::id{}) {
        // First entry binds; on a race the loser falls through to the
        // mismatch check and reports the cross-thread use.
        if (boundThread_.compare_exchange_strong(
                bound, self, std::memory_order_acq_rel)) {
            return;
        }
    }
    if (bound != self) {
        fatal("%s called from a thread other than the one this "
              "RimeLibrary is bound to: a library instance is "
              "single-controller (route concurrent work through "
              "RimeService, or rimeBindThread() after a sequential "
              "hand-off)", entry);
    }
}

void
RimeLibrary::rimeBindThread()
{
    boundThread_.store(std::this_thread::get_id(),
                       std::memory_order_release);
}

std::uint64_t
RimeLibrary::toIndex(Addr addr) const
{
    if (addr % wordBytes_ != 0)
        fatal("address %llu not aligned to the %u-byte word size",
              static_cast<unsigned long long>(addr), wordBytes_);
    return addr / wordBytes_;
}

void
RimeLibrary::refreshRetiredExtents()
{
    for (const auto &[lo, hi] : device_.drainDeadExtents()) {
        driver_.retireExtent(lo * wordBytes_,
                             (hi - lo) * wordBytes_);
    }
}

std::uint64_t
RimeLibrary::peekWord(Addr addr)
{
    return device_.peekValue(toIndex(addr));
}

void
RimeLibrary::pokeWord(Addr addr, std::uint64_t raw)
{
    device_.pokeValue(toIndex(addr), raw);
}

void
RimeLibrary::restoreConfigure(KeyMode mode, unsigned word_bits)
{
    checkAffinity("restoreConfigure");
    if (word_bits % 8 != 0 || word_bits == 0 || word_bits > 64)
        fatal("unsupported word width %u", word_bits);
    if (device_.wordBits() != word_bits || device_.mode() != mode) {
        ops_.clear();
        lastOp_ = nullptr;
        device_.configure(word_bits, mode);
        wordBytes_ = word_bits / 8;
    }
}

std::optional<Addr>
RimeLibrary::rimeMalloc(std::uint64_t bytes)
{
    checkAffinity("rimeMalloc");
    // Learn any freshly dead extents first so the allocation cannot
    // land on mats whose repair capacity is exhausted.
    refreshRetiredExtents();
    return driver_.allocate(bytes);
}

void
RimeLibrary::rimeFree(Addr start)
{
    checkAffinity("rimeFree");
    const std::uint64_t size = driver_.allocationSize(start);
    if (size > 0) {
        // Freed memory retires any operation state on the range.
        dropOverlappingOps(start / wordBytes_,
                           (start + size) / wordBytes_);
    }
    driver_.release(start);
}

void
RimeLibrary::dropOverlappingOps(std::uint64_t begin, std::uint64_t end)
{
    lastOp_ = nullptr;
    for (auto it = ops_.begin(); it != ops_.end();) {
        const std::uint64_t ob = std::get<0>(it->first);
        const std::uint64_t oe = std::get<1>(it->first);
        const bool overlaps = ob < end && begin < oe;
        it = overlaps ? ops_.erase(it) : std::next(it);
    }
}

void
RimeLibrary::rimeInit(Addr start, Addr end, KeyMode mode,
                      unsigned word_bits)
{
    checkAffinity("rimeInit");
    if (word_bits % 8 != 0 || word_bits == 0 || word_bits > 64)
        fatal("unsupported word width %u", word_bits);
    if (device_.wordBits() != word_bits || device_.mode() != mode) {
        // Reconfiguration applies to the whole device: concurrent
        // operations must share the word width and type mode.
        ops_.clear();
        lastOp_ = nullptr;
        device_.configure(word_bits, mode);
        wordBytes_ = word_bits / 8;
    }
    const std::uint64_t begin = toIndex(start);
    const std::uint64_t endIdx = toIndex(end);
    // Discarding buffered values of any prior operation on the range
    // (paper: "extra buffered values are discarded when a new
    // rime_init() is called for the same address range").
    dropOverlappingOps(begin, endIdx);
    TraceSpan span("api", "rimeInit");
    span.arg("start", start);
    span.arg("end", end);
    span.arg("wordBits", word_bits);
    const auto host_start = std::chrono::steady_clock::now();
    const Tick sim_start = now_;
    now_ += device_.initRange(begin, endIdx, now_);
    ++initCalls_;
    initTicks_ += static_cast<double>(now_ - sim_start);
    initWallNs_ += hostNsSince(host_start);
}

RimeOperation &
RimeLibrary::operation(Addr start, Addr end, bool find_max)
{
    const std::uint64_t begin = toIndex(start);
    const std::uint64_t endIdx = toIndex(end);
    const OpKey key{begin, endIdx, find_max};
    if (lastOp_ && lastOpKey_ == key)
        return *lastOp_;
    auto it = ops_.find(key);
    if (it == ops_.end()) {
        it = ops_.emplace(key, std::make_unique<RimeOperation>(
            device_, begin, endIdx, find_max, now_)).first;
    }
    lastOpKey_ = key;
    lastOp_ = it->second.get();
    return *it->second;
}

RimeExtract
RimeLibrary::extractChecked(Addr start, Addr end, bool find_max)
{
    checkAffinity(find_max ? "rimeMax" : "rimeMin");
    TraceSpan span("api", find_max ? "rimeMax" : "rimeMin");
    span.arg("start", start);
    span.arg("end", end);
    const auto host_start = std::chrono::steady_clock::now();
    const Tick sim_start = now_;
    RimeOperation &op = operation(start, end, find_max);
    RimeExtract r;
    auto item = op.next(now_);
    ++extractCalls_;
    extractTicks_ += static_cast<double>(now_ - sim_start);
    extractWallNs_ += hostNsSince(host_start);
    span.arg("ok", item.has_value());
    if (item) {
        // Per-extraction simulated latency: the per-rimeMin number the
        // paper's figures are built from.
        apiStats_.cachedHist(extractLatencyTicks_, "extractLatencyTicks")
            .record(static_cast<double>(now_ - sim_start));
        r.status = RimeStatus::Ok;
        r.item = *item;
        r.item.index *= wordBytes_; // report a byte address
        return r;
    }
    switch (op.status()) {
      case rimehw::ScanStatus::Ok:
        r.status = RimeStatus::Empty;
        break;
      case rimehw::ScanStatus::VerifyFailed:
        r.status = RimeStatus::VerifyFailed;
        break;
      case rimehw::ScanStatus::DataLoss:
        r.status = RimeStatus::DataLoss;
        break;
    }
    return r;
}

RimeExtract
RimeLibrary::rimeMinChecked(Addr start, Addr end)
{
    return extractChecked(start, end, false);
}

RimeExtract
RimeLibrary::rimeMaxChecked(Addr start, Addr end)
{
    return extractChecked(start, end, true);
}

std::optional<RankedItem>
RimeLibrary::rimeMin(Addr start, Addr end)
{
    const RimeExtract r = extractChecked(start, end, false);
    if (r.status == RimeStatus::Empty)
        return std::nullopt;
    if (!r.ok())
        fatal("rime_min on [%llu, %llu) failed: %s",
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(end),
              rimeStatusName(r.status));
    return r.item;
}

std::optional<RankedItem>
RimeLibrary::rimeMax(Addr start, Addr end)
{
    const RimeExtract r = extractChecked(start, end, true);
    if (r.status == RimeStatus::Empty)
        return std::nullopt;
    if (!r.ok())
        fatal("rime_max on [%llu, %llu) failed: %s",
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(end),
              rimeStatusName(r.status));
    return r.item;
}

RimeHealthReport
RimeLibrary::rimeHealth()
{
    checkAffinity("rimeHealth");
    refreshRetiredExtents();
    RimeHealthReport report;
    report.counts = device_.healthCounts();
    report.retiredBytes = driver_.retiredBytes();
    return report;
}

std::uint64_t
RimeLibrary::rimeRemaining(Addr start, Addr end) const
{
    checkAffinity("rimeRemaining");
    // Prefer an existing operation's count (either direction).
    const std::uint64_t begin = toIndex(start);
    const std::uint64_t endIdx = toIndex(end);
    for (const bool dir : {false, true}) {
        auto it = ops_.find(OpKey{begin, endIdx, dir});
        if (it != ops_.end())
            return it->second->remaining();
    }
    return endIdx - begin;
}

void
RimeLibrary::store(Addr addr, std::uint64_t raw)
{
    checkAffinity("store");
    const std::uint64_t index = toIndex(addr);
    device_.writeValue(index, raw);
    // Stores are posted: the host pays only the command/bus cost.
    // The RRAM row write proceeds in the target bank without
    // stalling scans in flight elsewhere on the chip (the DIMM
    // controller's insert-buffer comparators keep buffered
    // candidates coherent with the write, see RimeOperation).
    now_ += nsToTicks(device_.config().resultBurstNs);
    // Buffered candidates covering the stored row may be stale.
    for (auto &kv : ops_) {
        if (std::get<0>(kv.first) <= index &&
            index < std::get<1>(kv.first)) {
            kv.second->onStore(index, raw);
        }
    }
}

std::uint64_t
RimeLibrary::load(Addr addr)
{
    checkAffinity("load");
    now_ += device_.config().timing.tRead;
    return device_.readValue(toIndex(addr));
}

void
RimeLibrary::storeArray(Addr start, std::span<const std::uint64_t> raws)
{
    checkAffinity("storeArray");
    TraceSpan span("api", "storeArray");
    span.arg("start", start);
    span.arg("count", static_cast<std::uint64_t>(raws.size()));
    const auto host_start = std::chrono::steady_clock::now();
    const Tick sim_start = now_;
    const std::uint64_t begin = toIndex(start);
    now_ += device_.loadValues(begin, raws);
    ++bulkStoreCalls_;
    bulkStoreValues_ += static_cast<double>(raws.size());
    bulkStoreTicks_ += static_cast<double>(now_ - sim_start);
    bulkStoreWallNs_ += hostNsSince(host_start);
    for (auto &kv : ops_) {
        if (std::get<0>(kv.first) < begin + raws.size() &&
            begin < std::get<1>(kv.first)) {
            kv.second->onBulkStore();
        }
    }
}

} // namespace rime
