/**
 * @file
 * Simulation-speed bench: how many simulated events per second the
 * simulator sustains, fast path vs the pre-PR reference path, in one
 * process.
 *
 * Three representative streams are replayed twice each:
 *
 *  - "heap": the traced binary heap under priority-queue churn (the
 *    fig18 baseline sample loop).
 *  - "sort": the instrumented mergesort address stream (the fig15
 *    baseline profile loop).
 *  - "scan": bit-level RIME extraction (the sort kernel itself),
 *    scalar kernels vs the dispatched SIMD kernels (kernels.hh).
 *
 * Each reference pipeline is constructed explicitly (slow-mode
 * Hierarchy + per-access virtual delivery; kernels forced scalar via
 * kernels::setMode) rather than via RIME_SLOW_SIM / RIME_SIMD, so
 * both paths run in a single process and their counters can be
 * diffed directly; any mismatch -- cache/memory counters for the
 * baseline streams, extracted sequences and chip stat counters for
 * the scan stream -- is a correctness failure and exits nonzero.
 * Results go to stdout and to BENCH_simspeed.json (override with
 * RIME_SIMSPEED_JSON).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench/bench_util.hh"
#include "cachesim/hierarchy.hh"
#include "rimehw/chip.hh"
#include "rimehw/kernels.hh"
#include "sort/sorters.hh"
#include "workloads/traced_heap.hh"

using namespace rime;
using namespace rime::bench;
using namespace rime::cachesim;

namespace
{

/**
 * The pre-PR delivery path: one virtual AccessSink::access call per
 * simulated access.  Deliberately does not override drain(), so
 * batches produced inside library code (runSort) degrade to the
 * per-record virtual loop of the AccessSink base class.
 */
class UnbatchedCacheSink : public sort::AccessSink
{
  public:
    explicit UnbatchedCacheSink(Hierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    void
    access(unsigned core, Addr addr, AccessType type) override
    {
        hierarchy_.access(core % hierarchy_.numCores(), addr, type);
    }

  private:
    Hierarchy &hierarchy_;
};

/** One pipeline's measurement. */
struct PipelineRun
{
    double seconds = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    /** Scan stream only: hash of the extracted (raw, index) pairs. */
    std::uint64_t checksum = 0;
    /** Scan stream only: sum of the deterministic chip counters. */
    std::uint64_t statEvents = 0;

    double
    accessesPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(accesses) / seconds
                             : 0.0;
    }
};

/** Fast and reference runs agree on every deterministic counter. */
bool
countersMatch(const PipelineRun &slow, const PipelineRun &fast)
{
    return slow.accesses == fast.accesses &&
        slow.memReads == fast.memReads &&
        slow.memWrites == fast.memWrites &&
        slow.checksum == fast.checksum &&
        slow.statEvents == fast.statEvents;
}

std::uint64_t
hierarchyAccesses(Hierarchy &h)
{
    const auto &v = h.stats().values();
    return static_cast<std::uint64_t>(v.at("loads") + v.at("stores"));
}

/** Replay the priority-queue churn through one pipeline. */
PipelineRun
runHeapStream(bool slow, std::uint64_t initial, std::uint64_t churn)
{
    // Same sizing as the fig18 baseline sample: one core, default
    // Table-I L1/L2.
    Hierarchy h(1, CacheConfig::l1d(), CacheConfig::l2(), slow);
    sort::CacheSink sink(h);
    const auto keys = randomRaws(initial + churn, 4242);

    const auto t0 = std::chrono::steady_clock::now();
    {
        // Fast path: all heap accesses go through one shared batch.
        // Reference path: straight into the sink, one virtual call
        // per access (the pre-PR pipeline).
        sort::AccessBatch batch(sink, /*bypass=*/slow);
        workloads::TracedHeap heap(batch, /*base=*/0);
        std::uint64_t next = 0;
        for (std::uint64_t i = 0; i < initial; ++i)
            heap.push(keys[next++]);
        for (std::uint64_t i = 0; i < churn; ++i) {
            heap.push(keys[next++]);
            heap.pop();
        }
        // Batch flushes on scope exit, inside the timed region.
    }
    const auto t1 = std::chrono::steady_clock::now();

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = hierarchyAccesses(h);
    run.memReads = h.memReads();
    run.memWrites = h.memWrites();
    return run;
}

/** Replay the mergesort address stream through one pipeline. */
PipelineRun
runSortStream(bool slow, std::uint64_t n)
{
    Hierarchy h(1, CacheConfig::l1d(), CacheConfig::l2(), slow);
    sort::CacheSink fast_sink(h);
    UnbatchedCacheSink slow_sink(h);
    sort::AccessSink &sink =
        slow ? static_cast<sort::AccessSink &>(slow_sink)
             : static_cast<sort::AccessSink &>(fast_sink);

    const auto raws = randomRaws(n, 7171);
    sort::Keys keys(raws.begin(), raws.end());

    const auto t0 = std::chrono::steady_clock::now();
    runSort(sort::Algorithm::Mergesort, keys, /*base=*/0, sink);
    const auto t1 = std::chrono::steady_clock::now();

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = hierarchyAccesses(h);
    run.memReads = h.memReads();
    run.memWrites = h.memWrites();
    return run;
}

/**
 * Replay bit-level RIME extractions with the kernel layer forced
 * scalar (the reference path) or SIMD.  Extracted values and the
 * deterministic chip stat counters are folded into the run so the
 * caller can diff the two paths exactly.
 */
PipelineRun
runScanStream(bool scalar, std::uint64_t n, std::uint64_t extractions)
{
    namespace kernels = rimehw::kernels;
    kernels::setMode(scalar ? kernels::Mode::Scalar
                            : kernels::Mode::Simd);
    rimehw::RimeChip chip;
    chip.configure(32, KeyMode::UnsignedFixed);
    const auto raws = randomRaws(n, 1313);
    for (std::uint64_t i = 0; i < n; ++i)
        chip.writeValue(i, raws[i]);
    chip.initRange(0, n);

    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < extractions; ++i) {
        const auto r = chip.extract(0, n, false);
        if (!r.found)
            fatal("scan stream exhausted the range early");
        checksum = (checksum ^ r.raw) * 0x100000001B3ULL;
        checksum = (checksum ^ r.index) * 0x100000001B3ULL;
    }
    const auto t1 = std::chrono::steady_clock::now();
    kernels::setMode(kernels::envMode());

    PipelineRun run;
    run.seconds = std::chrono::duration<double>(t1 - t0).count();
    run.accesses = extractions;
    run.checksum = checksum;
    const auto &stats = chip.stats();
    run.statEvents = static_cast<std::uint64_t>(
        stats.get("columnSearches") + stats.get("scanSteps") +
        stats.get("extractions") + stats.get("rowReads") +
        stats.get("exclusions"));
    return run;
}

/** Both pipelines over one stream, with the equivalence diff. */
struct StreamResult
{
    const char *name = "";
    PipelineRun slow;
    PipelineRun fast;
    bool match = false;

    double
    speedup() const
    {
        return slow.seconds > 0.0 && fast.seconds > 0.0
            ? fast.accessesPerSec() / slow.accessesPerSec()
            : 0.0;
    }
};

void
printStream(const StreamResult &r)
{
    std::printf("%-5s %12llu accesses | slow %8.3f s (%9.3f Maps) | "
                "fast %8.3f s (%9.3f Maps) | speedup %5.2fx | "
                "counters %s\n",
                r.name,
                static_cast<unsigned long long>(r.slow.accesses),
                r.slow.seconds, r.slow.accessesPerSec() / 1e6,
                r.fast.seconds, r.fast.accessesPerSec() / 1e6,
                r.speedup(), r.match ? "match" : "MISMATCH");
}

void
writeJson(const std::vector<StreamResult> &streams)
{
    const std::string path = envString("RIME_SIMSPEED_JSON")
        .value_or("BENCH_simspeed.json");
    BenchJson json("simspeed");
    for (const auto &r : streams) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\n"
            "    \"accesses\": %llu,\n"
            "    \"slow_seconds\": %.6f,\n"
            "    \"fast_seconds\": %.6f,\n"
            "    \"slow_accesses_per_sec\": %.1f,\n"
            "    \"fast_accesses_per_sec\": %.1f,\n"
            "    \"speedup\": %.3f,\n"
            "    \"counters_match\": %s\n"
            "  }",
            static_cast<unsigned long long>(r.fast.accesses),
            r.slow.seconds, r.fast.seconds,
            r.slow.accessesPerSec(), r.fast.accessesPerSec(),
            r.speedup(), r.match ? "true" : "false");
        json.raw(r.name, buf);
    }
    json.write(path);
}

} // namespace

int
main()
{
    setVerbose(false);
    std::printf("=== Simulation throughput: fast path vs reference "
                "(simulated accesses/second) ===\n");

    std::vector<StreamResult> streams;

    {
        StreamResult r;
        r.name = "heap";
        const std::uint64_t initial = scaledCap(1 << 17);
        const std::uint64_t churn = scaledCap(1 << 21);
        r.slow = runHeapStream(true, initial, churn);
        r.fast = runHeapStream(false, initial, churn);
        r.match = countersMatch(r.slow, r.fast);
        printStream(r);
        streams.push_back(r);
    }

    {
        StreamResult r;
        r.name = "sort";
        const std::uint64_t n = scaledCap(1 << 21);
        r.slow = runSortStream(true, n);
        r.fast = runSortStream(false, n);
        r.match = countersMatch(r.slow, r.fast);
        printStream(r);
        streams.push_back(r);
    }

    {
        StreamResult r;
        r.name = "scan";
        const std::uint64_t n = scaledCap(1 << 17);
        const std::uint64_t extractions =
            std::min(n, std::max<std::uint64_t>(256, n >> 6));
        r.slow = runScanStream(true, n, extractions);
        r.fast = runScanStream(false, n, extractions);
        r.match = countersMatch(r.slow, r.fast);
        printStream(r);
        streams.push_back(r);
    }

    writeJson(streams);

    for (const auto &r : streams) {
        if (!r.match) {
            std::fprintf(stderr,
                         "FAIL: %s stream counters diverge between "
                         "fast and reference pipelines\n", r.name);
            return 1;
        }
    }
    return 0;
}
