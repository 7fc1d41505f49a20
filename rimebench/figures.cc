/**
 * @file
 * Workload `figures`: regenerates a fixed slice of Figure 15 (sampled
 * CPU sorts traced through cachesim and priced on the memsim-probed
 * DDR4/HBM baselines, plus rimeSort on FastRime) and Figure 18 (the
 * traced-heap priority queue, its baseline pricing and the RIME side)
 * at a fixed scale, over and over for the measured seconds.
 *
 * One op is one figure point.  Every round builds a fresh perf model,
 * so the memsim bandwidth probes are paid each round as each figure
 * bench process pays them.  The slice is deterministic for a seed:
 * every round must reproduce the first round's digest of simulated
 * results, every RIME sort must equal std::sort, and a sample sort
 * stream's counters must match the reference (slow-mode, unbatched)
 * cache pipeline exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hh"
#include "cachesim/hierarchy.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "perfmodel/baseline.hh"
#include "rime/ops.hh"
#include "sort/access_sink.hh"
#include "sort/parallel_model.hh"
#include "sort/sorters.hh"
#include "workloads/spq.hh"

namespace rimebench
{

namespace
{

using namespace rime;

constexpr unsigned kCores = 64;
// Two paper sizes: per-core partitions of 32K and 128K keys, sampled
// at 32K keys per core, so both the exact and the extrapolated
// branch of the sort model run.
constexpr std::uint64_t kSizes[] = {2ULL << 20, 8ULL << 20};
constexpr std::uint64_t kSortSampleCap = 1 << 15;
// RIME side at a scale whose FastRime order fits in L2 (fig15 uses
// up to 4M keys; RIME throughput is size-insensitive).
constexpr std::uint64_t kRimeSortKeys = 1 << 16;
// Figure 18 sample: a 64K-packet buffer, 8K removes per ratio.
constexpr std::uint64_t kHeapInitial = 1 << 16;
constexpr std::uint64_t kHeapRemoves = 1 << 13;
constexpr unsigned kRatios = 5;

enum class OpKind { Profile, RimeSort, Heap };

struct Op
{
    OpKind kind;
    sort::Algorithm algo = sort::Algorithm::Mergesort;
    std::uint64_t n = 0;
    unsigned ratio = 0;
};

std::vector<Op>
sliceOps()
{
    std::vector<Op> ops;
    for (const auto n : kSizes) {
        for (const auto algo : sort::allAlgorithms)
            ops.push_back({OpKind::Profile, algo, n, 0});
        ops.push_back({OpKind::RimeSort, sort::Algorithm::Mergesort, n,
                       0});
    }
    for (unsigned r = 1; r <= kRatios; ++r)
        ops.push_back({OpKind::Heap, sort::Algorithm::Mergesort, 0, r});
    return ops;
}

/** Table-I RIME system on the FastRime backend, stats kept local. */
LibraryConfig
tableOneRime()
{
    LibraryConfig cfg;
    cfg.device.channels = 1;
    cfg.device.bitLevel = false;
    cfg.driver.startupPages = 1 << 16;
    cfg.driver.growthPages = 1 << 16;
    cfg.autoPublishStats = false;
    return cfg;
}

/** Counts accesses without simulating them. */
class CountingSink : public sort::AccessSink
{
  public:
    void access(unsigned, Addr, AccessType) override { ++count; }
    void drain(const sort::AccessRecord *, std::size_t n) override
    {
        count += n;
    }
    std::uint64_t count = 0;
};

/** Delivers one access at a time: the pre-batching reference path. */
class UnbatchedSink : public sort::AccessSink
{
  public:
    explicit UnbatchedSink(cachesim::Hierarchy &h) : h_(h) {}
    void
    access(unsigned core, Addr addr, AccessType type) override
    {
        h_.access(core % h_.numCores(), addr, type);
    }

  private:
    cachesim::Hierarchy &h_;
};

struct Slice
{
    std::uint64_t seed = 0;
    sort::SortModel sorts;
    std::vector<std::uint64_t> rimeKeys;
    std::vector<std::uint64_t> rimeSorted;
    /** Simulated accesses of the sort samples in one round. */
    std::uint64_t sortAccesses = 0;
};

sort::Keys
sampleKeys(std::uint64_t n, std::uint64_t seed)
{
    sort::Keys keys(n);
    Rng rng(seed);
    for (auto &k : keys)
        k = static_cast<std::uint32_t>(rng());
    return keys;
}

Slice
buildSlice(std::uint64_t seed)
{
    sort::SortModel::Config sc;
    sc.sampleCap = kSortSampleCap;
    sc.seed = seed;
    Slice s{seed, sort::SortModel(sc), {}, {}, 0};
    Rng rng(seed ^ 0xF15ULL);
    s.rimeKeys.resize(kRimeSortKeys);
    for (auto &k : s.rimeKeys)
        k = rng() & 0xFFFFFFFFULL;
    s.rimeSorted = s.rimeKeys;
    std::sort(s.rimeSorted.begin(), s.rimeSorted.end());
    // The sort model's sample: min(n / cores, cap) keys drawn as
    // SortModel draws them; replayed here only to count accesses.
    for (const auto n : kSizes) {
        for (const auto algo : sort::allAlgorithms) {
            const std::uint64_t per_core = std::max<std::uint64_t>(
                n / kCores, 1);
            sort::Keys keys = sampleKeys(
                std::min(per_core, kSortSampleCap),
                seed + 977 * static_cast<std::uint64_t>(algo));
            CountingSink counter;
            sort::runSort(algo, keys, 0, counter);
            s.sortAccesses += counter.count;
        }
    }
    return s;
}

void
digestDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 0x100000001B3ULL;
}

struct RoundResult
{
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::vector<double> opUs;
    std::uint64_t heapAccesses = 0;
    std::string error;
};

/** Baseline throughput of a traced-heap sample (fig18's pricing). */
double
heapBaselineMKps(perfmodel::BaselinePerfModel &model,
                 const cachesim::Hierarchy &h, double instructions,
                 SystemKind system)
{
    cpusim::WorkloadProfile w;
    w.instructions = instructions;
    w.memReads = static_cast<double>(h.memReads());
    w.memWrites = static_cast<double>(h.memWrites());
    w.baseIpc = 1.5 / model.calibration().ipcScale;
    w.mlp = 2.0;
    w.parallelFraction = 0.5;
    const auto est = model.estimate(w, memsim::AccessPattern::Random,
                                    system, 1);
    return est.totalSeconds > 0
        ? static_cast<double>(kHeapRemoves) / est.totalSeconds / 1e6
        : 0.0;
}

RoundResult
runRound(const Slice &s, SpanRecorder *spans, std::uint64_t request)
{
    RoundResult out;
    perfmodel::BaselinePerfModel model;
    const auto span = [&](const char *name, std::int64_t a,
                          std::int64_t b) {
        if (spans)
            spans->add(name, request, 0, a, b);
    };
    for (const Op &op : sliceOps()) {
        const std::int64_t t0 = nowNs();
        switch (op.kind) {
          case OpKind::Profile: {
            const auto p = s.sorts.profile(op.algo, op.n, kCores);
            const std::int64_t t1 = nowNs();
            const double ddr = model.sortThroughputMKps(
                p, op.algo, op.n, kCores, SystemKind::OffChipDdr4);
            const double hbm = model.sortThroughputMKps(
                p, op.algo, op.n, kCores, SystemKind::InPackageHbm);
            span("sort.profile", t0, t1);
            span("perfmodel.derive", t1, nowNs());
            digestDouble(out.digest, ddr);
            digestDouble(out.digest, hbm);
            break;
          }
          case OpKind::RimeSort: {
            RimeLibrary lib(tableOneRime());
            const auto r = rimeSort(lib, s.rimeKeys,
                                    KeyMode::UnsignedFixed, 32);
            span("rime.ops.sort", t0, nowNs());
            if (r.values != s.rimeSorted)
                out.error = "rimeSort output differs from std::sort";
            digestDouble(out.digest, r.throughputKeysPerSec());
            break;
          }
          case OpKind::Heap: {
            workloads::SpqParams params;
            params.initialPackets = kHeapInitial;
            params.addsPerRemove = op.ratio;
            params.removes = kHeapRemoves;
            params.seed = s.seed + op.ratio;
            cachesim::Hierarchy h(1);
            sort::CacheSink sink(h);
            const auto cpu = workloads::spqCpu(params, sink);
            const std::int64_t t1 = nowNs();
            out.heapAccesses += static_cast<std::uint64_t>(
                h.stats().get("loads") + h.stats().get("stores"));
            const double ddr = heapBaselineMKps(
                model, h, cpu.counts.instructions(),
                SystemKind::OffChipDdr4);
            const double hbm = heapBaselineMKps(
                model, h, cpu.counts.instructions(),
                SystemKind::InPackageHbm);
            const std::int64_t t2 = nowNs();
            RimeLibrary lib(tableOneRime());
            const auto rime = workloads::spqRime(lib, params);
            span("workloads.heap", t0, t1);
            span("perfmodel.derive", t1, t2);
            span("rime.ops.spq", t2, nowNs());
            if (rime.checksum != cpu.checksum || rime.removed !=
                    cpu.removed)
                out.error = "spqRime removal order differs from the "
                            "traced heap";
            digestDouble(out.digest, ddr);
            digestDouble(out.digest, hbm);
            digestDouble(out.digest, rime.removed / lib.nowSeconds());
            break;
          }
        }
        out.opUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return out;
}

/** Counters of one sort stream through the fast or reference path. */
struct StreamCounters
{
    std::uint64_t loads = 0, stores = 0, memReads = 0, memWrites = 0;
    bool operator==(const StreamCounters &) const = default;
};

StreamCounters
sortStream(bool reference, const sort::Keys &input)
{
    cachesim::Hierarchy h(1, cachesim::CacheConfig::l1d(),
                          cachesim::CacheConfig::l2(), reference);
    sort::CacheSink fast(h);
    UnbatchedSink slow(h);
    sort::Keys keys = input;
    sort::runSort(sort::Algorithm::Mergesort, keys, 0,
                  reference ? static_cast<sort::AccessSink &>(slow)
                            : static_cast<sort::AccessSink &>(fast));
    return {static_cast<std::uint64_t>(h.stats().get("loads")),
            static_cast<std::uint64_t>(h.stats().get("stores")),
            h.memReads(), h.memWrites()};
}

} // namespace

void
addFigureLayers(Report &report, const SpanRecorder &spans,
                std::size_t rounds)
{
    const auto self = spans.selfTimesUs();
    const auto perRound = [&](const char *name) {
        auto it = self.find(name);
        if (it == self.end() || rounds == 0)
            return 0.0;
        double sum = 0;
        for (const double v : it->second)
            sum += v;
        return sum / 1e6 / static_cast<double>(rounds);
    };
    for (const char *layer : {"rime.ops.sort", "sort.profile",
                              "workloads.heap", "perfmodel.derive"}) {
        report.add(report.layers, std::string(layer) + "_s",
                   perRound(layer), "s", rounds);
    }
}

void
runFigureLayers(const RunConfig &cfg, Report &report)
{
    const Slice slice = buildSlice(cfg.seed);
    SpanRecorder spans;
    const RoundResult r = runRound(slice, &spans, 1);
    report.attempted += r.opUs.size();
    if (!r.error.empty()) {
        report.failed += r.opUs.size();
        report.fail(r.error);
    }
    addFigureLayers(report, spans, 1);
}

Report
runFigures(const RunConfig &cfg)
{
    Report report;
    std::vector<double> setups;
    Slice slice;
    for (int i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        slice = buildSlice(cfg.seed);
        setups.push_back(secondsSince(t0));
    }

    // Warm-up round (allocator, page faults); its digest is the
    // reference every timed round must reproduce.
    const RoundResult first = runRound(slice, nullptr, 0);
    if (!first.error.empty())
        report.fail(first.error);

    const auto timedRounds = [&](double seconds, SpanRecorder *spans,
                                 Rounds &run) {
        const auto t0 = Clock::now();
        std::size_t request = 0;
        do {
            const auto r0 = Clock::now();
            const RoundResult r = runRound(slice, spans, ++request);
            run.add(secondsSince(r0), r.opUs);
            report.attempted += r.opUs.size();
            if (!r.error.empty() || r.digest != first.digest) {
                report.failed += r.opUs.size();
                report.fail(r.error.empty()
                                ? "figure digest changed between rounds"
                                : r.error);
            }
        } while (secondsSince(t0) < seconds);
        return request;
    };

    Rounds untraced, traced;
    SpanRecorder spans;
    std::size_t traced_rounds = 0;
    if (cfg.trace) {
        // Half untraced, half traced: the difference of the slice
        // times is the tracing overhead.
        timedRounds(cfg.seconds / 2, nullptr, untraced);
        traced_rounds = timedRounds(cfg.seconds / 2, &spans, traced);
    } else {
        timedRounds(cfg.seconds, nullptr, untraced);
    }

    // Reference-path check on a sample stream.
    const sort::Keys sample = sampleKeys(1 << 14, cfg.seed ^ 0x5A5A);
    if (!(sortStream(true, sample) == sortStream(false, sample)))
        report.fail("cache counters differ between the fast and the "
                    "reference simulation paths");

    const Rounds &w = untraced;
    const double wall = median(w.roundSeconds);
    addCommonEndToEnd(report, median(setups), w, 90.0);
    const double rounds = static_cast<double>(w.roundSeconds.size());
    report.add(report.detail, "sim_accesses_per_s",
               static_cast<double>(slice.sortAccesses +
                                   first.heapAccesses) *
                   rounds / w.seconds,
               "1/s", w.roundSeconds.size());
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(first.digest));
    std::printf("figures: slice digest %s\n", digest);

    if (cfg.trace) {
        const Rounds &t = traced;
        addFigureLayers(report, spans, traced_rounds);
        const double traced_wall = median(t.roundSeconds);
        report.add(report.layers, "bench.trace_overhead_frac",
                   (traced_wall - wall) / wall, "ratio",
                   t.roundSeconds.size());
        writeSpans(cfg, spans, "slices");
    }
    return report;
}

} // namespace rimebench
