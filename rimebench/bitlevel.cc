/**
 * @file
 * Workload `bitlevel`: a fault-free RimeLibrary on the bit-level chip
 * model (bitLevel = true, every other setting default).  One round
 * is a TopK-64 over one 1M-key 32-bit range -- 4 MiB of bit-planes,
 * beyond L2 -- plus full sorts of 8 of the 64 4096-key ranges, whose
 * 16 KiB of planes fit in L1/L2.  One op is one request (a TopK or a
 * sort).  This is the only workload where the rimehw kernels and
 * RimeChip scans do most of the work.
 *
 * Every extracted value is checked against std::sort of the stored
 * keys; once per run the same requests are replayed on a FastRime
 * library and must produce identical (value, index) sequences.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"
#include "common/rng.hh"
#include "rime/api.hh"

namespace rimebench
{

namespace
{

using namespace rime;

constexpr std::uint64_t kBigKeys = 1 << 20;
constexpr std::uint64_t kTopK = 64;
constexpr std::uint64_t kSmallKeys = 4096;
constexpr unsigned kSmallRanges = 64;
constexpr unsigned kSortsPerRound = 8;

struct Range
{
    Addr start = 0;
    Addr end = 0;
    std::vector<std::uint64_t> sorted;
};

struct State
{
    std::unique_ptr<RimeLibrary> lib;
    Range big;
    std::vector<Range> small;
    double storeSeconds = 0.0;
};

LibraryConfig
bitLevelConfig(bool bit_level)
{
    LibraryConfig cfg;
    cfg.device.bitLevel = bit_level;
    cfg.autoPublishStats = false;
    return cfg;
}

std::vector<std::uint64_t>
keys(Rng &rng, std::uint64_t n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &k : v)
        k = rng() & 0xFFFFFFFFULL;
    return v;
}

Range
load(State &s, const std::vector<std::uint64_t> &values)
{
    Range r;
    const std::uint64_t bytes = values.size() * s.lib->wordBytes();
    const auto addr = s.lib->rimeMalloc(bytes);
    if (!addr)
        return r;
    r.start = *addr;
    r.end = *addr + bytes;
    const auto t0 = Clock::now();
    s.lib->storeArray(r.start, values);
    s.storeSeconds += secondsSince(t0);
    r.sorted = values;
    std::sort(r.sorted.begin(), r.sorted.end());
    return r;
}

State
build(std::uint64_t seed, bool bit_level)
{
    State s;
    s.lib = std::make_unique<RimeLibrary>(bitLevelConfig(bit_level));
    Rng rng(seed ^ 0xB17ULL);
    s.big = load(s, keys(rng, kBigKeys));
    for (unsigned i = 0; i < kSmallRanges; ++i)
        s.small.push_back(load(s, keys(rng, kSmallKeys)));
    return s;
}

/** Init `r` and extract `count` minima; false on any mismatch. */
bool
rank(RimeLibrary &lib, const Range &r, std::uint64_t count,
     std::vector<RankedItem> *items)
{
    lib.rimeInit(r.start, r.end, KeyMode::UnsignedFixed, 32);
    bool ok = true;
    for (std::uint64_t i = 0; i < count; ++i) {
        const RimeExtract e = lib.rimeMinChecked(r.start, r.end);
        if (!e.ok() || e.item.raw != r.sorted[i])
            ok = false;
        if (items)
            items->push_back(e.item);
    }
    return ok;
}

} // namespace

Report
runBitlevel(const RunConfig &cfg)
{
    Report report;
    std::vector<double> setups;
    State s;
    for (int i = 0; i < kSetups; ++i) {
        s = State();
        const auto t0 = Clock::now();
        s = build(cfg.seed, true);
        setups.push_back(secondsSince(t0));
    }
    if (s.big.sorted.empty()) {
        report.fail("bit-level library could not hold the 1M-key range");
        return report;
    }

    std::vector<double> topk_us;
    constexpr std::uint64_t ranked_per_round =
        kTopK + kSortsPerRound * kSmallKeys;
    unsigned next_small = 0;
    SpanRecorder spans;
    const auto rounds = [&](double seconds, Rounds &run,
                            bool traced) {
        const auto t0 = Clock::now();
        std::uint64_t request = 0;
        do {
            const auto r0 = Clock::now();
            std::vector<double> op_us;
            ++request;
            std::int64_t a = nowNs();
            bool ok = rank(*s.lib, s.big, kTopK, nullptr);
            std::int64_t b = nowNs();
            if (traced)
                spans.add("rime.api.topk", request, 0, a, b);
            op_us.push_back(static_cast<double>(b - a) / 1e3);
            topk_us.push_back(op_us.back());
            for (unsigned i = 0; i < kSortsPerRound; ++i) {
                const Range &r = s.small[next_small++ % kSmallRanges];
                a = nowNs();
                ok = rank(*s.lib, r, kSmallKeys, nullptr) && ok;
                b = nowNs();
                if (traced)
                    spans.add("rime.api.sort", request, 0, a, b);
                op_us.push_back(static_cast<double>(b - a) / 1e3);
            }
            report.attempted += op_us.size();
            if (!ok) {
                report.failed += 1;
                report.fail("bit-level extraction order differs from "
                            "std::sort");
            }
            run.add(secondsSince(r0), op_us);
        } while (secondsSince(t0) < seconds);
    };

    // Warm-up: one untimed TopK.
    rank(*s.lib, s.big, kTopK, nullptr);
    Rounds untraced, traced;
    if (cfg.trace) {
        rounds(cfg.seconds / 2, untraced, false);
        topk_us.clear();
        rounds(cfg.seconds / 2, traced, true);
    } else {
        rounds(cfg.seconds, untraced, false);
    }

    // FastRime must rank exactly as the bit-level model does.
    {
        State fast = build(cfg.seed, false);
        std::vector<RankedItem> a, b;
        rank(*s.lib, s.big, kTopK, &a);
        rank(*s.lib, s.small[0], kSmallKeys, &a);
        rank(*fast.lib, fast.big, kTopK, &b);
        rank(*fast.lib, fast.small[0], kSmallKeys, &b);
        const bool same = a.size() == b.size() &&
            std::equal(a.begin(), a.end(), b.begin(),
                       [](const RankedItem &x, const RankedItem &y) {
                           return x.raw == y.raw && x.index == y.index;
                       });
        if (!same)
            report.fail("FastRime ranks differently from the bit-level "
                        "model");
    }

    // p95 falls inside the TopK share (1 request in 9) at every
    // sample count a run reaches; p90 would sit on its boundary.
    const Rounds &w = untraced;
    addCommonEndToEnd(report, median(setups), w, 95.0);
    report.add(report.detail, "values_ranked_per_s",
               static_cast<double>(ranked_per_round *
                                   w.roundSeconds.size()) /
                   w.seconds,
               "1/s", w.opUs.size());

    if (cfg.trace) {
        Summary topk = summarize(topk_us, 99.0);
        report.add(report.layers, "rime.api.topk_p50_us", topk.p50, "us",
                   topk.count);
        report.add(report.layers, "rime.api.topk_p99_us", topk.tail,
                   "us", topk.count);
        report.add(report.layers, "rime.api.store_us_per_kvalue",
                   s.storeSeconds * 1e6 /
                       (static_cast<double>(kBigKeys +
                                            kSmallRanges * kSmallKeys) /
                        1e3),
                   "us", kSmallRanges + 1);
        const double wall = median(w.roundSeconds);
        const Rounds &t = traced;
        report.add(report.layers, "bench.trace_overhead_frac",
                   (median(t.roundSeconds) - wall) / wall, "ratio",
                   t.roundSeconds.size());
        writeSpans(cfg, spans, "rounds");
    }
    return report;
}

} // namespace rimebench
