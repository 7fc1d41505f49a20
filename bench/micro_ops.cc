/**
 * @file
 * google-benchmark microbenchmarks of the core operations: bit-level
 * column search, chip-level scans, the fast model, key codecs, the
 * driver allocator, the DRAM bank machine, and the cache hierarchy.
 * These measure *simulator* (host) performance, useful for keeping
 * the models fast enough for paper-scale sweeps.
 *
 * Before the registered benchmarks run, a self-timing pass measures
 * host wall-clock of the serial bit-level scan over a key-count sweep
 * (4K, 64K, 256K, 1M keys), scalar kernels vs SIMD kernels at every
 * size (the in-process RIME_SIMD A/B).  Both kernel tables must
 * produce a bit-identical extraction or the bench aborts; the
 * measurements go to the machine-readable BENCH_scan.json next to
 * the binary.  RIME_BENCH_KEYS caps the largest size.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cachesim/hierarchy.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "memsim/dram_system.hh"
#include "rime/driver.hh"
#include "rimehw/chip.hh"
#include "rimehw/fast_model.hh"
#include "rimehw/kernels.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

RimeGeometry
smallGeometry()
{
    RimeGeometry g;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    return g;
}

void
BM_EncodeFloatKey(benchmark::State &state)
{
    Rng rng(1);
    std::uint64_t raw = rng();
    for (auto _ : state) {
        raw = raw * 0x9E3779B97F4A7C15ULL + 1;
        benchmark::DoNotOptimize(
            encodeKey(raw & 0xFFFFFFFF, 32, KeyMode::Float));
    }
}
BENCHMARK(BM_EncodeFloatKey);

void
BM_ColumnSearch(benchmark::State &state)
{
    RramArray array(512, 512);
    Rng rng(2);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 32,
                           rng() & 0xFFFFFFFF);
    BitVector select(512);
    select.setAll();
    unsigned col = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            array.columnSearch(col, true, select));
        col = (col + 1) % 32;
    }
}
BENCHMARK(BM_ColumnSearch);

void
BM_BitLevelExtract(benchmark::State &state)
{
    RimeChip chip(smallGeometry());
    chip.configure(32, KeyMode::UnsignedFixed);
    Rng rng(3);
    const std::uint64_t n = 4096;
    for (std::uint64_t i = 0; i < n; ++i)
        chip.writeValue(i, rng() & 0xFFFFFFFF);
    chip.initRange(0, n);
    for (auto _ : state) {
        auto r = chip.extract(0, n, false);
        if (!r.found) {
            chip.initRange(0, n);
        }
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BitLevelExtract);

void
BM_FastModelExtract(benchmark::State &state)
{
    FastRime fast;
    fast.configure(32, KeyMode::UnsignedFixed);
    Rng rng(4);
    const std::uint64_t n = 1 << 16;
    for (std::uint64_t i = 0; i < n; ++i)
        fast.writeValue(i, rng() & 0xFFFFFFFF);
    fast.initRange(0, n);
    for (auto _ : state) {
        auto r = fast.extract(0, n, false);
        if (!r.found) {
            fast.initRange(0, n);
        }
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_FastModelExtract);

void
BM_DriverAllocateFree(benchmark::State &state)
{
    RimeDriver driver(1ULL << 30);
    for (auto _ : state) {
        const auto a = driver.allocate(8192);
        benchmark::DoNotOptimize(a);
        if (a)
            driver.release(*a);
    }
}
BENCHMARK(BM_DriverAllocateFree);

void
BM_DramAccess(benchmark::State &state)
{
    memsim::DramSystem mem(memsim::DramParams::offChipDdr4());
    Rng rng(5);
    Tick now = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.below(1ULL << 30) & ~63ULL;
        req.type = AccessType::Read;
        now = mem.access(req, now);
        benchmark::DoNotOptimize(now);
    }
}
BENCHMARK(BM_DramAccess);

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    cachesim::Hierarchy h(1);
    Rng rng(6);
    for (auto _ : state) {
        h.access(0, rng.below(1ULL << 26) & ~3ULL,
                 AccessType::Read);
    }
    benchmark::DoNotOptimize(h.memReads());
}
BENCHMARK(BM_CacheHierarchyAccess);

/**
 * Wall-clock self-timing of the serial bit-level scan, scalar vs SIMD
 * kernels, at each key count of the sweep; emits BENCH_scan.json.
 * Both kernel modes are always timed (forced via kernels::setMode),
 * so the scan work performed -- and therefore the deterministic stat
 * dump -- is identical for every RIME_SIMD setting.  The top-level
 * scalar/SIMD fields report the largest size.
 */
void
runScanSelfTiming()
{
    using Clock = std::chrono::steady_clock;
    namespace kernels = rime::rimehw::kernels;
    // Strict parse: a garbled RIME_BENCH_KEYS aborts instead of
    // silently timing the default size.  0 keeps the default too.
    std::uint64_t keys = envU64("RIME_BENCH_KEYS", 1ULL << 20);
    if (keys == 0) {
        warn("RIME_BENCH_KEYS=0; using the default key count");
        keys = 1ULL << 20;
    }
    const unsigned k = 32;

    RimeChip chip;
    chip.configure(k, KeyMode::UnsignedFixed);
    if (keys > chip.valueCapacity())
        keys = chip.valueCapacity();
    Rng rng(42);
    for (std::uint64_t i = 0; i < keys; ++i)
        chip.writeValue(i, rng() & 0xFFFFFFFF);

    std::vector<std::uint64_t> sizes;
    for (const std::uint64_t n : {1ULL << 12, 1ULL << 16, 1ULL << 18})
        if (n < keys)
            sizes.push_back(n);
    sizes.push_back(keys);

    // scan() is pure, so repeated scans perform identical work; one
    // untimed warm-up per batch populates lazily allocated state.
    const auto timeScans = [&](kernels::Mode mode, std::uint64_t n,
                               int scans, ExtractResult &out) {
        kernels::setMode(mode);
        out = chip.scan(0, n, false);
        const auto t0 = Clock::now();
        for (int i = 0; i < scans; ++i)
            out = chip.scan(0, n, false);
        const auto t1 = Clock::now();
        return std::chrono::duration<double, std::milli>(
            t1 - t0).count() / scans;
    };
    constexpr int kRounds = 5;
    const auto median = [](std::vector<double> v) {
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        return v[v.size() / 2];
    };
    const auto same = [](const ExtractResult &a,
                         const ExtractResult &b) {
        return a.found == b.found && a.raw == b.raw &&
            a.index == b.index && a.steps == b.steps &&
            a.time == b.time;
    };

    // On a host without SIMD kernels both passes run scalar and the
    // speedup reports ~1.
    std::string sweep = "[";
    ExtractResult scalar_r, simd_r;
    double scalar_ms = 0.0, simd_ms = 0.0, speedup = 0.0;
    int scans = 0;
    for (const std::uint64_t n : sizes) {
        // Smaller ranges repeat more so every batch times ~8M
        // key-scans.  The two modes alternate batches over several
        // rounds and each reports its median batch, so host drift
        // during the sweep hits both alike.
        scans = static_cast<int>(
            std::max<std::uint64_t>(8, (1ULL << 23) / n));
        chip.initRange(0, n);
        std::vector<double> scalar_batches, simd_batches;
        for (int r = 0; r < kRounds; ++r) {
            scalar_batches.push_back(
                timeScans(kernels::Mode::Scalar, n, scans, scalar_r));
            simd_batches.push_back(
                timeScans(kernels::Mode::Simd, n, scans, simd_r));
        }
        scalar_ms = median(scalar_batches);
        simd_ms = median(simd_batches);
        if (!same(scalar_r, simd_r))
            fatal("SIMD scan diverged from the scalar reference scan "
                  "at %llu keys", static_cast<unsigned long long>(n));
        speedup = simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
        std::printf("scan self-timing: %8llu keys, k=%u: host %.4f ms "
                    "scalar vs %.4f ms %s (%.2fx)\n",
                    static_cast<unsigned long long>(n), k, scalar_ms,
                    simd_ms, kernels::availableIsaName(), speedup);
        char point[160];
        std::snprintf(point, sizeof(point),
                      "%s{\"keys\": %llu, \"scalar_ms\": %g, "
                      "\"simd_ms\": %g, \"simd_speedup\": %g}",
                      sweep.size() > 1 ? ", " : "",
                      static_cast<unsigned long long>(n), scalar_ms,
                      simd_ms, speedup);
        sweep += point;
    }
    sweep += "]";
    kernels::setMode(kernels::envMode());

    const double simulated_ns = ticksToNs(scalar_r.time);
    bench::BenchJson json("scan");
    json.field("keys", keys)
        .field("word_bits", k)
        .field("scans_per_batch", scans)
        .field("scan_steps", static_cast<std::uint64_t>(
            scalar_r.steps))
        .field("scalar_host_ms_per_scan", scalar_ms)
        .field("simd_host_ms_per_scan", simd_ms)
        .field("simd_isa", kernels::availableIsaName())
        .field("simd_speedup", speedup)
        .field("simulated_ns_per_scan", simulated_ns)
        .raw("sweep", sweep)
        .write("BENCH_scan.json");

    // Deterministic chip-stat dump: identical scan work for either
    // kernel mode must produce a bit-identical file (CI diffs the
    // dumps across RIME_SIMD).
    const std::string stats_path =
        envString("RIME_STATS").value_or("STATS_scan.json");
    StatRegistry::process().mergeGroup("chip", chip.stats());
    std::ofstream stats_out(stats_path);
    StatRegistry::process().dumpJson(stats_out);
    stats_out << "\n";
    std::printf("stats: %s\n", stats_path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    runScanSelfTiming();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
