/**
 * @file
 * Chip-level equivalence of the two kernel tables: a bit-level
 * RimeChip scanning on the scalar reference kernels must be
 * *bit-identical* to one scanning on the SIMD kernels -- every
 * ExtractResult field, every StatGroup counter, and the accumulated
 * energy -- across randomized workloads with min/max extractions,
 * live stores, sub-ranges, and re-inits.  Also covers the
 * word-parallel BitVector range operations the scan path relies on,
 * and the thread pool the figure sweeps run on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "rimehw/chip.hh"
#include "rimehw/kernels.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

/** Enough units (64 rows x 32+ units) that scans span many mats. */
RimeGeometry
multiUnitGeometry()
{
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    g.arraysPerMat = 2;
    g.arrayRows = 64;
    g.arrayCols = 64;
    return g;
}

void
expectSameResult(const ExtractResult &a, const ExtractResult &b,
                 int step)
{
    ASSERT_EQ(a.found, b.found) << "step " << step;
    if (!a.found)
        return;
    EXPECT_EQ(a.raw, b.raw) << "step " << step;
    EXPECT_EQ(a.index, b.index) << "step " << step;
    EXPECT_EQ(a.steps, b.steps) << "step " << step;
    EXPECT_EQ(a.time, b.time) << "step " << step;
}

void
expectSameStats(const RimeChip &a, const RimeChip &b)
{
    // Every counter either chip ever touched must agree exactly --
    // except host wall-clock profiling stats ("*WallNs"), which are
    // excluded from the determinism contract by construction.
    EXPECT_EQ(a.stats().values().size(), b.stats().values().size());
    for (const auto &kv : a.stats().values()) {
        if (isWallClockStat(kv.first))
            continue;
        EXPECT_DOUBLE_EQ(kv.second, b.stats().get(kv.first))
            << kv.first;
    }
    EXPECT_DOUBLE_EQ(a.energyPJ(), b.energyPJ());
}

/**
 * Two chips fed the same operations, one on each kernel table.  The
 * table is process-wide, so each call re-dispatches before touching
 * its chip; the destructor restores the RIME_SIMD default.
 */
struct KernelPair
{
    RimeChip scalar{multiUnitGeometry()};
    RimeChip simd{multiUnitGeometry()};

    ~KernelPair() { kernels::setMode(kernels::envMode()); }

    template <typename Fn>
    auto
    onScalar(Fn &&fn)
    {
        kernels::setMode(kernels::Mode::Scalar);
        return fn(scalar);
    }

    template <typename Fn>
    auto
    onSimd(Fn &&fn)
    {
        kernels::setMode(kernels::Mode::Simd);
        return fn(simd);
    }

    /** Apply a state-changing operation to both chips. */
    template <typename Fn>
    void
    both(Fn &&fn)
    {
        onScalar(fn);
        onSimd(fn);
    }
};

struct ModeCase
{
    KeyMode mode;
    unsigned k;
};

class KernelModeEquivalence : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(KernelModeEquivalence, RandomWorkloadBitIdentical)
{
    const auto [mode, k] = GetParam();
    KernelPair chips;
    chips.both([&](RimeChip &c) { c.configure(k, mode); });

    const std::size_t n = std::min<std::size_t>(
        768, chips.scalar.valueCapacity());
    Rng rng(4200 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        chips.both([&](RimeChip &c) { c.writeValue(idx, raw); });
    };
    for (std::size_t i = 0; i < n; ++i)
        put(i, rng() & mask);

    const std::uint64_t mid = n / 2;
    chips.both([&](RimeChip &c) {
        c.initRange(0, mid);
        c.initRange(mid, n);
    });

    for (int step = 0; step < 500; ++step) {
        const unsigned action = static_cast<unsigned>(rng.below(6));
        const bool first = rng.below(2) == 0;
        const std::uint64_t b = first ? 0 : mid;
        const std::uint64_t e = first ? mid : n;
        switch (action) {
          case 0:
          case 1:
          case 2: {
            const bool find_max = action == 2;
            const auto extract = [&](RimeChip &c) {
                return c.extract(b, e, find_max);
            };
            expectSameResult(chips.onScalar(extract),
                             chips.onSimd(extract), step);
            break;
          }
          case 3: {
            // Live store into the active range.
            const std::uint64_t idx = b + rng.below(e - b);
            put(idx, rng() & mask);
            break;
          }
          case 4: {
            const auto remaining = [&](RimeChip &c) {
                return c.remainingInRange(b, e);
            };
            ASSERT_EQ(chips.onScalar(remaining),
                      chips.onSimd(remaining)) << step;
            break;
          }
          case 5:
            if (rng.below(8) == 0)
                chips.both([&](RimeChip &c) { c.initRange(b, e); });
            break;
        }
    }
    expectSameStats(chips.scalar, chips.simd);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, KernelModeEquivalence,
    ::testing::Values(ModeCase{KeyMode::UnsignedFixed, 16},
                      ModeCase{KeyMode::UnsignedFixed, 32},
                      ModeCase{KeyMode::SignedFixed, 16},
                      ModeCase{KeyMode::SignedFixed, 32},
                      ModeCase{KeyMode::Float, 32}),
    [](const auto &info) {
        const char *m =
            info.param.mode == KeyMode::UnsignedFixed ? "U"
            : info.param.mode == KeyMode::SignedFixed ? "S" : "F";
        return std::string(m) + std::to_string(info.param.k);
    });

TEST(KernelModeEquivalence, FullDrainBitIdentical)
{
    // Drain an entire range to empty on each kernel table; the
    // extraction sequences and final stats must match exactly.
    KernelPair chips;
    const std::size_t n = std::min<std::size_t>(
        512, chips.scalar.valueCapacity());
    Rng rng(77);
    std::vector<std::uint64_t> raws(n);
    for (auto &r : raws)
        r = rng() & 0xFFFF;
    chips.both([&](RimeChip &c) {
        c.configure(16, KeyMode::UnsignedFixed);
        for (std::size_t i = 0; i < n; ++i)
            c.writeValue(i, raws[i]);
        c.initRange(0, n);
    });
    const auto extract = [&](RimeChip &c) {
        return c.extract(0, n, false);
    };
    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chips.onScalar(extract), chips.onSimd(extract),
                         static_cast<int>(i));
    }
    expectSameStats(chips.scalar, chips.simd);
}

TEST(BitVectorRanges, WordParallelSetAndClearMatchBitLoops)
{
    // Cross-word boundaries, single-word spans, full words, empties.
    for (const auto &[begin, end] : {std::pair<unsigned, unsigned>
             {0u, 0u}, {0u, 1u}, {5u, 9u}, {0u, 64u}, {63u, 65u},
             {64u, 128u}, {1u, 200u}, {70u, 71u}, {120u, 193u},
             {0u, 200u}}) {
        BitVector fast(200), slow(200);
        fast.setRange(begin, end);
        for (unsigned i = begin; i < end; ++i)
            slow.set(i, true);
        EXPECT_TRUE(fast == slow) << begin << ".." << end;

        BitVector cfast(200), cslow(200);
        cfast.setAll();
        cslow.setAll();
        cfast.clearRange(begin, end);
        for (unsigned i = begin; i < end; ++i)
            cslow.set(i, false);
        EXPECT_TRUE(cfast == cslow) << begin << ".." << end;
    }
}

TEST(BitVectorRanges, FusedAndNotCountsMatchSeparateOps)
{
    Rng rng(9);
    BitVector a(130), b(130), base(130);
    for (unsigned i = 0; i < 130; ++i) {
        a.set(i, rng.below(2) == 0);
        b.set(i, rng.below(3) == 0);
        base.set(i, rng.below(2) == 0);
    }
    BitVector ref = a;
    ref.andNot(b);
    BitVector fused = a;
    EXPECT_EQ(fused.andNotCount(b), ref.count());
    EXPECT_TRUE(fused == ref);

    BitVector ref2 = base;
    ref2.andNot(b);
    BitVector out(130);
    EXPECT_EQ(out.assignAndNotCount(base, b), ref2.count());
    EXPECT_TRUE(out == ref2);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(257);
    pool.run(257, [&](unsigned t) {
        hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}
