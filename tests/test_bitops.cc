/**
 * @file Unit tests for the bit-manipulation helpers and for
 * scalar-vs-SIMD equivalence of the bit-plane kernel layer
 * (rimehw/kernels.hh): every kernel table entry point, the BitVector
 * bulk ops, and RramArray::columnSearchInto (including the
 * fault-injected disturb path) must produce bit-identical results
 * with the kernels forced scalar and forced SIMD.  On a host without
 * a SIMD table both modes dispatch scalar and the comparisons are
 * trivially true, so the suite stays portable.
 */

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "rimehw/array.hh"
#include "rimehw/bitvector.hh"
#include "rimehw/faults.hh"
#include "rimehw/kernels.hh"
#include "rimehw/latches.hh"
#include "rimehw/unit.hh"

using namespace rime;

TEST(BitOps, Bits)
{
    EXPECT_EQ(bits(0xDEADBEEF, 7, 0), 0xEFu);
    EXPECT_EQ(bits(0xDEADBEEF, 15, 8), 0xBEu);
    EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(BitOps, Bit)
{
    EXPECT_TRUE(bit(0b100, 2));
    EXPECT_FALSE(bit(0b100, 1));
    EXPECT_TRUE(bit(1ULL << 63, 63));
}

TEST(BitOps, InsertBits)
{
    EXPECT_EQ(insertBits(0, 7, 4, 0xF), 0xF0u);
    EXPECT_EQ(insertBits(0xFF, 7, 4, 0x0), 0x0Fu);
    EXPECT_EQ(insertBits(0, 63, 0, ~0ULL), ~0ULL);
}

TEST(BitOps, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4095));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
}

TEST(BitOps, Log2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(BitOps, Rounding)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundDown(65, 64), 64u);
    EXPECT_EQ(roundDown(63, 64), 0u);
}

TEST(BitOps, CommonPrefixLength)
{
    EXPECT_EQ(commonPrefixLength(0, 0, 32), 32u);
    EXPECT_EQ(commonPrefixLength(0b1000, 0b0000, 4), 0u);
    EXPECT_EQ(commonPrefixLength(0b1010, 0b1011, 4), 3u);
    EXPECT_EQ(commonPrefixLength(0b1010, 0b1000, 4), 2u);
    EXPECT_EQ(commonPrefixLength(~0ULL, ~0ULL ^ 1ULL, 64), 63u);
    EXPECT_EQ(commonPrefixLength(1ULL << 63, 0, 64), 0u);
}

// ---------------------------------------------------------------------
// Scalar-vs-SIMD kernel equivalence.
// ---------------------------------------------------------------------

namespace
{

using rimehw::BitVector;
using rimehw::RramArray;
namespace kernels = rimehw::kernels;

/** Restores the RIME_SIMD-selected dispatch when the test exits. */
struct ModeGuard
{
    ~ModeGuard() { kernels::setMode(kernels::envMode()); }
};

std::vector<std::uint64_t>
randomWords(std::mt19937_64 &rng, unsigned n)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v)
        w = rng();
    return v;
}

/** Word counts straddling every vector chunk width and its tails. */
const unsigned kWordCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33};

/** Bit widths exercising full words, tail masks, and one word. */
const unsigned kBitSizes[] = {1, 63, 64, 65, 128, 130, 511, 512, 577};

BitVector
randomBits(std::mt19937_64 &rng, unsigned nbits)
{
    BitVector v(nbits);
    for (unsigned w = 0; w < v.numWords(); ++w)
        v.setWord(w, rng());
    // Mask the tail like setAll does, so invariants hold.
    if (nbits & 63)
        v.setWord(v.numWords() - 1,
                  v.word(v.numWords() - 1) &
                      ((1ULL << (nbits & 63)) - 1));
    return v;
}

} // namespace

TEST(SimdKernels, DispatchModes)
{
    ModeGuard guard;
    kernels::setMode(kernels::Mode::Scalar);
    EXPECT_STREQ(kernels::isaName(), "scalar");
    const kernels::KernelTable *scalar = &kernels::active();
    kernels::setMode(kernels::Mode::Simd);
    if (kernels::simdAvailable()) {
        EXPECT_NE(&kernels::active(), scalar);
        EXPECT_STREQ(kernels::isaName(),
                     kernels::availableIsaName());
    } else {
        EXPECT_EQ(&kernels::active(), scalar);
        EXPECT_STREQ(kernels::isaName(), "scalar");
    }
    kernels::setMode(kernels::Mode::Auto);
    EXPECT_EQ(&kernels::active() != scalar, kernels::simdAvailable());
}

/**
 * The run kernels of the fault-free scan, against the scalar table
 * and against the recorded-match pair they replace: over a run of
 * units with a drained unit in the middle, searchSignalsRun must give
 * the wired-OR of every live unit's columnSearch signals, and
 * commitSearchRun must leave each live unit's select equal to
 * select &= ~match with its survivor count, and the drained unit
 * untouched.
 */
TEST(SimdKernels, RunKernelsMatchScalarAndRecorded)
{
    ModeGuard guard;
    kernels::setMode(kernels::Mode::Scalar);
    const kernels::KernelTable &ref = kernels::active();
    kernels::setMode(kernels::Mode::Simd);
    const kernels::KernelTable &simd = kernels::active();

    constexpr unsigned kUnits = 5;
    constexpr unsigned kDrained = 2;
    constexpr unsigned kCols = 3;
    std::mt19937_64 rng(0x7a5);
    for (const unsigned n : kWordCounts) {
        for (int round = 0; round < 8; ++round) {
            const auto pool = randomWords(rng, kUnits * kCols * n);
            std::vector<const std::uint64_t *> cols;
            for (unsigned u = 0; u < kUnits; ++u)
                cols.push_back(pool.data() + u * kCols * n);
            auto select = randomWords(rng, kUnits * n);
            // Dense selects make anyMatch/anyMismatch nontrivial.
            if (round & 1)
                for (auto &w : select)
                    w |= ~(rng() & rng());
            std::vector<unsigned> survivors(kUnits);
            for (unsigned u = 0; u < kUnits; ++u) {
                if (u == kDrained)
                    ref.fill(select.data() + u * n, 0, n);
                survivors[u] = ref.popcount(select.data() + u * n, n);
            }
            const unsigned offset = (round % kCols) * n;

            for (const bool bit : {false, true}) {
                // Recorded reference: full walk, match stored.
                auto selr = select;
                auto survr = survivors;
                std::uint64_t totalr = 0;
                bool any_match = false, any_mismatch = false;
                std::vector<std::uint64_t> m(n);
                for (unsigned u = 0; u < kUnits; ++u) {
                    if (survr[u] == 0)
                        continue;
                    std::uint64_t *sel = selr.data() + u * n;
                    const auto sig = ref.columnSearch(
                        cols[u] + offset, nullptr, sel, m.data(), n,
                        bit);
                    any_match = any_match || sig.anyMatch;
                    any_mismatch = any_mismatch || sig.anyMismatch;
                    survr[u] = ref.andNotCount(sel, m.data(), n);
                    totalr += survr[u];
                }

                for (const kernels::KernelTable *t : {&ref, &simd}) {
                    const auto sig = t->searchSignalsRun(
                        select.data(), cols.data(), offset,
                        survivors.data(), kUnits, n, bit);
                    EXPECT_EQ(sig.anyMatch, any_match) << t->name;
                    EXPECT_EQ(sig.anyMismatch, any_mismatch)
                        << t->name;

                    auto sel = select;
                    auto surv = survivors;
                    EXPECT_EQ(t->commitSearchRun(sel.data(),
                                                 cols.data(), offset,
                                                 surv.data(), kUnits,
                                                 n, bit),
                              totalr) << t->name;
                    EXPECT_EQ(sel, selr) << t->name;
                    EXPECT_EQ(surv, survr) << t->name;
                }
            }
        }
    }
}

/** Every kernel table entry point, against the scalar table. */
TEST(SimdKernels, TableEntryPointsMatchScalar)
{
    ModeGuard guard;
    kernels::setMode(kernels::Mode::Scalar);
    const kernels::KernelTable &ref = kernels::active();
    kernels::setMode(kernels::Mode::Simd);
    const kernels::KernelTable &simd = kernels::active();

    std::mt19937_64 rng(0x5eed);
    for (const unsigned n : kWordCounts) {
        for (int round = 0; round < 8; ++round) {
            const auto col = randomWords(rng, n);
            const auto disturb = randomWords(rng, n);
            auto select = randomWords(rng, n);
            // Dense selects make anyMatch/anyMismatch nontrivial.
            if (round & 1)
                for (auto &w : select)
                    w |= ~(rng() & rng());

            for (const bool bit : {false, true}) {
                for (const bool faulty : {false, true}) {
                    const std::uint64_t *d =
                        faulty ? disturb.data() : nullptr;
                    std::vector<std::uint64_t> m0(n, 0xAA), m1(n, 0x55);
                    const auto s0 = ref.columnSearch(
                        col.data(), d, select.data(), m0.data(), n,
                        bit);
                    const auto s1 = simd.columnSearch(
                        col.data(), d, select.data(), m1.data(), n,
                        bit);
                    EXPECT_EQ(m0, m1);
                    EXPECT_EQ(s0.anyMatch, s1.anyMatch);
                    EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
                }
            }

            for (const bool bit : {false, true}) {
                const auto s0 = ref.searchSignals(
                    col.data(), select.data(), n, bit);
                const auto s1 = simd.searchSignals(
                    col.data(), select.data(), n, bit);
                EXPECT_EQ(s0.anyMatch, s1.anyMatch);
                EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);

                auto sel0 = select;
                auto sel1 = select;
                const unsigned c0 = ref.commitSearch(
                    sel0.data(), col.data(), n, bit);
                const unsigned c1 = simd.commitSearch(
                    sel1.data(), col.data(), n, bit);
                EXPECT_EQ(c0, c1);
                EXPECT_EQ(sel0, sel1);

                // The fused pair must reproduce the recorded-match
                // pair: signals equal to columnSearch's, committed
                // select equal to select &= ~match.
                std::vector<std::uint64_t> m(n, 0);
                auto selr = select;
                const auto sr = ref.columnSearch(
                    col.data(), nullptr, select.data(), m.data(), n,
                    bit);
                const unsigned cr = ref.andNotCount(
                    selr.data(), m.data(), n);
                EXPECT_EQ(sr.anyMatch, s0.anyMatch);
                EXPECT_EQ(sr.anyMismatch, s0.anyMismatch);
                EXPECT_EQ(cr, c0);
                EXPECT_EQ(selr, sel0);
            }

            const auto base = randomWords(rng, n);
            const auto mask = randomWords(rng, n);
            auto d0 = randomWords(rng, n);
            auto d1 = d0;

            EXPECT_EQ(ref.andNotCount(d0.data(), mask.data(), n),
                      simd.andNotCount(d1.data(), mask.data(), n));
            EXPECT_EQ(d0, d1);

            EXPECT_EQ(ref.assignAndNotCount(d0.data(), base.data(),
                                            mask.data(), n),
                      simd.assignAndNotCount(d1.data(), base.data(),
                                             mask.data(), n));
            EXPECT_EQ(d0, d1);

            ref.andNot(d0.data(), col.data(), n);
            simd.andNot(d1.data(), col.data(), n);
            EXPECT_EQ(d0, d1);

            ref.andWords(d0.data(), select.data(), n);
            simd.andWords(d1.data(), select.data(), n);
            EXPECT_EQ(d0, d1);

            ref.orWords(d0.data(), base.data(), n);
            simd.orWords(d1.data(), base.data(), n);
            EXPECT_EQ(d0, d1);

            EXPECT_EQ(ref.popcount(d0.data(), n),
                      simd.popcount(d1.data(), n));

            const std::uint64_t v = rng();
            ref.fill(d0.data(), v, n);
            simd.fill(d1.data(), v, n);
            EXPECT_EQ(d0, d1);
        }
    }
}

/** BitVector bulk ops, run once per mode on identical inputs. */
TEST(SimdKernels, BitVectorOpsMatchScalar)
{
    ModeGuard guard;
    std::mt19937_64 rng(0xb17);
    for (const unsigned nbits : kBitSizes) {
        for (int round = 0; round < 6; ++round) {
            const auto seed = rng();
            std::mt19937_64 mk0(seed), mk1(seed);
            kernels::setMode(kernels::Mode::Scalar);
            BitVector a0 = randomBits(mk0, nbits);
            BitVector b0 = randomBits(mk0, nbits);
            kernels::setMode(kernels::Mode::Simd);
            BitVector a1 = randomBits(mk1, nbits);
            BitVector b1 = randomBits(mk1, nbits);
            ASSERT_EQ(a0, a1);

            const unsigned begin = static_cast<unsigned>(
                rng() % nbits);
            const unsigned end = begin + static_cast<unsigned>(
                rng() % (nbits - begin + 1));

            const auto run = [&](BitVector &a, BitVector &b,
                                 unsigned *out) {
                a.setRange(begin, end);
                out[0] = a.count();
                a.clearRange(begin / 2, end);
                out[1] = a.count();
                a |= b;
                a.andNot(b);
                out[2] = a.andNotCount(b);
                a &= b;
                out[3] = a.assignAndNotCount(b, a);
                a.setAll();
                out[4] = a.count();
                a.clearAll();
                out[5] = a.count();
                a = b;
            };

            unsigned c0[6], c1[6];
            kernels::setMode(kernels::Mode::Scalar);
            run(a0, b0, c0);
            kernels::setMode(kernels::Mode::Simd);
            run(a1, b1, c1);
            for (int i = 0; i < 6; ++i)
                EXPECT_EQ(c0[i], c1[i]);
            EXPECT_EQ(a0, a1);
        }
    }
}

/** Column search through RramArray, fault-free. */
TEST(SimdKernels, ColumnSearchMatchesScalar)
{
    ModeGuard guard;
    std::mt19937_64 rng(0xc01);
    RramArray array(512, 64);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 64, rng());

    for (int round = 0; round < 32; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 64);
        const bool bit = rng() & 1;
        const auto seed = rng();
        std::mt19937_64 mk0(seed), mk1(seed);

        kernels::setMode(kernels::Mode::Scalar);
        BitVector sel0 = randomBits(mk0, 512);
        BitVector m0(512);
        const auto s0 =
            array.columnSearchInto(col, bit, sel0.words(), m0.words());

        kernels::setMode(kernels::Mode::Simd);
        BitVector sel1 = randomBits(mk1, 512);
        BitVector m1(512);
        const auto s1 =
            array.columnSearchInto(col, bit, sel1.words(), m1.words());

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
    }
}

/** Column search with transient read disturb injected: the SIMD
 *  path gathers per-word disturb masks and XORs them vectorized;
 *  results must equal the scalar per-word loop in every epoch. */
TEST(SimdKernels, ColumnSearchFaultPathMatchesScalar)
{
    ModeGuard guard;
    rimehw::FaultParams fp;
    fp.seed = 7;
    fp.readDisturbRate = 0.02;
    rimehw::FaultModel faults(fp);

    std::mt19937_64 rng(0xfa01);
    RramArray array(512, 64);
    array.attachFaults(&faults, 3);
    for (unsigned row = 0; row < 512; ++row)
        array.writeRowBits(row, 0, 64, rng());

    for (int round = 0; round < 32; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 64);
        const bool bit = rng() & 1;
        BitVector sel = randomBits(rng, 512);
        BitVector m0(512), m1(512);

        kernels::setMode(kernels::Mode::Scalar);
        const auto s0 =
            array.columnSearchInto(col, bit, sel.words(), m0.words());
        kernels::setMode(kernels::Mode::Simd);
        const auto s1 =
            array.columnSearchInto(col, bit, sel.words(), m1.words());

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
        if (round % 4 == 3)
            faults.advanceEpoch();
    }
}

/** Arrays taller than the kernel disturb-gather scratch (16 words)
 *  fall back to an inline word loop under either table and must
 *  agree across them. */
TEST(SimdKernels, TallFaultyArrayFallsBackToScalar)
{
    ModeGuard guard;
    rimehw::FaultParams fp;
    fp.seed = 11;
    fp.readDisturbRate = 0.01;
    rimehw::FaultModel faults(fp);

    std::mt19937_64 rng(0x7a11);
    RramArray array(2048, 8); // 32 words per column > 16
    array.attachFaults(&faults, 5);
    for (unsigned row = 0; row < 2048; ++row)
        array.writeRowBits(row, 0, 8, rng() & 0xFF);

    for (int round = 0; round < 8; ++round) {
        const unsigned col = static_cast<unsigned>(rng() % 8);
        const bool bit = rng() & 1;
        BitVector sel = randomBits(rng, 2048);
        BitVector m0(2048), m1(2048);

        kernels::setMode(kernels::Mode::Scalar);
        const auto s0 =
            array.columnSearchInto(col, bit, sel.words(), m0.words());
        kernels::setMode(kernels::Mode::Simd);
        const auto s1 =
            array.columnSearchInto(col, bit, sel.words(), m1.words());

        EXPECT_EQ(m0, m1);
        EXPECT_EQ(s0.anyMatch, s1.anyMatch);
        EXPECT_EQ(s0.anyMismatch, s1.anyMismatch);
    }
}

/** A full bit-serial scan through ScanLatches over four units, one
 *  of them with an empty range (drained from the start): the fused
 *  run-kernel path under the SIMD table must reproduce, step by step,
 *  the signals, select latches, and survivor counts of the recorded-
 *  match path under the scalar table.  Attaching a fault model that
 *  injects nothing puts the reference units' sense path through the
 *  disturb gather. */
TEST(SimdKernels, FusedLatchScanMatchesRecorded)
{
    ModeGuard guard;
    constexpr unsigned kUnits = 4;
    std::mt19937_64 rng(0xf00d);
    const rimehw::FaultModel no_faults{rimehw::FaultParams{}};
    RramArray recorded(512, 32 * kUnits), fused(512, 32 * kUnits);
    recorded.attachFaults(&no_faults, 0);
    for (unsigned row = 0; row < 512; ++row) {
        for (unsigned slot = 0; slot < kUnits; ++slot) {
            const std::uint64_t raw = rng() & 0xFFFFFFFFULL;
            recorded.writeRowBits(row, slot * 32, 32, raw);
            fused.writeRowBits(row, slot * 32, 32, raw);
        }
    }

    std::vector<rimehw::ArrayUnit> units0, units1;
    for (unsigned slot = 0; slot < kUnits; ++slot) {
        units0.emplace_back(&recorded, slot, 32);
        units1.emplace_back(&fused, slot, 32);
    }
    std::vector<rimehw::ArrayUnit *> run0, run1;
    for (unsigned slot = 0; slot < kUnits; ++slot) {
        const unsigned end = slot == 1 ? 0 : 512 - 37 * slot;
        units0[slot].setRange(0, end);
        units1[slot].setRange(0, end);
        run0.push_back(&units0[slot]);
        run1.push_back(&units1[slot]);
    }
    rimehw::ScanLatches latches0, latches1;
    latches0.bind(run0);
    latches1.bind(run1);

    kernels::setMode(kernels::Mode::Scalar);
    const std::uint64_t b0 = latches0.load(run0);
    kernels::setMode(kernels::Mode::Simd);
    const std::uint64_t b1 = latches1.load(run1);
    ASSERT_EQ(b0, b1);
    ASSERT_EQ(latches1.survivors(1), 0u);

    for (unsigned s = 0; s < 32; ++s) {
        const bool bit = rng() & 1;
        kernels::setMode(kernels::Mode::Scalar);
        const auto p0 = latches0.probeRecorded(run0, s, bit);
        kernels::setMode(kernels::Mode::Simd);
        const auto p1 = latches1.probe(s, bit);
        EXPECT_EQ(p0.anyMatch, p1.anyMatch);
        EXPECT_EQ(p0.anyMismatch, p1.anyMismatch);
        if (!(p0.anyMatch && p0.anyMismatch))
            continue;

        kernels::setMode(kernels::Mode::Scalar);
        const std::uint64_t n0 = latches0.commitRecorded();
        kernels::setMode(kernels::Mode::Simd);
        const std::uint64_t n1 = latches1.commit(s, bit);
        EXPECT_EQ(n0, n1);
        for (unsigned u = 0; u < kUnits; ++u) {
            EXPECT_EQ(latches0.survivors(u), latches1.survivors(u));
            for (unsigned w = 0; w < 8; ++w)
                EXPECT_EQ(latches0.select(u)[w], latches1.select(u)[w]);
        }
    }

    std::size_t pos0 = 0, pos1 = 0;
    unsigned row0 = 0, row1 = 0;
    EXPECT_EQ(latches0.firstSurvivor(pos0, row0),
              latches1.firstSurvivor(pos1, row1));
    EXPECT_EQ(pos0, pos1);
    EXPECT_EQ(row0, row1);
}
