/**
 * @file
 * Property tests proving FastRime is observationally equivalent to
 * the bit-level RimeChip: identical extraction results, identical
 * step counts (the LCP theorem), identical energy/statistics, under
 * randomized operation sequences including live stores, mixed
 * min/max ranges, sub-ranges, and re-initialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "rimehw/chip.hh"
#include "rimehw/chunked_set.hh"
#include "rimehw/fast_model.hh"

using namespace rime;
using namespace rime::rimehw;

namespace
{

RimeGeometry
tinyGeometry()
{
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 2;
    g.subbanksPerBank = 4;
    g.arraysPerMat = 2;
    g.arrayRows = 8;
    g.arrayCols = 64;
    return g;
}

void
expectSameResult(const ExtractResult &a, const ExtractResult &b,
                 const char *what)
{
    ASSERT_EQ(a.found, b.found) << what;
    if (!a.found)
        return;
    EXPECT_EQ(a.raw, b.raw) << what;
    EXPECT_EQ(a.index, b.index) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.time, b.time) << what;
}

struct ModeCase
{
    KeyMode mode;
    unsigned k;
};

class Equivalence : public ::testing::TestWithParam<ModeCase>
{};

} // namespace

TEST_P(Equivalence, FullSortIdentical)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        96, chip.valueCapacity());
    Rng rng(500 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        // Narrow distribution so duplicates are frequent.
        const std::uint64_t raw = rng() & mask & 0xFFFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);

    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, false),
                         fast.extract(0, n, false), "min sort");
    }
    // Statistics must agree exactly.
    for (const char *stat : {"extractions", "scanSteps", "rowReads",
                             "rowWrites", "energyPJ",
                             "columnSearches"}) {
        EXPECT_DOUBLE_EQ(chip.stats().get(stat), fast.stats().get(stat))
            << stat;
    }
}

TEST_P(Equivalence, FullMaxSortIdentical)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t n = std::min<std::size_t>(
        64, chip.valueCapacity());
    Rng rng(700 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t raw = rng() & mask & 0xFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);
    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, true),
                         fast.extract(0, n, true), "max sort");
    }
}

TEST_P(Equivalence, RandomOperationSequence)
{
    const auto [mode, k] = GetParam();
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    chip.configure(k, mode);
    fast.configure(k, mode);

    const std::size_t cap = chip.valueCapacity();
    const std::size_t n = std::min<std::size_t>(64, cap);
    Rng rng(900 + k);
    const std::uint64_t mask = k >= 64 ? ~0ULL : (1ULL << k) - 1;
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        chip.writeValue(idx, raw);
        fast.writeValue(idx, raw);
    };
    for (std::size_t i = 0; i < n; ++i)
        put(i, rng() & mask);

    const std::uint64_t mid = n / 2;
    chip.initRange(0, mid);
    fast.initRange(0, mid);
    chip.initRange(mid, n);
    fast.initRange(mid, n);

    for (int step = 0; step < 400; ++step) {
        const unsigned action = static_cast<unsigned>(rng.below(6));
        const bool first = rng.below(2) == 0;
        const std::uint64_t b = first ? 0 : mid;
        const std::uint64_t e = first ? mid : n;
        switch (action) {
          case 0:
          case 1:
            expectSameResult(chip.extract(b, e, false),
                             fast.extract(b, e, false), "seq min");
            break;
          case 2:
            expectSameResult(chip.extract(b, e, true),
                             fast.extract(b, e, true), "seq max");
            break;
          case 3: {
            // Live store into the range.
            const std::uint64_t idx = b + rng.below(e - b);
            put(idx, rng() & mask);
            break;
          }
          case 4: {
            ASSERT_EQ(chip.remainingInRange(b, e),
                      fast.remainingInRange(b, e));
            break;
          }
          case 5:
            if (rng.below(8) == 0) { // occasional re-init
                chip.initRange(b, e);
                fast.initRange(b, e);
            }
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, Equivalence,
    ::testing::Values(ModeCase{KeyMode::UnsignedFixed, 8},
                      ModeCase{KeyMode::UnsignedFixed, 16},
                      ModeCase{KeyMode::UnsignedFixed, 32},
                      ModeCase{KeyMode::UnsignedFixed, 64},
                      ModeCase{KeyMode::SignedFixed, 16},
                      ModeCase{KeyMode::SignedFixed, 32},
                      ModeCase{KeyMode::Float, 32},
                      ModeCase{KeyMode::Float, 64}),
    [](const auto &info) {
        const char *m =
            info.param.mode == KeyMode::UnsignedFixed ? "U"
            : info.param.mode == KeyMode::SignedFixed ? "S" : "F";
        return std::string(m) + std::to_string(info.param.k);
    });

TEST(Equivalence, LargeNFullSortIdentical)
{
    // Drain a multi-thousand-value range and require
    // extraction-by-extraction identity plus exact statistics
    // agreement with the fast model.
    RimeGeometry g;
    g.chipsPerChannel = 1;
    g.banksPerChip = 4;
    g.subbanksPerBank = 8;
    g.arraysPerMat = 2;
    g.arrayRows = 64;
    g.arrayCols = 64;

    RimeChip chip(g);
    FastRime fast(g);
    chip.configure(16, KeyMode::UnsignedFixed);
    fast.configure(16, KeyMode::UnsignedFixed);

    const std::size_t n = std::min<std::size_t>(
        4096, chip.valueCapacity());
    ASSERT_GE(n, 2048u);
    Rng rng(31337);
    for (std::size_t i = 0; i < n; ++i) {
        // Narrow distribution: plenty of ties across units.
        const std::uint64_t raw = rng() & 0x3FFF;
        chip.writeValue(i, raw);
        fast.writeValue(i, raw);
    }
    chip.initRange(0, n);
    fast.initRange(0, n);

    for (std::size_t i = 0; i <= n; ++i) {
        expectSameResult(chip.extract(0, n, false),
                         fast.extract(0, n, false), "large-N sort");
    }
    for (const char *stat : {"extractions", "scanSteps", "rowReads",
                             "rowWrites", "energyPJ",
                             "columnSearches"}) {
        EXPECT_DOUBLE_EQ(chip.stats().get(stat), fast.stats().get(stat))
            << stat;
    }
}

namespace
{

/** A geometry with room for 4096 32-bit values in 64-row arrays. */
RimeGeometry
wideGeometry()
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

/** Every counter FastRime keeps, plus wear, agrees with RimeChip. */
void
expectSameStats(const RimeChip &chip, const FastRime &fast)
{
    for (const auto &[name, value] : fast.stats().values())
        EXPECT_DOUBLE_EQ(chip.stats().get(name), value) << name;
    EXPECT_EQ(chip.endurance().totalWrites(),
              fast.endurance().totalWrites());
    EXPECT_EQ(chip.endurance().touchedBlocks(),
              fast.endurance().touchedBlocks());
    EXPECT_EQ(chip.endurance().maxBlockWrites(),
              fast.endurance().maxBlockWrites());
}

class LargeOverlay : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(LargeOverlay, MixedExtractionsMatchBitLevel)
{
    // One 2048-value range takes thousands of live stores between
    // extractions, so the overlay spans many chunks: chunks split on
    // insert, drain from both ends under mixed min/max extraction,
    // and empty out; periodic re-inits rebuild the order.  At k=8 the
    // keys take 32 values, so tie runs are longer than a chunk.
    const unsigned k = GetParam();
    RimeChip chip(wideGeometry());
    FastRime fast(wideGeometry());
    chip.configure(k, KeyMode::UnsignedFixed);
    fast.configure(k, KeyMode::UnsignedFixed);
    const std::uint64_t n = 2048;
    ASSERT_GE(chip.valueCapacity(), n);

    Rng rng(4100 + k);
    const std::uint64_t mask = k == 8 ? 0x1F : (1ULL << k) - 1;
    auto put = [&](std::uint64_t idx, std::uint64_t raw) {
        chip.writeValue(idx, raw);
        fast.writeValue(idx, raw);
    };
    for (std::uint64_t i = 0; i < n; ++i)
        put(i, rng() & mask);
    chip.initRange(0, n);
    fast.initRange(0, n);

    std::uint64_t stores = 0;
    for (unsigned phase = 0; stores < 8192; ++phase) {
        const unsigned burst = 200 + static_cast<unsigned>(
            rng.below(1400));
        for (unsigned i = 0; i < burst; ++i, ++stores)
            put(rng.below(n), rng() & mask);
        const unsigned pulls = static_cast<unsigned>(rng.below(700));
        for (unsigned i = 0; i < pulls; ++i) {
            const bool find_max = rng.below(2) == 0;
            expectSameResult(chip.extract(0, n, find_max),
                             fast.extract(0, n, find_max),
                             find_max ? "max" : "min");
            if (::testing::Test::HasFailure())
                return;
        }
        ASSERT_EQ(chip.remainingInRange(0, n),
                  fast.remainingInRange(0, n));
        if (phase % 3 == 2) {
            chip.initRange(0, n);
            fast.initRange(0, n);
        }
    }
    // Drain what is left from alternating ends.
    for (std::uint64_t i = 0; i <= n; ++i) {
        const bool find_max = i % 2 == 1;
        expectSameResult(chip.extract(0, n, find_max),
                         fast.extract(0, n, find_max), "drain");
        if (::testing::Test::HasFailure())
            return;
    }
    expectSameStats(chip, fast);
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndSparseKeys, LargeOverlay, ::testing::Values(8u, 32u),
    [](const auto &info) { return "K" + std::to_string(info.param); });

TEST(Equivalence, PriorityQueuePatternMatchesBitLevel)
{
    // The strict-priority-queue workload: a range pre-filled with the
    // sentinel (the maximum key), armed once, then r ordinary stores
    // into fresh slots per rime_min removal, so the live queue sits
    // entirely in the overlay.
    constexpr std::uint64_t kSentinel = 0xFFFFFFFFULL;
    constexpr std::uint64_t kSlots = 4096;
    constexpr std::uint64_t kPrefill = 512;
    for (unsigned r = 1; r <= 5; ++r) {
        SCOPED_TRACE("adds per remove " + std::to_string(r));
        RimeChip chip(wideGeometry());
        FastRime fast(wideGeometry());
        chip.configure(32, KeyMode::UnsignedFixed);
        fast.configure(32, KeyMode::UnsignedFixed);
        ASSERT_GE(chip.valueCapacity(), kSlots);
        for (std::uint64_t i = 0; i < kSlots; ++i) {
            chip.writeValue(i, kSentinel);
            fast.writeValue(i, kSentinel);
        }
        chip.initRange(0, kSlots);
        fast.initRange(0, kSlots);

        Rng rng(77 + r);
        std::uint64_t next = 0;
        std::multiset<std::uint64_t> live; // reference queue
        auto push = [&] {
            // A narrow key range, so equal priorities are common.
            const std::uint64_t key = rng() & 0xFFFF;
            chip.writeValue(next, key);
            fast.writeValue(next, key);
            live.insert(key);
            ++next;
        };
        while (next < kPrefill)
            push();
        std::uint64_t removed = 0;
        for (;;) {
            for (unsigned i = 0; i < r && next < kSlots; ++i)
                push();
            const ExtractResult a = chip.extract(0, kSlots, false);
            const ExtractResult b = fast.extract(0, kSlots, false);
            expectSameResult(a, b, "pop");
            if (::testing::Test::HasFailure())
                return;
            if (!a.found || a.raw == kSentinel)
                break;
            ASSERT_FALSE(live.empty());
            ASSERT_EQ(a.raw, *live.begin());
            live.erase(live.begin());
            ++removed;
        }
        EXPECT_EQ(removed, kSlots);
        EXPECT_TRUE(live.empty());
        expectSameStats(chip, fast);
    }
}

TEST(ChunkedSet, MatchesStdSetThroughGrowthAndDrain)
{
    // Grow to thousands of entries (every chunk splits), drain to
    // empty from both ends and the middle (chunks fold and vanish),
    // and grow again; every query must agree with std::set.  A key
    // range of 16 makes tie runs far longer than a chunk.
    using Entry = ChunkedSet::Entry;
    for (const std::uint64_t keys : {16ULL, 1ULL << 32}) {
        SCOPED_TRACE("key range " + std::to_string(keys));
        ChunkedSet set;
        std::set<Entry> ref;
        Rng rng(keys);
        std::uint64_t next_index = 0;
        auto check = [&] {
            ASSERT_EQ(set.size(), ref.size());
            ASSERT_EQ(set.empty(), ref.empty());
            Entry got{};
            if (ref.empty())
                return;
            ASSERT_EQ(set.front(), *ref.begin());
            ASSERT_EQ(set.back(), *ref.rbegin());
            ASSERT_EQ(set.second(got), ref.size() > 1);
            if (ref.size() > 1) {
                ASSERT_EQ(got, *std::next(ref.begin()));
            }
            const std::uint64_t top = ref.rbegin()->first;
            const auto run = ref.lower_bound(Entry{top, 0});
            ASSERT_EQ(set.topRun(got),
                      static_cast<std::size_t>(
                          std::distance(run, ref.end())));
            ASSERT_EQ(got, *run);
            for (const Entry &probe :
                 {Entry{top, 0}, Entry{rng.below(keys), rng.below(
                      next_index + 1)}}) {
                const auto below = ref.lower_bound(probe);
                ASSERT_EQ(set.predecessor(probe, got),
                          below != ref.begin());
                if (below != ref.begin()) {
                    ASSERT_EQ(got, *std::prev(below));
                }
            }
        };
        for (const std::size_t target : {3000, 0, 1500, 200, 2500, 0}) {
            while (ref.size() != target) {
                if (ref.size() < target) {
                    const Entry e{rng.below(keys), next_index++};
                    set.insert(e);
                    ref.insert(e);
                } else {
                    // Erase the min, the max or a random member; now
                    // and then ask for an entry that was never added.
                    Entry e;
                    switch (rng.below(4)) {
                      case 0:
                        e = *ref.begin();
                        break;
                      case 1:
                        e = *ref.rbegin();
                        break;
                      case 2: {
                        const auto it =
                            ref.lower_bound(Entry{rng.below(keys), 0});
                        e = it == ref.end() ? *ref.rbegin() : *it;
                        break;
                      }
                      default:
                        e = Entry{rng.below(keys), next_index};
                        break;
                    }
                    ASSERT_EQ(set.erase(e), ref.erase(e) == 1);
                }
                check();
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(ChunkedSet, SecondSmallestInTheNextChunk)
{
    // Ascending inserts fill a 64-entry chunk and a full one behind
    // it; erasing the front down to one entry cannot fold it into the
    // full neighbour, so the second-smallest entry is the head of the
    // next chunk.
    using Entry = ChunkedSet::Entry;
    const std::uint64_t n = ChunkedSet::kChunk + ChunkedSet::kChunk / 2;
    ChunkedSet set;
    for (std::uint64_t i = 0; i < n; ++i)
        set.insert(Entry{i, i});
    for (std::uint64_t i = 0; i + 1 < ChunkedSet::kChunk / 2; ++i)
        ASSERT_TRUE(set.erase(Entry{i, i}));
    const std::uint64_t head = ChunkedSet::kChunk / 2 - 1;
    EXPECT_EQ(set.front(), (Entry{head, head}));
    Entry got{};
    ASSERT_TRUE(set.second(got));
    EXPECT_EQ(got, (Entry{head + 1, head + 1}));
    ASSERT_TRUE(set.predecessor(Entry{head + 1, 0}, got));
    EXPECT_EQ(got, (Entry{head, head}));
}

TEST(FastRime, StoreToExcludedRowStaysInvisible)
{
    FastRime fast(tinyGeometry());
    fast.configure(16, KeyMode::UnsignedFixed);
    fast.writeValue(0, 10);
    fast.writeValue(1, 20);
    fast.initRange(0, 2);
    auto r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 10u);
    // Store a smaller value into the already-extracted row 0: the
    // exclusion latch keeps it invisible.
    fast.writeValue(0, 1);
    r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 20u);
    EXPECT_FALSE(fast.extract(0, 2, false).found);
    // After re-init the new value is visible.
    fast.initRange(0, 2);
    r = fast.extract(0, 2, false);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.raw, 1u);
}

TEST(FastRime, LiveInsertChangesTheMin)
{
    // Mirrors the priority-queue add path: a store into the live
    // range must surface immediately in the next extraction.
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    for (auto *backend : std::initializer_list<RankBackend *>{
             &chip, &fast}) {
        backend->configure(16, KeyMode::UnsignedFixed);
        backend->writeValue(0, 100);
        backend->writeValue(1, 200);
        backend->writeValue(2, 300);
        backend->initRange(0, 3);
        auto r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 100u);
        backend->writeValue(1, 50); // insert below the current min
        r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 50u);
        r = backend->extract(0, 3, false);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.raw, 300u);
    }
}

TEST(FastRime, CapacityMatchesBitLevelModel)
{
    RimeChip chip(tinyGeometry());
    FastRime fast(tinyGeometry());
    for (const unsigned k : {8u, 16u, 32u, 64u}) {
        chip.configure(k, KeyMode::UnsignedFixed);
        fast.configure(k, KeyMode::UnsignedFixed);
        EXPECT_EQ(chip.valueCapacity(), fast.valueCapacity()) << k;
    }
}
